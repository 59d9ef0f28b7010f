"""Command-line front end.

Exit codes: 0 on success or when every checked property holds, 1 on a
property failure (a failing verification suite, or ``eq`` deciding
"unequal"), 2 on usage or parse errors, 3 on an internal error (any
exception that is not a ``SpectrumError``, reported with the code
``InternalError`` and no traceback).  With ``--format json`` errors are
emitted as ``{"error": {"code": ..., "message": ...}}``; usage errors,
``argparse``'s included, carry the code ``BadParameter``.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from . import catalog as catalog_mod
from . import serialize, verify
from .classify import normal_form
from .errors import BadParameter, ParseError, SpectrumError
from .families import thread_sets, threads
from .poset import Poset, set_text, tuple_text
from .tuples import (SubsetTuple, canonical, collapse, prune_downward,
                     prune_to_threads, prune_upward)


def _read(path: str) -> str:
    """The text of a UTF-8 file, a leading byte order mark dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise BadParameter(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte "
                         f"{exc.start}") from None


def _load_poset(args) -> Poset:
    if not args.poset:
        raise BadParameter("this command needs --poset FILE")
    return serialize.load_poset(_read(args.poset))


def _load_tuples(args, P: Poset, count: int) -> list[SubsetTuple]:
    paths = args.tuple or []
    if len(paths) != count:
        raise BadParameter(
            f"this command needs exactly {count} --tuple FILE argument(s)")
    return [serialize.tuple_from_lists(P, serialize.loads(_read(p)))
            for p in paths]


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        sys.stdout.write(serialize.dumps(payload))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_reduce(args) -> int:
    P = _load_poset(args)
    (t,) = _load_tuples(args, P, 1)
    stages = {
        "input": t,
        "prune_upward": prune_upward(P, t),
        "prune_downward": prune_downward(P, t),
        "prune_to_threads": prune_to_threads(P, t),
        "collapse": collapse(t),
        "canonical": canonical(P, t),
    }
    payload = {k: serialize.tuple_to_lists(P, v) for k, v in stages.items()}
    text = "\n".join(f"{k}: {tuple_text(P, v)}" for k, v in stages.items())
    _emit(args, payload, text)
    return 0


def _cmd_threads(args) -> int:
    P = _load_poset(args)
    (t,) = _load_tuples(args, P, 1)
    found = list(threads(P, t))
    payload = {"threads": [list(th.labels(P)) for th in found]}
    text = "\n".join(" >= ".join(th.labels(P)) for th in found) or "(none)"
    _emit(args, payload, text)
    return 0


def _cmd_tset(args) -> int:
    P = _load_poset(args)
    (t,) = _load_tuples(args, P, 1)
    F = thread_sets(P, t)
    text = "\n".join(set_text(P, g) for g in F.sorted_generators()) or "(empty)"
    _emit(args, serialize.family_to_dict(P, F), text)
    return 0


def _cmd_eq(args) -> int:
    P = _load_poset(args)
    first, second = _load_tuples(args, P, 2)
    F, G = thread_sets(P, first), thread_sets(P, second)
    if F == G:
        _emit(args, {"equal": True}, "equal")
        return 0
    witness = min(F ^ G, key=lambda m: (m.bit_count(), tuple(P.labels(m))))
    side = "first" if F.member(witness) else "second"
    payload = {"equal": False, "witness": list(P.labels(witness)),
               "witness_only_in": side}
    _emit(args, payload,
          f"unequal: generator {set_text(P, witness)} only in the {side} tuple")
    return 1


def _cmd_classify(args) -> int:
    P = _load_poset(args)
    (t,) = _load_tuples(args, P, 1)
    nf = normal_form(P, t)
    _emit(args, serialize.form_to_dict(P, nf), nf.describe(P))
    return 0


def _cmd_dot(args) -> int:
    P = _load_poset(args)
    sys.stdout.write(serialize.poset_to_dot(P))
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        if args.format == "dot":
            raise BadParameter("catalog list writes text or json, not dot")
        payload = {"entries": catalog_mod.names()}
        _emit(args, payload, "\n".join(catalog_mod.names()))
        return 0
    if not args.name:
        raise BadParameter("catalog emit needs an entry name")
    entry = catalog_mod.catalog(args.name, *(args.params or []))
    if args.format == "dot":
        sys.stdout.write(serialize.poset_to_dot(entry.poset))
        return 0
    payload = {
        "name": entry.name,
        "params": list(entry.params),
        "poset": serialize.poset_to_dict(entry.poset),
        "tuples": {k: serialize.tuple_to_lists(entry.poset, v)
                   for k, v in entry.tuples.items()},
        "notes": entry.notes,
    }
    lines = [f"{entry.name}{entry.params}: {entry.notes}",
             serialize.poset_to_text(entry.poset).rstrip()]
    for tname, t in entry.tuples.items():
        lines.append(f"tuple {tname}: {tuple_text(entry.poset, t)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    bounds = verify.Bounds(max_k=args.max_k, budget=args.budget,
                           exhaustive=args.exhaustive,
                           seed=args.seed)
    posets = None
    if args.poset:
        posets = [(args.poset, _load_poset(args))]
    reports = verify.run_suite(args.suite, posets, bounds)
    failed = sum(1 for r in reports if not r.passed)
    payload = {"reports": [r.to_dict() for r in reports],
               "passed": failed == 0}
    total = sum(r.cases for r in reports)
    status = "pass" if failed == 0 else f"FAIL in {failed} report(s)"
    lines = [r.to_text() for r in reports]
    lines.append(f"== {len(reports)} reports, {total} cases: {status}")
    _emit(args, payload, "\n".join(lines))
    return 0 if failed == 0 else 1


class _UsageError(BadParameter):
    """A command line that ``argparse`` rejected, with the rejecting parser."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting, so that ``main`` can report
    them in the requested format; subcommand parsers share the class."""

    def error(self, message):
        raise _UsageError(self, message)


def _format_of(argv: list[str] | None) -> str | None:
    """The ``--format`` value of a command line that failed to parse."""
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--format")
    try:
        return probe.parse_known_args(argv)[0].format
    except argparse.ArgumentError:
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="threadsets",
        description=("Combinatorics of iterated localizations over a finite "
                     "prime poset: tuple reductions, thread sets, normal "
                     "forms and verification suites."))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def on_tuples(name, run, help):
        p = command(name, run, help)
        p.add_argument("--poset", help="poset file (JSON or text)")
        p.add_argument("--tuple", action="append",
                       help="tuple file (JSON), repeatable")
        p.add_argument("--format", choices=("text", "json"), default="text")

    on_tuples("reduce", _cmd_reduce, "print all reductions of a tuple")
    on_tuples("threads", _cmd_threads, "enumerate the threads of a tuple")
    on_tuples("tset", _cmd_tset, "minimal generators of the thread sets")
    on_tuples("eq", _cmd_eq, "compare the thread sets of two tuples")
    on_tuples("classify", _cmd_classify, "normal form of a tuple")
    dot = command("dot", _cmd_dot, "emit the cover relation as DOT")
    dot.add_argument("--poset", help="poset file (JSON or text)")

    cat = command("catalog", _cmd_catalog, "list or emit example spectra")
    cat.add_argument("action", choices=("list", "emit"))
    cat.add_argument("name", nargs="?")
    cat.add_argument("params", nargs="*", type=int)
    cat.add_argument("--format", choices=("text", "json", "dot"),
                     default="text")

    bounds = verify.Bounds()
    ver = command("verify", _cmd_verify, "run verification suites")
    ver.add_argument("suite", choices=verify.SUITE_NAMES)
    ver.add_argument("--poset", help="verify this poset instead of the corpus")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--seed", type=int, default=bounds.seed)
    ver.add_argument("--exhaustive", action="store_true",
                     help="never sample tuples or associativity triples; "
                          "fail with BudgetExceeded beyond --budget")
    ver.add_argument("--max-k", type=int, default=bounds.max_k, dest="max_k")
    ver.add_argument("--budget", type=int, default=bounds.budget)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except _UsageError as exc:
        if _format_of(argv) == "json":
            _error("json", exc.code, str(exc))
        else:  # argparse's own usage text
            exc.parser.print_usage(sys.stderr)
            sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
        return 2
    fmt = getattr(args, "format", "text")
    try:
        return args.run(args)
    except SpectrumError as exc:
        _error(fmt, exc.code, str(exc))
        return 2
    except Exception as exc:  # a defect, not bad input: one line, exit 3
        where = traceback.extract_tb(exc.__traceback__)[-1]
        _error(fmt, "InternalError",
               f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}"
               f":{where.lineno} in {where.name})")
        return 3


def _error(fmt: str, code: str, message: str) -> None:
    if fmt == "json":
        sys.stdout.write(serialize.dumps(
            {"error": {"code": code, "message": message}}))
    else:
        sys.stderr.write(f"error[{code}]: {message}\n")


if __name__ == "__main__":
    raise SystemExit(main())

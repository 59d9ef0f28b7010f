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
import functools
import sys
import traceback
from pathlib import Path

from . import catalog as catalog_mod
from . import serialize, verify
from .classify import normal_form
from .errors import BadParameter, ParseError, SpectrumError
from .families import thread_sets
from .poset import Poset, set_text, tuple_text
from .tuples import (SubsetTuple, canonical, collapse, prune_downward,
                     prune_to_threads, prune_upward, threads)


def _read(path: str) -> str:
    """The text of a UTF-8 file, a leading byte order mark dropped."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except OSError as exc:
        raise BadParameter(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte "
                         f"{exc.start}") from None


# Sized from the bench's cli-batch workload (bench/workloads.py), whose pass
# reads 6 distinct posets 2 060 times; the bound keeps a long batch from
# holding more posets and their tables alive.
_POSETS_KEPT = 8


@functools.lru_cache(maxsize=_POSETS_KEPT)
def _poset_of(text: str) -> Poset:
    """The poset of a document, parsed once per distinct text and then kept
    with its operator tables, which change no answer (see ``Poset``).  An
    invalid document raises on every call: ``lru_cache`` keeps no error."""
    return serialize.load_poset(text)


def _load_poset(args) -> Poset:
    if not args.poset:
        raise BadParameter("this command needs --poset FILE")
    return _poset_of(_read(args.poset))


def _inputs(args) -> list:
    """The poset and exactly ``args.tuples`` tuples read from the files of
    ``--poset`` and ``--tuple``."""
    P = _load_poset(args)
    paths = getattr(args, "tuple", None) or []
    if len(paths) != args.tuples:
        raise BadParameter(f"this command needs exactly {args.tuples} "
                           "--tuple FILE argument(s)")
    return [P, *(serialize.tuple_from_lists(P, serialize.loads(_read(p)))
                 for p in paths)]


def _emit(fmt: str, payload: dict, text: str) -> None:
    if fmt == "json":
        sys.stdout.write(serialize.dumps(payload))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# Each command returns its exit code, its JSON payload and its text.
_Result = tuple[int, dict, str]


def _cmd_reduce(P: Poset, t: SubsetTuple) -> _Result:
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
    return 0, payload, text


def _cmd_threads(P: Poset, t: SubsetTuple) -> _Result:
    found = [[P.elements[i] for i in sequence]
             for sequence, _ in threads(P, t)]
    text = "\n".join(" >= ".join(labels) for labels in found) or "(none)"
    return 0, {"threads": found}, text


def _cmd_tset(P: Poset, t: SubsetTuple) -> _Result:
    F = thread_sets(P, t)
    text = "\n".join(set_text(P, g) for g in F.sorted_generators()) or "(empty)"
    return 0, serialize.family_to_dict(P, F), text


def _cmd_eq(P: Poset, first: SubsetTuple, second: SubsetTuple) -> _Result:
    F, G = thread_sets(P, first), thread_sets(P, second)
    if F == G:
        return 0, {"equal": True}, "equal"
    witness = min(F ^ G, key=lambda m: (m.bit_count(), tuple(P.labels(m))))
    side = "first" if F.member(witness) else "second"
    payload = {"equal": False, "witness": list(P.labels(witness)),
               "witness_only_in": side}
    return 1, payload, (f"unequal: generator {set_text(P, witness)} only in "
                        f"the {side} tuple")


def _cmd_classify(P: Poset, t: SubsetTuple) -> _Result:
    nf = normal_form(P, t)
    return 0, serialize.form_to_dict(P, nf), nf.describe(P)


def _cmd_dot(P: Poset) -> _Result:
    return 0, {}, serialize.poset_to_dot(P)


def _cmd_catalog(args) -> _Result:
    if args.action == "list":
        if args.format == "dot":
            raise BadParameter("catalog list writes text or json, not dot")
        names = catalog_mod.names()
        return 0, {"entries": names}, "\n".join(names)
    if not args.name:
        raise BadParameter("catalog emit needs an entry name")
    entry = catalog_mod.catalog(args.name, *(args.params or []))
    if args.format == "dot":
        return _cmd_dot(entry.poset)
    payload = {
        "name": entry.name,
        "params": list(entry.params),
        "poset": serialize.poset_to_dict(entry.poset),
        "tuples": {k: serialize.tuple_to_lists(entry.poset, v)
                   for k, v in entry.tuples.items()},
        "notes": entry.notes,
    }
    lines = [f"{entry.label}: {entry.notes}",
             serialize.poset_to_text(entry.poset).rstrip()]
    for tname, t in entry.tuples.items():
        lines.append(f"tuple {tname}: {tuple_text(entry.poset, t)}")
    return 0, payload, "\n".join(lines)


def _cmd_verify(args) -> _Result:
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
    return (0 if failed == 0 else 1), payload, "\n".join(lines)


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


@functools.cache
def _format_probe() -> argparse.ArgumentParser:
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--format")
    return probe


def _format_of(argv: list[str] | None) -> str | None:
    """The ``--format`` value of a command line that failed to parse."""
    try:
        return _format_probe().parse_known_args(argv)[0].format
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

    def on_tuples(name, run, help, tuples=1):
        """A command of the poset and ``tuples`` tuples, read by ``_inputs``."""
        p = command(name, run, help)
        p.set_defaults(tuples=tuples)
        p.add_argument("--poset", help="poset file (JSON or text)")
        if tuples:
            p.add_argument("--tuple", action="append",
                           help="tuple file (JSON), repeatable")
            p.add_argument("--format", choices=("text", "json"),
                           default="text")

    on_tuples("reduce", _cmd_reduce, "print all reductions of a tuple")
    on_tuples("threads", _cmd_threads, "enumerate the threads of a tuple")
    on_tuples("tset", _cmd_tset, "minimal generators of the thread sets")
    on_tuples("eq", _cmd_eq, "compare the thread sets of two tuples", 2)
    on_tuples("classify", _cmd_classify, "normal form of a tuple")
    on_tuples("dot", _cmd_dot, "emit the cover relation as DOT", 0)

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built on first use and then kept:
    building one costs more than most commands.  It holds the ``_cmd_*``
    functions as they were when it was built."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit:  # --help; every other exit is a _UsageError
        return 0
    except _UsageError as exc:
        if _format_of(argv) == "json":
            _error("json", exc.code, str(exc))
        else:  # argparse's own usage text
            exc.parser.print_usage(sys.stderr)
            sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
        return 2
    fmt = getattr(args, "format", "text")
    try:
        if hasattr(args, "tuples"):  # set by on_tuples: read its inputs
            code, payload, text = args.run(*_inputs(args))
        else:
            code, payload, text = args.run(args)
        _emit(fmt, payload, text)
        return code
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


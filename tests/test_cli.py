from __future__ import annotations

import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from threadsets import classify, cli
from threadsets.cli import main
from threadsets.errors import Inconsistent
from threadsets.serialize import dumps

ANTICHAIN3 = {"elements": ["p", "q", "r"], "relations": []}
TWO_CHAINS = {"elements": ["p1", "p2", "q1", "q2"],
              "relations": ["p2 < p1", "q2 < q1"]}
DIAMOND = {"elements": ["t", "a", "b", "m"],
           "relations": ["a < t", "b < t", "m < a", "m < b"]}


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        text = payload if isinstance(payload, str) else dumps(payload)
        path.write_text(text, encoding="utf-8")
        return str(path)
    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_antichain_golden(write, capsys):
    poset = write("p.json", ANTICHAIN3)
    t = write("t.json", [["p", "r"], ["q", "r"]])
    code, out, _ = run(capsys, "reduce", "--poset", poset, "--tuple", t)
    assert code == 0
    assert "prune_to_threads: ({r}, {r})" in out
    assert "canonical: ({r})" in out


def test_reduce_json(write, capsys):
    poset = write("p.json", ANTICHAIN3)
    t = write("t.json", [["p", "r"], ["q", "r"]])
    code, out, _ = run(capsys, "reduce", "--poset", poset, "--tuple", t,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["prune_to_threads"] == [["r"], ["r"]]
    assert data["canonical"] == [["r"]]


def test_threads_output(write, capsys):
    poset = write("p.json", {"elements": ["0", "1"], "relations": ["0 < 1"]})
    t = write("t.json", [["1"], ["0"]])
    code, out, _ = run(capsys, "threads", "--poset", poset, "--tuple", t)
    assert code == 0
    assert out.strip() == "1 >= 0"


def test_tset_json(write, capsys):
    poset = write("p.json", DIAMOND)
    t = write("t.json", [["t", "a"], ["b", "m"]])
    code, out, _ = run(capsys, "tset", "--poset", poset, "--tuple", t,
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"generators": [["t", "b"], ["t", "m"],
                                              ["a", "m"]]}


def test_eq_remark_pair_equal(write, capsys):
    poset = write("p.json", TWO_CHAINS)
    triple = write("a.json", [["p1", "q1"], ["p1", "q2"], ["p2", "q2"]])
    pair = write("b.json", [["p1", "q1"], ["p2", "q2"]])
    code, out, _ = run(capsys, "eq", "--poset", poset, "--tuple", triple,
                       "--tuple", pair)
    assert code == 0
    assert out.strip() == "equal"


def test_eq_unequal_names_witness(write, capsys):
    poset = write("p.json", TWO_CHAINS)
    first = write("a.json", [["p1"]])
    second = write("b.json", [["q1"]])
    code, out, _ = run(capsys, "eq", "--poset", poset, "--tuple", first,
                       "--tuple", second)
    assert code == 1
    assert "unequal" in out and "{p1}" in out


def test_eq_unequal_json(write, capsys):
    poset = write("p.json", TWO_CHAINS)
    first = write("a.json", [["p1"]])
    second = write("b.json", [["p1"], ["p2"]])
    code, out, _ = run(capsys, "eq", "--poset", poset, "--tuple", first,
                       "--tuple", second, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["equal"] is False
    assert data["witness"] == ["p1"]
    assert data["witness_only_in"] == "first"


def test_classify_json(write, capsys):
    poset = write("p.json", DIAMOND)
    t = write("t.json", [["t", "a"], ["b", "m"]])
    code, out, _ = run(capsys, "classify", "--poset", poset, "--tuple", t,
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"form": "D2_Form7", "A1": ["a"], "B1": ["b"]}


def test_dot(write, capsys):
    poset = write("p.json", DIAMOND)
    code, out, _ = run(capsys, "dot", "--poset", poset)
    assert code == 0
    assert out.startswith("digraph poset {")
    assert '"m" -> "a";' in out


def test_text_poset_input(write, capsys):
    poset = write("p.txt", "p\nq\nr\n")
    t = write("t.json", [["p", "q"]])
    code, out, _ = run(capsys, "tset", "--poset", poset, "--tuple", t)
    assert code == 0
    assert out.splitlines() == ["{p}", "{q}"]


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "torus2" in out.split()


def test_catalog_list_rejects_dot(capsys):
    code, out, err = run(capsys, "catalog", "list", "--format", "dot")
    assert (code, out) == (2, "")
    assert err.startswith("error[BadParameter]: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("entry", [["chain"], ["chain", "3"], [""]])
def test_catalog_list_takes_no_entry_name(capsys, fmt, entry):
    got = run(capsys, "catalog", "list", *entry, "--format", fmt)
    assert got == (2, *_error_output(
        fmt, "BadParameter", "catalog list takes no entry name or parameters"))


def test_catalog_emit_json(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "torus2", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["poset"]["elements"] == ["T2", "S1", "S2", "F1", "F2", "e"]
    assert data["tuples"]["reduced"] == [["S1", "S2"], ["F1", "F2", "e"]]


@pytest.mark.parametrize("entry, head", [
    (["chain", "3"], "chain(3): total order on 4 points, 0 minimal"),
    (["zariski_xy", "2", "1"], "zariski_xy(2, 1): Spec k[x,y]/(xy) truncated; "
     "Balmer order is reversed Zariski inclusion, O = (x,y)"),
])
def test_catalog_emit_text_names_the_entry_as_verify_does(capsys, entry,
                                                          head):
    code, out, _ = run(capsys, "catalog", "emit", *entry)
    assert code == 0
    assert out.splitlines()[0] == head


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_catalog_emit_rejects_a_parameter_past_the_cap(capsys, monkeypatch,
                                                       fmt):
    # refused at the boundary: no poset is built
    monkeypatch.setattr(cli.catalog_mod, "build_poset", None)
    cap = cli.catalog_mod.MAX_PARAM
    got = run(capsys, "catalog", "emit", "chain", str(cap + 1),
              "--format", fmt)
    assert got == (2, *_error_output(
        fmt, "BadParameter",
        f"chain parameters must be at most {cap}, got {cap + 1}"))


def test_catalog_emit_takes_the_cap(capsys):
    cap = cli.catalog_mod.MAX_PARAM
    code, out, _ = run(capsys, "catalog", "emit", "circle", str(cap),
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["poset"]["elements"]) == cap + 1


def test_catalog_emit_dot(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "diamond", "2",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph poset {")


def test_catalog_unknown_entry(capsys):
    code, out, err = run(capsys, "catalog", "emit", "moebius")
    assert code == 2
    assert "UnknownCatalogEntry" in err


def test_verify_single_poset(write, capsys):
    poset = write("p.json", DIAMOND)
    code, out, _ = run(capsys, "verify", "all", "--poset", poset)
    assert code == 0
    assert "pass" in out


def test_verify_json_output(write, capsys):
    poset = write("p.json", ANTICHAIN3)
    code, out, _ = run(capsys, "verify", "conjecture", "--poset", poset,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["reports"][0]["suite"] == "conjecture"
    assert "elapsed" not in data["reports"][0]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_rejects_a_tuple_given_as_poset(write, capsys, fmt):
    # a JSON array is read as JSON, not as a one-element text poset
    poset = write("t.json", [["t", "a", "b", "c"], ["a"]])
    code, out, err = run(capsys, "verify", "all", "--poset", poset,
                         "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "ParseError"
    else:
        assert (out, err.split(":")[0]) == ("", "error[ParseError]")


def test_verify_budget_error(write, capsys):
    poset = write("p.json", DIAMOND)
    code, out, err = run(capsys, "verify", "monoid", "--poset", poset,
                         "--exhaustive", "--budget", "10")
    assert code == 2
    assert "BudgetExceeded" in err


def test_verify_exhaustive_covers_associativity_triples(write, capsys):
    # 16 + 256 tuples fit the budget, 16^3 triples do not: never sampled
    poset = write("p.json", DIAMOND)
    code, out, err = run(capsys, "verify", "monoid", "--poset", poset,
                         "--exhaustive", "--budget", "1000")
    assert code == 2
    assert "BudgetExceeded" in err


def test_parse_error_text_mode(write, capsys):
    poset = write("p.json", '{"elements": [}')
    code, out, err = run(capsys, "dot", "--poset", poset)
    assert code == 2
    assert "ParseError" in err


def test_parse_error_json_mode(write, capsys):
    poset = write("p.json", '{"elements": [}')
    t = write("t.json", [["p"]])
    code, out, _ = run(capsys, "tset", "--poset", poset, "--tuple", t,
                       "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "ParseError"


def test_unknown_element_error_code(write, capsys):
    poset = write("p.json", ANTICHAIN3)
    t = write("t.json", [["nope"]])
    code, out, _ = run(capsys, "tset", "--poset", poset, "--tuple", t,
                       "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "UnknownElement"


@pytest.mark.parametrize("document", [[[["t"]]], [[{"x": 1}]]])
def test_non_string_leaf_is_parse_error(write, capsys, document):
    poset = write("p.json", DIAMOND)
    t = write("t.json", document)
    code, out, _ = run(capsys, "tset", "--poset", poset, "--tuple", t,
                       "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "ParseError"


CHAIN1_LINE = json.dumps({"elements": ["0", "1"], "relations": ["0 < 1"]})
BOM = "\ufeff".encode()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("poset, tuple_", [
    (BOM + CHAIN1_LINE.encode(), BOM + b'[["1"], ["0"]]'),
    (b"\xff\xfe0 < 1\n", b'[["1"], ["0"]]'),
    (CHAIN1_LINE.encode(), b'[["1"], ["\xe9"]]'),
    (CHAIN1_LINE.encode(), b"[" * 100_000 + b"]" * 100_000),
    (b'{"elements": ["\\ud800", "b"], "relations": []}', b'[["\\ud800"]]'),
    (CHAIN1_LINE.encode(), b'[["1"], ' + b"1" * 5000 + b"]"),
], ids=["byte-order-mark", "latin1-poset", "latin1-tuple", "deep-tuple",
        "lone-surrogate", "long-integer"])
def test_file_bytes_boundary(tmp_path, capsys, fmt, poset, tuple_):
    # a byte order mark is dropped; other bytes that are not UTF-8, JSON
    # nested past the parser's recursion limit, a label escaping a lone
    # surrogate (which UTF-8 cannot encode) and an integer literal past
    # CPython's 4300-digit conversion limit are ParseErrors
    def classify(poset, tuple_):
        (tmp_path / "p.json").write_bytes(poset)
        (tmp_path / "t.json").write_bytes(tuple_)
        return run(capsys, "classify", "--poset", str(tmp_path / "p.json"),
                   "--tuple", str(tmp_path / "t.json"), "--format", fmt)

    code, out, err = classify(poset, tuple_)
    if poset.startswith(BOM):
        assert code == 0
        assert (code, out, err) == classify(poset[len(BOM):],
                                            tuple_[len(BOM):])
        return
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "ParseError"
    else:
        assert err.startswith("error[ParseError]: ")


def test_verify_defaults_are_the_bounds_defaults(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli.verify, "run_suite",
                        lambda suite, posets, bounds: seen.append(bounds) or [])
    assert main(["verify", "all"]) == 0
    assert seen == [cli.verify.Bounds()]


def test_verify_classifier_needs_a_classified_poset(write, capsys):
    poset = write("p.json", TWO_CHAINS)
    code, out, err = run(capsys, "verify", "classifier", "--poset", poset)
    assert code == 2
    assert out == "" and err.startswith("error[ShapeMismatch]: ")
    # the other suites still run there, and all of them pass
    code, out, _ = run(capsys, "verify", "all", "--poset", poset,
                       "--format", "json")
    assert code == 0
    assert {r["suite"] for r in json.loads(out)["reports"]} == {
        "operator-laws", "monoid", "conjecture"}


@pytest.mark.parametrize("suite", ["conjecture", "classifier"])
def test_unrealized_family_is_a_property_failure(write, capsys, monkeypatch,
                                                 suite):
    # a family that no normal form realizes is a counterexample to the
    # theorem: it fails with its tuple (exit 1), and the run goes on
    poset = write("p.json", DIAMOND)
    code, out, _ = run(capsys, "verify", suite, "--poset", poset,
                       "--format", "json")
    assert code == 0
    (clean,) = json.loads(out)["reports"]
    real, calls = classify.classify_dim2, []

    def fails_once(P, F):
        calls.append(F)
        if len(calls) == 50:
            raise Inconsistent("family is not realized by any normal form")
        return real(P, F)

    monkeypatch.setattr(classify, "classify_dim2", fails_once)
    code, out, _ = run(capsys, "verify", suite, "--poset", poset,
                       "--format", "json")
    assert code == 1
    (report,) = json.loads(out)["reports"]
    assert len(calls) > 50 and report["cases"] == clean["cases"]
    (failure,) = report["failures"]
    assert failure["property"] == "family_realized"
    assert "not realized" in failure["actual"]
    assert failure["inputs"]["tuple"]


@pytest.mark.parametrize("bounds", [["monoid", "--max-k", "0"],
                                    ["operator-laws", "--max-k", "-3",
                                     "--budget", "-1"]])
def test_verify_rejects_non_positive_bounds(write, capsys, bounds):
    poset = write("p.json", DIAMOND)
    code, out, err = run(capsys, "verify", *bounds, "--poset", poset)
    assert code == 2
    assert "BadParameter" in err
    assert out == ""


def test_verify_rejects_max_k_past_the_cap(write, capsys, monkeypatch):
    # refused at the boundary: no suite starts
    monkeypatch.setattr(cli.verify, "run_suite", None)
    poset = write("p.json", DIAMOND)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "operator-laws", "--poset",
                             poset, "--max-k", str(cli.verify.MAX_K + 1),
                             "--format", fmt)
        assert code == 2
        if fmt == "json":
            assert json.loads(out)["error"]["code"] == "BadParameter"
        else:
            assert err.startswith("error[BadParameter]: max_k must be at")


def test_missing_tuple_is_usage_error(write, capsys):
    poset = write("p.json", ANTICHAIN3)
    code, _, err = run(capsys, "tset", "--poset", poset)
    assert code == 2
    assert err.startswith("error[BadParameter]: ")
    # the CLI's own usage errors, in JSON mode
    for argv in (["tset", "--poset", poset],
                 ["eq", "--poset", poset, "--tuple", poset],
                 ["tset", "--tuple", poset],
                 ["tset", "--poset", poset + ".missing", "--tuple", poset],
                 ["catalog", "emit"]):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 2
        assert err == ""
        assert json.loads(out)["error"]["code"] == "BadParameter"


def test_usage_error_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "verify", "nonsense")[0] == 2
    # argparse's own errors keep its usage text in text mode ...
    code, out, err = run(capsys, "verify", "monoid", "--max-k", "x")
    assert (code, out) == (2, "")
    assert err.startswith("usage: threadsets verify")
    assert "error: argument --max-k: invalid int value: 'x'" in err
    # ... and print the JSON error body on stdout in JSON mode
    for argv in (["tset", "--format", "json", "--bogus"],
                 ["verify", "monoid", "--max-k", "x", "--format", "json"],
                 ["verify", "nonsense", "--format=json"],
                 ["frobnicate", "--format", "json"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == ""
        error = json.loads(out)["error"]
        assert error["code"] == "BadParameter"
        assert error["message"]
    # an unusable --format value falls back to the usage text
    code, out, err = run(capsys, "tset", "--format", "xml")
    assert (code, out) == (2, "")
    assert "invalid choice: 'xml'" in err


def test_format_without_value_prints_usage(capsys):
    # no --format value to read back: the error takes argparse's text form
    code, out, err = run(capsys, "tset", "--format")
    assert (code, out) == (2, "")
    assert err.startswith("usage: threadsets tset")
    assert "argument --format: expected one argument" in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_zero_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: threadsets", *argv[:-1]]))


def _stdout_writers(tree: ast.AST) -> set[str]:
    """The functions of a module that name ``sys.stdout`` or call ``print``."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and node.attr == "stdout"
                        or isinstance(node, ast.Name) and node.id == "print"):
                    found.add(fn.name)
    return found


def test_only_emit_and_error_write_stdout():
    # the commands return their payload and text, and main writes them
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert _stdout_writers(tree) == {"_emit", "_error"}


def test_cycle_error_code(write, capsys):
    poset = write("p.json", {"elements": ["x", "y"],
                             "relations": ["x < y", "y < x"]})
    code, _, err = run(capsys, "dot", "--poset", poset)
    assert code == 2
    assert "CycleDetected" in err


# -- internal errors and fuzzing of main()

def _broken(P, t):
    raise RuntimeError("boom")


# The parser binds the _cmd_* functions when it is built, and main keeps
# one parser per process, so these patch a library name that _cmd_tset
# looks up at call time.
def test_internal_error_text_mode(write, capsys, monkeypatch):
    monkeypatch.setattr(cli, "thread_sets", _broken)
    poset = write("p.json", ANTICHAIN3)
    t = write("t.json", [["p"]])
    code, out, err = run(capsys, "tset", "--poset", poset, "--tuple", t)
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[InternalError]: RuntimeError: boom")
    assert "Traceback" not in err


def test_internal_error_json_mode(write, capsys, monkeypatch):
    monkeypatch.setattr(cli, "thread_sets", _broken)
    poset = write("p.json", ANTICHAIN3)
    t = write("t.json", [["p"]])
    code, out, err = run(capsys, "tset", "--poset", poset, "--tuple", t,
                         "--format", "json")
    assert code == 3
    assert err == ""
    error = json.loads(out)["error"]
    assert error["code"] == "InternalError"
    assert error["message"].startswith("RuntimeError: boom")


# -- one parser per process

def _calls(write) -> list[list[str]]:
    """Command lines whose order could carry state from one parse into the
    next: an ``append`` list, a usage error, a ``--format`` value."""
    poset = write("p.json", DIAMOND)
    first, second = write("a.json", [["t"]]), write("b.json", [["a"]])
    on = ["--poset", poset]
    return [
        ["eq", *on, "--tuple", first, "--tuple", second],
        ["tset", *on, "--tuple", first],
        ["tset", *on, "--tuple", first, "--bogus"],
        ["tset", *on, "--tuple", second],
        ["eq", *on, "--tuple", first, "--format", "json"],
        ["classify", *on, "--tuple", second, "--format", "json"],
        ["classify", *on, "--tuple", second],
        ["reduce", *on, "--tuple", first, "--format=json", "--bogus"],
        ["threads", *on, "--tuple", first],
        ["--help"],
        ["tset", "--help"],
        ["catalog", "emit", "chain", "2"],
        # verify's text reports carry their wall time, so JSON only here
        ["verify", "monoid", *on, "--max-k", "2", "--format", "json"],
        ["verify", "operator-laws", *on, "--format", "json", "--seed", "3"],
        ["dot", *on],
    ]


def test_shared_parser_matches_a_fresh_parser_per_call(write, capsys,
                                                       monkeypatch):
    calls = _calls(write)
    shared = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    monkeypatch.setattr(cli, "_format_probe", cli._format_probe.__wrapped__)
    fresh = [run(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [
        1, 0, 2, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]


def test_main_builds_one_parser(write, capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in _calls(write):
            run(capsys, *argv)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build() is not build()


def test_main_leaves_no_parser_for_the_collector(write, capsys):
    # Printing usage builds an argparse HelpFormatter, which is a reference
    # cycle of argparse's own, so --help and text-mode argparse errors stay
    # out; so does the first call, which builds the parsers.
    calls = [argv for argv in _calls(write) if "--help" not in argv
             and ("--bogus" not in argv or "--format=json" in argv)]
    for argv in calls:
        run(capsys, *argv)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in calls:
            run(capsys, *argv)
        gc.collect()
        left = {type(o).__name__ for o in gc.garbage
                if type(o).__module__ == "argparse"}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == set()


# -- tuple commands read without argparse

def _count_builds(monkeypatch) -> list:
    """One entry per parser that ``main`` builds from now on."""
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    return built


def _canonical_calls(write) -> list[list[str]]:
    """Every tuple command in both modes, with --format before, between and
    after the other options and left out, and --poset and --format given
    twice."""
    poset, other = write("p.json", DIAMOND), write("q.json", ANTICHAIN3)
    t, u = write("t.json", [["t", "a"], ["b", "m"]]), write("u.json", [["a"]])
    calls = [["dot", "--poset", poset], ["dot", "--poset", other,
                                         "--poset", poset]]
    for command in ("reduce", "threads", "tset", "classify", "eq"):
        tuples = ["--tuple", t, "--tuple", u] if command == "eq" else \
            ["--tuple", t]
        calls.append([command, "--poset", poset, *tuples])
        for fmt in ("text", "json"):
            calls += [
                [command, "--format", fmt, "--poset", poset, *tuples],
                [command, "--poset", poset, "--format", fmt, *tuples],
                [command, *tuples, "--poset", poset, "--format", fmt],
                [command, "--poset", other, *tuples, "--poset", poset,
                 "--format", "json" if fmt == "text" else "text",
                 "--format", fmt],
            ]
    return calls


def test_canonical_calls_build_no_parser(write, capsys, monkeypatch):
    calls = _canonical_calls(write)
    built = _count_builds(monkeypatch)
    try:
        codes = [run(capsys, *argv)[0] for argv in calls]
    finally:
        cli._parser.cache_clear()
    assert built == []
    assert set(codes) == {0, 1}  # eq decides "unequal"
    assert all(vars(cli._direct(argv)) ==
               vars(cli.build_parser().parse_args(argv)) for argv in calls)


def test_direct_reader_changes_no_output(write, capsys, monkeypatch):
    calls = _calls(write) + _canonical_calls(write)
    direct = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_direct", lambda argv: None)
    assert [run(capsys, *argv) for argv in calls] == direct


def test_main_reads_sys_argv_once(write, capsys, monkeypatch):
    argv = _canonical_calls(write)[-1]
    want = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["threadsets", *argv])
    built = _count_builds(monkeypatch)
    try:
        code = main()
    finally:
        cli._parser.cache_clear()
    assert (code, *capsys.readouterr()) == want
    assert built == []


@pytest.mark.parametrize("argv", [
    [], ["tset", "--poset", Path("p.json")], [Path("tset")],
    ["tset", "--poset"], ["dot", "--poset", "p.json", "--format", "json"],
    ["tset", "--format", "xml"], ["tset", "--poset=p.json"],
    ["tset", "--pos", "p.json"], ["tset", "--poset", "-p.json"],
    ["tset", "--", "--poset"], ["tset", "--help"],
    ["catalog", "list"], ["verify", "all"], ["--help", "tset"]])
def test_direct_reader_leaves_other_lines_to_argparse(argv):
    assert cli._direct(argv) is None


_COMMAND_NAMES = ["reduce", "threads", "tset", "eq", "classify", "dot",
                  "catalog", "verify"]
_PLAIN_PAIRS = [("--poset", "p.json"), ("--poset", ""), ("--tuple", "t.json"),
                ("--tuple", "a b"), ("--format", "text"), ("--format", "json")]
_OPTIONS = ["--poset", "--tuple", "--format"] * 4 + [
    "--pos", "--tup", "--form", "--f", "--poset=p.json", "--tuple=t.json",
    "--format=json", "-h", "--help", "--", "--bogus", "p.json"]
_VALUES = ["p.json", "", "text", "json", "xml", "dot", "TEXT", "x=y", "-",
           "-1", "-p", "--", "-h", "--help", "--poset", "--format=json",
           *_COMMAND_NAMES]


# weighted towards the lines that the direct reader takes, which are the
# ones compared
@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from([*cli._TUPLE_COMMANDS] * 3 + [
           *_COMMAND_NAMES, "--help", "-h", "--", "frobnicate"]),
       pairs=st.lists(st.sampled_from([True, True, True, False]).flatmap(
           lambda plain: st.sampled_from(_PLAIN_PAIRS) if plain else
           st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES))),
           max_size=4),
       cut=st.sampled_from([False, False, False, True]))
@example(command="tset", pairs=[("--poset", "-p")], cut=False)
@example(command="eq", pairs=[("--tuple", "-h")], cut=False)
def test_direct_reader_builds_argparses_namespace(command, pairs, cut):
    argv = [command, *(token for pair in pairs for token in pair)]
    if cut:  # a missing final value
        argv.pop()
    args = cli._direct(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


# -- one parse per distinct poset document

DIAMOND_TEXT = "a < t\nb < t\nm < a\nm < b\n"
CHAIN1 = {"elements": ["0", "1"], "relations": ["0 < 1"]}
ANTICHAIN2 = {"elements": ["0", "1"], "relations": []}
MALFORMED = '{"elements": [}'


def _counted_loads(monkeypatch) -> list[str]:
    """The texts that ``serialize.load_poset`` is called on from now."""
    seen = []
    load = cli.serialize.load_poset

    def counted(text):
        seen.append(text)
        return load(text)

    monkeypatch.setattr(cli.serialize, "load_poset", counted)
    return seen


def _cache_steps(tmp_path) -> list:
    """``main`` calls on poset files, each step a command line or a
    ``(name, bytes)`` file write; files are rewritten in place between
    calls."""
    def at(name):
        return str(tmp_path / name)

    diamond = dumps(DIAMOND).encode()
    on = ["--poset", at("p.json")]
    t, u, v = (["--tuple", at(name)] for name in ("t.json", "u.json",
                                                   "v.json"))
    return [
        ("p.json", diamond),
        ("t.json", dumps([["t", "a"], ["b", "m"]]).encode()),
        ("u.json", dumps([["a"]]).encode()),
        ("v.json", dumps([["1"], ["0"]]).encode()),
        ["reduce", *on, *t],
        ["threads", *on, *t],
        ["tset", *on, *t, "--format", "json"],
        ["eq", *on, *t, *u],
        ["classify", *on, *u, "--format", "json"],
        ["dot", *on],
        ["verify", "operator-laws", *on, "--format", "json"],
        # the same document under another path, and with a byte order
        # mark, which is dropped before the text is looked up
        ("q.json", diamond),
        ["tset", "--poset", at("q.json"), *t],
        ("bom.json", BOM + diamond),
        ["threads", "--poset", at("bom.json"), *t],
        # the same poset in the text form is another document
        ("d.txt", DIAMOND_TEXT.encode()),
        ["tset", "--poset", at("d.txt"), *t],
        # rewritten in place with another poset: the new answer
        ("r.json", dumps(CHAIN1).encode()),
        ["tset", "--poset", at("r.json"), *v],
        ("r.json", dumps(ANTICHAIN2).encode()),
        ["tset", "--poset", at("r.json"), *v],
        # malformed twice, then mended at the same path
        ("bad.json", MALFORMED.encode()),
        ["dot", "--poset", at("bad.json")],
        ["tset", "--poset", at("bad.json"), *t, "--format", "json"],
        ("bad.json", dumps(ANTICHAIN3).encode()),
        ["dot", "--poset", at("bad.json")],
    ]


def _run_steps(tmp_path, capsys, steps) -> list:
    triples = []
    for step in steps:
        if isinstance(step, tuple):
            (tmp_path / step[0]).write_bytes(step[1])
        else:
            triples.append(run(capsys, *step))
    return triples


def test_poset_cache_matches_a_parse_per_call(tmp_path, capsys, monkeypatch):
    steps = _cache_steps(tmp_path)
    cli._poset_of.cache_clear()
    loads = _counted_loads(monkeypatch)
    cached = _run_steps(tmp_path, capsys, steps)
    # five distinct valid texts (the diamond as JSON and as text, the chain,
    # the antichain it became, the mended file) and two malformed calls
    assert len(loads) == 5 + 2
    assert loads.count(MALFORMED) == 2
    monkeypatch.setattr(cli, "_poset_of", cli._poset_of.__wrapped__)
    uncached = _run_steps(tmp_path, capsys, steps)
    assert cached == uncached
    assert [code for code, _, _ in cached] == [
        0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0]
    rewritten = [out for _, out, _ in cached[10:12]]
    assert rewritten == ["{0, 1}\n", "(empty)\n"]


def test_verify_answers_the_same_on_a_warm_shared_poset(write, capsys):
    poset = write("p.json", DIAMOND)
    t = write("t.json", [["t", "a"], ["b", "m"]])
    suites = [["operator-laws"], ["monoid", "--max-k", "2"], ["conjecture"]]

    def verify(suite):
        return run(capsys, "verify", *suite, "--poset", poset,
                   "--format", "json")

    for suite in suites:
        cli._poset_of.cache_clear()
        cold = verify(suite)
        cli._poset_of.cache_clear()
        for command in ("reduce", "tset", "threads", "classify"):
            assert run(capsys, command, "--poset", poset, "--tuple", t)[0] == 0
        P = cli._poset_of(dumps(DIAMOND))
        assert all((P._down_sets, P._up_sets, P._floors, P._meeting))
        assert verify(suite) == cold
        assert cli._poset_of.cache_info().currsize == 1
        assert cold[0] == 0


def test_poset_cache_is_bounded(write, capsys, monkeypatch):
    kept = cli._POSETS_KEPT
    assert cli._poset_of.cache_info().maxsize == kept
    paths = [write(f"p{k}.json", {"elements": [f"e{i}" for i in range(k)],
                                   "relations": []})
             for k in range(1, kept + 2)]
    cli._poset_of.cache_clear()
    loads = _counted_loads(monkeypatch)
    for path in paths:
        assert run(capsys, "dot", "--poset", path)[0] == 0
    assert cli._poset_of.cache_info().currsize == kept
    assert len(loads) == kept + 1
    run(capsys, "dot", "--poset", paths[-1])
    assert len(loads) == kept + 1
    run(capsys, "dot", "--poset", paths[0])
    assert len(loads) == kept + 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_empty_tuple_path_is_bad_parameter(write, capsys, fmt):
    poset = write("p.json", DIAMOND)
    code, out, err = run(capsys, "tset", "--poset", poset, "--tuple", "",
                         "--format", fmt)
    assert code == 2
    if fmt == "json":
        error = json.loads(out)["error"]
        assert error["code"] == "BadParameter"
        assert error["message"].startswith("cannot read : ")
    else:
        assert out == ""
        assert err.startswith("error[BadParameter]: cannot read : ")


# -- files are read as bytes and decoded as text mode decoded them

def _error_output(fmt: str, code: str, message: str) -> tuple[str, str]:
    """The (stdout, stderr) of an error reported by ``main``."""
    if fmt == "json":
        return dumps({"error": {"code": code, "message": message}}), ""
    return "", f"error[{code}]: {message}\n"


# documents with line breaks, written with "\n" line ends; the malformed
# ones report a line and column that depend on the line ends
_POSET_DOCUMENTS = ["# the diamond\na < t\nb < t\nm < a\nm < b\n",
                    dumps(DIAMOND), "a < t\nb < t\nm <\n",
                    '{\n"elements": ["t",\n}\n',
                    '{"elements": ["a\nb"],\n "relations": []}\n']
_TUPLE_DOCUMENTS = [dumps([["t", "a"], ["b", "m"]]), '[["t"],\n["a",\n']


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
@pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_read_as_newlines(tmp_path, capsys, fmt, bom, line_end):
    # text mode read "\r\n" and a lone "\r" as "\n", so a file with either
    # line end gives the output of the same file with "\n" line ends
    poset, t = tmp_path / "p.json", tmp_path / "t.json"
    argv = ["tset", "--poset", str(poset), "--tuple", str(t), "--format", fmt]
    cases = ([(poset, doc, t, _TUPLE_DOCUMENTS[0]) for doc in _POSET_DOCUMENTS]
             + [(t, doc, poset, dumps(DIAMOND)) for doc in _TUPLE_DOCUMENTS])
    codes = []
    for path, doc, other, other_doc in cases:
        other.write_text(other_doc, encoding="utf-8")
        path.write_bytes(bom + doc.replace("\n", line_end).encode())
        got = run(capsys, *argv)
        path.write_bytes(doc.encode())
        assert got == run(capsys, *argv), doc
        codes.append(got[0])
    assert codes == [0, 0, 2, 2, 2, 0, 2]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("which", ["--poset", "--tuple"])
@pytest.mark.parametrize("data", [b"\xef\xbb", b"\xef"],
                         ids=["two-bytes", "one-byte"])
def test_truncated_byte_order_mark_is_parse_error(tmp_path, write, capsys,
                                                  fmt, which, data):
    files = {"--poset": write("p.json", DIAMOND),
             "--tuple": write("t.json", [["t"]])}
    (tmp_path / "bad.json").write_bytes(data)
    files[which] = bad = str(tmp_path / "bad.json")
    argv = ["tset", "--poset", files["--poset"], "--tuple", files["--tuple"]]
    code, out, err = run(capsys, *argv, "--format", fmt)
    message = f"{bad} is not UTF-8: unexpected end of data at byte 0"
    assert (code, out, err) == (2, *_error_output(fmt, "ParseError", message))
    if which == "--poset":
        # not an empty poset: no empty graph, and no suite passes on it
        assert run(capsys, "dot", "--poset", bad) == (
            2, *_error_output("text", "ParseError", message))
        code, out, err = run(capsys, "verify", "monoid", "--poset", bad,
                             "--format", fmt)
        assert (code, out, err) == (2, *_error_output(fmt, "ParseError",
                                                      message))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_read_errors_keep_their_messages(tmp_path, write, capsys, fmt):
    poset = write("p.json", DIAMOND)
    latin1 = tmp_path / "latin1.json"
    missing = str(tmp_path / "missing.json")
    # the offset counts the bytes after a byte order mark
    for data, reason in [(b'[["t"], ["\xe9"]]', "invalid continuation byte "
                                                "at byte 10"),
                         (b"\xff[]", "invalid start byte at byte 0")]:
        for bom in (b"", BOM):
            latin1.write_bytes(bom + data)
            got = run(capsys, "tset", "--poset", poset, "--tuple",
                      str(latin1), "--format", fmt)
            assert got == (2, *_error_output(
                fmt, "ParseError", f"{latin1} is not UTF-8: {reason}"))
    for path, message in [
            (missing, f"cannot read {missing}: [Errno 2] No such file or "
                      f"directory: '{missing}'"),
            (str(tmp_path), f"cannot read {tmp_path}: [Errno 21] Is a "
                            f"directory: '{tmp_path}'"),
            ("", "cannot read : [Errno 2] No such file or directory: ''")]:
        got = run(capsys, "tset", "--poset", poset, "--tuple", path,
                  "--format", fmt)
        assert got == (2, *_error_output(fmt, "BadParameter", message))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_read_loops_to_the_end_of_a_pipe(tmp_path, write, capsys):
    # a pipe has no size to read by: the read must loop until the writer
    # closes, across the pause between its two chunks
    poset = write("p.json", DIAMOND)
    document = dumps([["t", "a"], ["b", "m"], ["a", "b"]]).encode()
    argv = ["tset", "--poset", poset, "--tuple"]
    want = run(capsys, *argv, write("t.json", document.decode()),
               "--format", "json")
    assert want[0] == 0
    fifo = str(tmp_path / "t.fifo")
    os.mkfifo(fifo)
    half = len(document) // 2

    def writer():
        with open(fifo, "wb", buffering=0) as f:
            f.write(document[:half])
            time.sleep(0.05)
            f.write(document[half:])

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        got = run(capsys, *argv, fifo, "--format", "json")
    finally:
        thread.join(timeout=10)
        if thread.is_alive():  # main never opened the pipe: release the writer
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            thread.join()
    assert got == want


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd to count descriptors in")
def test_reads_leave_no_descriptor_open(tmp_path, write, capsys):
    poset = write("p.json", DIAMOND)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'[["t"], ["\xe9"]]')
    inputs = [(write("t.json", [["t", "a"], ["b", "m"]]), 0),
              (str(tmp_path / "missing.json"), 2), (str(tmp_path), 2),
              (str(latin1), 2)]
    before = len(os.listdir("/proc/self/fd"))
    for j in range(200):
        path, code = inputs[j % len(inputs)]
        assert run(capsys, "tset", "--poset", poset, "--tuple", path,
                   "--format", ("text", "json")[j // 4 % 2])[0] == code
    assert len(os.listdir("/proc/self/fd")) == before


def test_main_builds_only_the_format_it_writes(write, capsys, monkeypatch):
    # reduce's text alone calls tuple_text, and its payload alone
    # tuple_to_lists: breaking one leaves the other format's bytes as they were
    poset = write("p.json", DIAMOND)
    t = write("t.json", [["t", "a"], ["b", "m"]])
    argv = ["reduce", "--poset", poset, "--tuple", t, "--format"]
    want = {fmt: run(capsys, *argv, fmt) for fmt in ("text", "json")}
    assert [code for code, _, _ in want.values()] == [0, 0]
    monkeypatch.setattr(cli, "tuple_text", _broken)
    assert run(capsys, *argv, "json") == want["json"]
    assert run(capsys, *argv, "text")[0] == 3
    monkeypatch.undo()
    monkeypatch.setattr(cli.serialize, "tuple_to_lists", _broken)
    assert run(capsys, *argv, "text") == want["text"]
    assert run(capsys, *argv, "json")[0] == 3


def test_valid_calls_leave_nothing_for_the_collector(write, capsys):
    # the emitter leaves no reference cycle, and neither does a command
    poset = write("p.json", DIAMOND)
    t, u = write("t.json", [["t", "a"], ["b", "m"]]), write("u.json", [["a"]])
    on = ["--poset", poset]
    calls = [["dot", *on]]
    for fmt in ("text", "json"):
        calls += [[command, *on, "--tuple", t, "--format", fmt]
                  for command in ("reduce", "threads", "tset", "classify")]
        calls += [["eq", *on, "--tuple", t, "--tuple", second,
                   "--format", fmt] for second in (t, u)]
    for argv in calls:
        assert run(capsys, *argv)[0] in (0, 1)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in calls:
            run(capsys, *argv)
        gc.collect()
        left = sorted(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []

_NAMES = st.sampled_from(["a", "b", "c", "zz"])
_ABC = st.sampled_from(["a", "b", "c"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def _mostly(valid, junk):
    """Three draws in four from ``valid``, the rest from ``junk``."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: valid if ok else junk)


_VALID_POSETS = st.builds(
    lambda rels: {"elements": ["a", "b", "c"], "relations": rels},
    st.lists(st.builds("{} < {}".format, _ABC, _ABC), max_size=2))
_BAD_POSETS = st.builds(
    lambda els, rels: {"elements": els, "relations": rels},
    st.lists(_NAMES, max_size=3),
    st.lists(st.builds("{} < {}".format, _NAMES, _NAMES), max_size=2))
_POSETS = _mostly(_VALID_POSETS, st.one_of(
    st.none(), _BAD_POSETS, _JSON, st.text(max_size=12)))
# at most 3 elements: a text poset names one element per line, and one
# line names at most two
_SMALL_POSETS = _mostly(_VALID_POSETS, st.one_of(
    _BAD_POSETS, _JSON, st.text(alphabet="ab <#{}[]\",:", max_size=12)))
_TUPLES = _mostly(
    st.lists(st.lists(_ABC, max_size=3, unique=True), min_size=1, max_size=4),
    st.one_of(st.lists(st.lists(_NAMES, max_size=3), max_size=4),
              st.builds(lambda gens: {"generators": gens},
                        st.lists(st.lists(_ABC, max_size=2), max_size=3)),
              _JSON, st.text(max_size=12)))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["reduce", "threads", "tset", "eq",
                                "classify", "verify"]),
       data=st.data(),
       tuples=st.lists(_TUPLES, min_size=1, max_size=2),
       fmt=st.sampled_from(["text", "json"]),
       suite=st.sampled_from(["all", "operator-laws", "monoid",
                              "conjecture", "classifier"]),
       max_k=st.one_of(st.integers(min_value=-3, max_value=2),
                       st.integers(min_value=cli.verify.MAX_K + 1)),
       budget=st.integers(min_value=-1, max_value=64))
def test_main_fuzz_exits_cleanly(tmp_path, command, data, tuples, fmt, suite,
                                 max_k, budget):
    def write(name, document):
        path = tmp_path / name
        text = document if isinstance(document, str) else json.dumps(document)
        path.write_text(text, encoding="utf-8")
        return str(path)

    argv = [command]
    if command == "verify":
        # always a poset of at most 3 elements: without one, verify runs
        # the whole default corpus
        poset = data.draw(_SMALL_POSETS)
        argv += [suite, "--max-k", str(max_k), "--budget", str(budget)]
    else:
        poset = data.draw(_POSETS)
        for i, t in enumerate(tuples):
            argv += ["--tuple", write(f"tuple{i}.json", t)]
    if poset is not None:
        argv += ["--poset", write("poset.json", poset)]
    argv += ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # 1 is reserved for a property failure, which only eq may report here
    assert code in ({0, 1, 2} if command == "eq" else {0, 2})
    assert "Traceback" not in err.getvalue()
    if code == 2 and fmt == "json":
        assert "code" in json.loads(out.getvalue())["error"]


def _python_m(*argv: str) -> subprocess.CompletedProcess:
    """``python -m threadsets`` in a child process, the package from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "threadsets", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_process_exit_status(write):
    listed = _python_m("catalog", "list", "--format", "json")
    assert listed.returncode == 0
    assert "torus2" in json.loads(listed.stdout)["entries"]

    poset = write("p.json", DIAMOND)
    first, second = write("a.json", [["t"]]), write("b.json", [["a"]])
    unequal = _python_m("eq", "--poset", poset, "--tuple", first,
                        "--tuple", second)
    assert unequal.returncode == 1
    assert unequal.stdout.startswith("unequal: ")

    missing = _python_m("tset", "--tuple", first, "--format", "json")
    assert missing.returncode == 2
    assert json.loads(missing.stdout)["error"]["code"] == "BadParameter"
    for done in (listed, unequal, missing):
        assert "Traceback" not in done.stderr

from __future__ import annotations

import json

import pytest

from threadsets.cli import main
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


def test_catalog_emit_json(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "torus2", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["poset"]["elements"] == ["T2", "S1", "S2", "F1", "F2", "e"]
    assert data["tuples"]["reduced"] == [["S1", "S2"], ["F1", "F2", "e"]]


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


def test_verify_budget_error(write, capsys):
    poset = write("p.json", DIAMOND)
    code, out, err = run(capsys, "verify", "monoid", "--poset", poset,
                         "--exhaustive", "--budget", "10")
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


@pytest.mark.parametrize("bounds", [["monoid", "--max-k", "0"],
                                    ["operator-laws", "--max-k", "-3",
                                     "--budget", "-1"]])
def test_verify_rejects_non_positive_bounds(write, capsys, bounds):
    poset = write("p.json", DIAMOND)
    code, out, err = run(capsys, "verify", *bounds, "--poset", poset)
    assert code == 2
    assert "BadParameter" in err
    assert out == ""


def test_missing_tuple_is_usage_error(write, capsys):
    poset = write("p.json", ANTICHAIN3)
    code, _, err = run(capsys, "tset", "--poset", poset)
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "verify", "nonsense")[0] == 2


def test_cycle_error_code(write, capsys):
    poset = write("p.json", {"elements": ["x", "y"],
                             "relations": ["x < y", "y < x"]})
    code, _, err = run(capsys, "dot", "--poset", poset)
    assert code == 2
    assert "CycleDetected" in err

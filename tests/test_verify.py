from __future__ import annotations

import gc
import hashlib
import random
from dataclasses import fields
from itertools import product

import pytest

from threadsets import verify
from threadsets.catalog import catalog
from threadsets.errors import BadParameter, BudgetExceeded
from threadsets.families import ChainFamily, chains_meeting
from threadsets.poset import build_poset
from threadsets.serialize import dumps, tuple_to_lists
from threadsets.verify import (SAMPLES, Bounds, Failure, _all_tuples,
                               _associativity, _decode_tuple, _Session,
                               all_posets, deepened, default_corpus,
                               labeled_corpus, run_suite, verify_classifier,
                               verify_conjecture, verify_operator_laws,
                               verify_thread_monoid)


def test_all_posets_counts():
    assert [len(all_posets(n)) for n in range(5)] == [1, 1, 3, 19, 219]


def test_all_posets_are_valid():
    for P in all_posets(3):
        for j in range(P.n):
            down = P.down[j]
            assert down >> j & 1
            for i in range(P.n):
                if down >> i & 1:
                    assert P.down[i] & ~down == 0


def test_operator_suite_passes(diamond):
    report = verify_operator_laws(diamond, Bounds(max_k=2))
    assert report.passed
    assert report.mode == "exhaustive"
    # exactly (2^n)^1 + (2^n)^2 tuples
    assert report.cases == 16 + 256


def test_operator_suite_depth_three(diamond, two_chains):
    # exhaustive k <= 3 on every small poset and a slice of the 4-element ones
    selection = [P for n in range(4) for P in all_posets(n)]
    selection += all_posets(4)[::20] + [diamond, two_chains]
    for P in selection:
        report = verify_operator_laws(P, Bounds(max_k=3))
        assert report.passed, report.to_text()
        assert report.mode == "exhaustive"


def test_monoid_suite_passes(diamond):
    report = verify_thread_monoid(diamond, Bounds(max_k=2))
    assert report.passed
    assert report.details["associativity_triples"] == 16 ** 3


def test_conjecture_suite_buckets_on_antichain(antichain3):
    report = verify_conjecture(antichain3, Bounds(max_k=2))
    assert report.passed
    assert report.details["shape"] == "Dim0"
    # buckets are exactly indexed by the intersection of the parts
    assert report.details["buckets"] == 2 ** 3


def test_conjecture_suite_on_unsupported_shape(two_chains):
    report = verify_conjecture(two_chains, Bounds(max_k=2))
    assert report.passed
    assert report.details["shape"] == "Finite"
    assert report.details["buckets"] > 0


def test_classifier_suite_passes(diamond, monkeypatch):
    def refuse(P, parts):
        raise AssertionError("the classifier suite reads families only")

    monkeypatch.setattr(verify, "canonical", refuse)
    report = verify_classifier(diamond)
    assert report.passed
    assert report.cases == 71 + 1  # instances plus the Zero round-trip


def test_budget_exceeded_when_forced(diamond):
    with pytest.raises(BudgetExceeded):
        verify_operator_laws(diamond, Bounds(max_k=2, budget=10,
                                             exhaustive=True))


def test_forced_exhaustive_never_samples_triples(chain2):
    # the 8 + 64 tuples fit the budget, the 8^3 associativity triples do not
    with pytest.raises(BudgetExceeded, match="triples"):
        verify_thread_monoid(chain2, Bounds(budget=100, exhaustive=True))
    report = verify_thread_monoid(chain2, Bounds(budget=100))
    assert report.mode == "exhaustive"
    assert report.details["associativity_triples"] == SAMPLES


def test_sampled_mode_is_deterministic(diamond):
    bounds = Bounds(max_k=2, budget=10, seed=7)
    first = verify_operator_laws(diamond, bounds)
    second = verify_operator_laws(diamond, bounds)
    assert first.mode == second.mode == "sampled"
    assert first.seed == second.seed == 7
    assert first.cases == SAMPLES
    assert first.to_dict() == second.to_dict()


def test_bounds_fields():
    assert [f.name for f in fields(Bounds)] == ["max_k", "budget",
                                                "exhaustive", "seed"]


@pytest.mark.parametrize("field", ["max_k", "budget"])
def test_bounds_reject_non_positive(field):
    for value in (0, -3):
        with pytest.raises(BadParameter):
            Bounds(**{field: value})


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("lengths", [range(1, 4), range(3, 4)])
def test_decoder_covers_the_tuple_space(n, lengths):
    # one decoder serves the tuple corpus and the associativity triples
    space = sum((1 << n) ** k for k in lengths)
    decoded = [_decode_tuple(i, n, lengths) for i in range(space)]
    expected = list(_all_tuples(n, lengths))
    assert len(decoded) == len(expected) == len(set(expected))
    assert sorted(decoded) == sorted(expected)


def test_decoder_reaches_every_length_on_the_empty_poset():
    assert [_decode_tuple(i, 0, range(1, 4)) for i in range(3)] == [
        (0,), (0, 0), (0, 0, 0)]


def test_failure_records_carry_inputs(diamond):
    session = _Session("demo", diamond, Bounds())
    session.check("some_property", 1, 2, {"tuple": [["a"]]})
    report = session.report()
    assert not report.passed
    assert report.failure_count == 1
    failure = report.failures[0]
    assert isinstance(failure, Failure)
    assert failure.to_dict() == {"property": "some_property",
                                 "inputs": {"tuple": [["a"]]},
                                 "expected": "1", "actual": "2"}
    assert report.to_dict()["poset"]["elements"] == ["t", "a", "b", "m"]


def test_report_text_lists_failures_up_to_the_cap(diamond):
    session = _Session("demo", diamond, Bounds())
    for i in range(verify.FAILURE_CAP + 2):
        session.fail("some_property", i, -i, {"case": i})
    lines = session.report().to_text().splitlines()
    assert lines[0].startswith(
        f"[FAIL ({verify.FAILURE_CAP + 2})] demo on poset:t,a,b,m: 0 cases")
    assert lines[1] == "  some_property: expected 0, got 0 on {'case': 0}"
    assert len(lines) == 1 + verify.FAILURE_CAP + 1
    assert lines[-1] == "  ... 2 further failures not shown"


def test_monoid_suite_lists_chains_only_within_the_budget(monkeypatch):
    # a chain on n elements has 2^n - 1 chains: past the budget the suite
    # must not enumerate them
    def refuse(self):
        raise AssertionError("Poset.chains called")

    P = catalog("chain", 9).poset
    monkeypatch.setattr(type(P), "chains", refuse)
    report = verify_thread_monoid(P, Bounds(budget=100))
    assert report.passed and report.mode == "sampled"


def _union(F: ChainFamily) -> int:
    out = 0
    for g in F.generators:
        out |= g
    return out


@pytest.mark.parametrize("budget", [1 << 20, 100])
def test_associativity_failures_map_back_to_families(chain2, monkeypatch,
                                                     budget):
    # set difference of the supports is not associative: (a-b)-c misses
    # a&c, which a-(b-c) keeps
    calls = []

    def difference(P, U, V):
        calls.append((U, V))
        return chains_meeting(P, _union(U) & ~_union(V))

    monkeypatch.setattr(verify, "compose", difference)
    bounds = Bounds(budget=budget, seed=5)
    session = _Session("monoid", chain2, bounds)
    _associativity(session)
    report = session.report()

    size = 1 << chain2.n
    if size ** 3 <= budget:
        triples = list(product(range(size), repeat=3))
    else:
        rng = random.Random(bounds.seed)
        triples = [_decode_tuple(rng.randrange(size ** 3), chain2.n,
                                 range(3, 4)) for _ in range(SAMPLES)]
    assert report.cases == report.details["associativity_triples"] \
        == len(triples)
    pairs, failing = set(), []
    for a, b, c in triples:
        A, B, C = (chains_meeting(chain2, m) for m in (a, b, c))
        AB, BC = difference(chain2, A, B), difference(chain2, B, C)
        left, right = difference(chain2, AB, C), difference(chain2, A, BC)
        pairs |= {(A, B), (AB, C), (B, C), (A, BC)}
        if left != right:
            failing.append(((a, b, c), left, right))
    calls_by_check = len(calls) - 4 * len(triples)
    # each distinct pair of families is composed exactly once
    assert calls_by_check == len(pairs)

    assert failing and report.failure_count == len(failing)
    assert {f.prop for f in report.failures} == {"compose_associative"}
    for failure, (subsets, left, right) in zip(report.failures, failing):
        assert failure.expected == repr(left)
        assert failure.actual == repr(right)
        assert failure.expected.startswith("ChainFamily<")
        assert failure.inputs == {"subsets": [list(chain2.labels(m))
                                              for m in subsets]}


def test_tables_hold_at_most_one_entry_per_subset():
    P = catalog("torus2", 2).poset
    run_suite("all", [("torus2(2)", P)])
    for table in (P._down_sets, P._up_sets, P._floors, P._meeting):
        assert table and all(0 <= mask <= P.full for mask in table)
        assert len(table) <= 1 << P.n
    for a in range(1 << P.n):
        assert chains_meeting(P, a) is chains_meeting(P, a)


def test_corpus_failure_inputs_are_the_labeled_tuple(chain1, monkeypatch):
    monkeypatch.setattr(verify, "collapse", lambda t: t + t)
    report = verify_operator_laws(chain1, Bounds(max_k=1))
    tuples = [(m,) for m in range(1 << chain1.n)]
    recorded = [f.inputs for f in report.failures
                if f.prop == "collapse_idempotent"]
    assert recorded == [{"tuple": tuple_to_lists(chain1, t)} for t in tuples]
    assert all(isinstance(f.inputs, dict) for f in report.failures)


def test_passing_run_builds_no_failure_inputs(diamond, monkeypatch):
    def unused(P, parts):
        raise AssertionError("failure inputs built for a passing case")

    monkeypatch.setattr(verify, "tuple_to_lists", unused)
    for suite in (verify_operator_laws, verify_thread_monoid,
                  verify_conjecture, verify_classifier):
        assert suite(diamond, Bounds(max_k=2)).passed


def test_report_json_omits_elapsed(diamond):
    report = verify_classifier(diamond)
    assert "elapsed" not in report.to_dict()
    assert "s" in report.to_text()


def test_run_suite_all_on_tiny_corpus():
    corpus = labeled_corpus(2)
    reports = run_suite("all", corpus, Bounds(max_k=2))
    assert all(r.passed for r in reports)
    suites = {r.suite for r in reports}
    assert suites == {"operator-laws", "monoid", "conjecture", "classifier"}


def test_run_suite_leaves_no_cycle():
    """A passing run frees its posets, tables and families by reference
    counting alone: nothing waits for the cycle collector."""
    corpus = [("diamond", catalog("diamond", 2).poset),
              ("star", catalog("star", 2).poset)]
    gc.collect()
    gc.disable()
    try:
        reports = run_suite("all", corpus, Bounds(max_k=2))
        assert all(r.passed for r in reports)
        del corpus, reports
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_explicit_posets_keep_given_bounds():
    P = build_poset(["x", "y"], [("x", "y")])
    reports = run_suite("operator-laws", [("tiny", P)], Bounds(max_k=2))
    assert reports[0].cases == 4 + 16


def test_default_corpus_deepens_small_posets():
    P = build_poset(["x", "y"], [("x", "y")])
    deeper = deepened(Bounds(max_k=2), P)
    assert deeper.max_k == 3
    report = verify_operator_laws(P, deeper)
    assert report.cases == 4 + 16 + 64
    # explicit larger bounds are never reduced
    assert deepened(Bounds(max_k=4), P).max_k == 4


def test_default_corpus_contents():
    names = [name for name, _ in default_corpus()]
    assert "torus2(2)" in names and "zariski_xy(2, 2)" in names
    assert sum(1 for n in names if n.startswith("labeled-")) == 243


def test_catalog_posets_pass_monoid_suite():
    for name, params in [("zariski_xy", (2, 2)), ("torus2", (2,))]:
        P = catalog(name, *params).poset
        report = verify_thread_monoid(P, Bounds(max_k=2))
        assert report.passed, report.to_text()


def test_reports_are_pinned():
    # the bytes of passing reports depend only on the inputs and the seed;
    # the corpus has exhaustive tuples and triples (labeled n <= 2),
    # exhaustive tuples with sampled triples (chain(2) at budget 100),
    # sampled tuples and triples (diamond(2) at budget 10), and the
    # classifier on all three classified shapes
    chain, diamond = (catalog(name, 2).poset for name in ("chain", "diamond"))
    reports = (run_suite("all", labeled_corpus(2), Bounds(max_k=2))
               + run_suite("all", [("chain(2)", chain)], Bounds(budget=100))
               + run_suite("all", [("diamond(2)", diamond)],
                           Bounds(budget=10, seed=3)))
    text = dumps([r.to_dict() for r in reports])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5bf912a225d9419d14403227d980fcc6ee90cc5bda62994d053cceb25b7b0479")

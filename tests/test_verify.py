from __future__ import annotations

import gc
import json
import random
from collections import Counter
from dataclasses import fields
from itertools import product
from pathlib import Path

import pytest

from oracles import brute_all_posets
from threadsets import tuples, verify
from threadsets.catalog import catalog
from threadsets.classify import NormalForm, classify_family
from threadsets.errors import (BadParameter, BudgetExceeded, Inconsistent,
                               ShapeMismatch)
from threadsets.families import (ChainFamily, chains_meeting, compose,
                                 minimize, thread_sets)
from threadsets.poset import Poset, build_poset
from threadsets.serialize import dumps, tuple_to_lists
from threadsets.tuples import collapse, prune_downward, prune_to_threads
from threadsets.verify import (MAX_K, SAMPLES, Bounds, VerificationReport,
                               _all_tuples, _associativity, _decode_tuple,
                               all_posets, deepened, default_corpus,
                               labeled_corpus, run_suite,
                               verify_classifier, verify_conjecture,
                               verify_operator_laws, verify_thread_monoid)


def test_all_posets_counts():
    # OEIS A001035
    assert [len(all_posets(n)) for n in range(6)] == [1, 1, 3, 19, 219, 4231]


@pytest.mark.parametrize("n", range(5))
def test_all_posets_match_the_relation_mask_scan(n):
    # the same labeled posets in the same order as the 2^(n(n-1)) scan
    assert [(P.elements, P.down) for P in all_posets(n)] == [
        (P.elements, P.down) for P in brute_all_posets(n)]


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


def test_operator_suite_checks_the_library_thread_prune(diamond, monkeypatch):
    # a thread prune that skips the upward pass disagrees with the other
    # prune order and with the thread walk on every tuple it changes
    monkeypatch.setattr(verify, "prune_to_threads", prune_downward)
    report = verify_operator_laws(diamond, Bounds(max_k=2))
    changed = sum(prune_downward(diamond, t) != prune_to_threads(diamond, t)
                  for t in _all_tuples(diamond.n, range(1, 3)))
    assert changed == 93
    failed = report.failures_by_property
    assert failed["prune_order_commutes"] == changed
    assert failed["thread_prune_matches_direct"] == changed


def test_operator_suite_holds_canonical_to_the_composite(diamond,
                                                        monkeypatch):
    # a canonical that prunes to the threads but does not collapse differs
    # from collapse(prune_to_threads(t)) on every tuple whose thread prune
    # has adjacent comparable parts, the empty ones included
    monkeypatch.setattr(verify, "canonical", prune_to_threads)
    report = verify_operator_laws(diamond, Bounds(max_k=2))
    uncollapsed = sum(
        collapse(prune_to_threads(diamond, t)) != prune_to_threads(diamond, t)
        for t in _all_tuples(diamond.n, range(1, 3)))
    assert uncollapsed == 196
    assert report.failures_by_property == {
        "canonical_is_collapsed_thread_prune": uncollapsed}


@pytest.mark.parametrize("faulty", [False, True], ids=["real", "faulty"])
def test_run_suite_checks_collapse_laws_once_per_tuple(faulty, monkeypatch):
    # the posets of labeled_corpus(3) share their tuples: run_suite checks
    # collapse's poset-free laws once per distinct tuple that passes them,
    # and every report equals the one of a direct call, failing ones too
    if faulty:  # leaves tuples that start with {p0} uncollapsed
        monkeypatch.setattr(verify, "collapse",
                            lambda t: t if t[0] == 1 else collapse(t))
    removals, probes = verify._collapse_by_removals, []

    def probe(t):
        probes.append(t)
        return removals(t)

    monkeypatch.setattr(verify, "_collapse_by_removals", probe)
    corpus, bounds = labeled_corpus(3), Bounds(max_k=3)
    attributes = set(vars(verify))
    reports = run_suite("operator-laws", corpus, bounds)
    assert set(vars(verify)) == attributes  # the table lives in the run
    probed_in_run = len(probes)
    probes.clear()
    alone = [verify_operator_laws(P, bounds, name) for name, P in corpus]
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in alone]
    assert ([r.failures_by_property for r in reports]
            == [r.failures_by_property for r in alone])
    assert len(probes) == sum(r.cases for r in alone)
    seen = Counter(probes)
    assert len(seen) == 584  # every tuple of length <= 3 over 3 elements
    # a tuple that fails is probed on every poset, one that holds once
    failing = {t for t in seen if faulty and t[0] == 1 and collapse(t) != t}
    assert probed_in_run == len(seen) + sum(seen[t] - 1 for t in failing)
    if faulty:
        assert 0 < sum(not r.passed for r in reports) < len(reports)
        assert all(r.failures_by_property["collapse_collapses"]
                   == sum(t in failing for t in _all_tuples(P.n, range(1, 4)))
                   for r, (_, P) in zip(reports, corpus))
    else:
        assert all(r.passed for r in reports)


def test_canonical_calls_no_reduction_operator(diamond, two_chains,
                                               monkeypatch):
    # canonical is a kernel of its own: it equals the composite of the
    # reduction operators without calling any of them
    cases = [(P, t) for P in (diamond, two_chains)
             for t in _all_tuples(P.n, range(1, 4))]
    expected = [collapse(prune_to_threads(P, t)) for P, t in cases]

    def refuse(*args):
        raise AssertionError("canonical called a reduction operator")

    for name in ("prune_upward", "prune_downward", "prune_to_threads",
                 "collapse"):
        monkeypatch.setattr(tuples, name, refuse)
    assert [tuples.canonical(P, t) for P, t in cases] == expected


def test_monoid_suite_checks_that_the_prunes_keep_thread_sets(diamond,
                                                              monkeypatch):
    # a downward prune that empties the last part loses every thread
    monkeypatch.setattr(verify, "prune_downward", lambda P, t: t[:-1] + (0,))
    report = verify_thread_monoid(diamond, Bounds(max_k=2))
    threaded = sum(not thread_sets(diamond, t).is_empty()
                   for t in _all_tuples(diamond.n, range(1, 3)))
    assert threaded == 219
    assert report.failures_by_property == {
        "prune_downward_keeps_thread_sets": threaded}


def test_monoid_suite_checks_thread_sets_against_the_walk(diamond,
                                                          monkeypatch):
    # a walk that drops its last thread changes the minimal supports of
    # some tuples, and each of them must fail: the walk is also the
    # reference that canonical and both prunes keep
    walk = verify.threads

    def short(P, t):
        return list(walk(P, t))[:-1]

    monkeypatch.setattr(verify, "threads", short)
    report = verify_thread_monoid(diamond)
    expected = sum(minimize({support for _, support in short(diamond, t)})
                   != thread_sets(diamond, t)
                   for t in _all_tuples(diamond.n, range(1, 3)))
    assert expected
    assert report.failures_by_property == {
        "thread_sets_decompose": expected,
        "canonical_preserves_thread_sets": expected,
        "prune_upward_keeps_thread_sets": expected,
        "prune_downward_keeps_thread_sets": expected}


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


@pytest.mark.parametrize("poset", ["diamond", "star2"])
def test_conjecture_suite_classifies_each_family_once(poset, request,
                                                      monkeypatch):
    P = request.getfixturevalue(poset)
    calls = []

    def counted(P, F):
        calls.append(F)
        return classify_family(P, F)

    monkeypatch.setattr(verify, "classify_family", counted)
    report = verify_conjecture(P, Bounds(max_k=2))
    assert report.passed
    assert len(calls) == len(set(calls)) == report.details["buckets"]


def test_conjecture_suite_fails_every_tuple_of_an_unrealized_family(
        star2, monkeypatch):
    # one family classifies to no form: each tuple of its bucket fails
    # family_realized, in corpus order, and no other tuple does
    bounds = Bounds(max_k=2)
    unrealized = chains_meeting(star2, star2.full)
    bucket = [t for t in _all_tuples(star2.n, range(1, bounds.max_k + 1))
              if thread_sets(star2, t) == unrealized]
    assert len(bucket) > 1

    def refuse_one(P, F):
        if F == unrealized:
            raise Inconsistent("no form")
        return classify_family(P, F)

    monkeypatch.setattr(verify, "classify_family", refuse_one)
    report = verify_conjecture(star2, bounds)
    assert report.failures_by_property == {"family_realized": len(bucket)}
    assert report.failures == [
        {"property": "family_realized",
         "inputs": {"tuple": tuple_to_lists(star2, t)},
         "expected": repr("a normal form"),
         "actual": repr(Inconsistent("no form"))} for t in bucket]


def test_classifier_suite_passes(diamond, monkeypatch):
    def refuse(P, parts):
        raise AssertionError("the classifier suite reads families only")

    monkeypatch.setattr(verify, "canonical", refuse)
    report = verify_classifier(diamond)
    assert report.passed
    assert report.cases == 71 + 1  # instances plus the Zero round-trip


def test_classifier_suite_counts_forms_against_the_formula(star2,
                                                           monkeypatch):
    # one lost instance fails only the count, which adds no case
    instances = verify.form_instances(star2)
    monkeypatch.setattr(verify, "form_instances", lambda P: instances[1:])
    report = verify_classifier(star2)
    assert [f["property"] for f in report.failures] == [
        "form_counts_match_formula"]
    assert report.failures[0]["inputs"] == {"stratum_size": 2}
    assert report.cases == len(instances) - 1 + 1


def test_classifier_suite_flags_a_repeated_instance(star2, monkeypatch):
    instances = verify.form_instances(star2)
    first = instances[0]
    # an equal copy, and the very same object listed twice
    for again in (NormalForm(first.tag, first.payload), first):
        monkeypatch.setattr(verify, "form_instances",
                            lambda P: instances + [again])
        report = verify_classifier(star2)
        repeated = [f for f in report.failures
                    if f["property"] == "forms_have_distinct_thread_sets"]
        assert repeated == [{
            "property": "forms_have_distinct_thread_sets",
            "inputs": {"form": first.describe(star2),
                       "tuple": tuple_to_lists(star2,
                                               first.as_tuple(star2))},
            "expected": repr(first), "actual": repr(again)}]
        assert report.failures_by_property == {
            "form_counts_match_formula": 1,
            "forms_have_distinct_thread_sets": 1}


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


def test_bounds_reject_max_k_past_the_cap():
    assert Bounds(max_k=MAX_K).max_k == MAX_K
    for value in (MAX_K + 1, 20000):
        with pytest.raises(BadParameter, match="max_k must be at most"):
            Bounds(max_k=value)


@pytest.mark.parametrize("field, value", [
    ("max_k", 2.0), ("max_k", True), ("budget", "10"), ("budget", None),
    ("seed", None), ("seed", 1.5), ("seed", False),
    ("exhaustive", "no"), ("exhaustive", 0), ("exhaustive", None)])
def test_bounds_reject_fields_of_the_wrong_type(field, value):
    # seed=None would sample unseeded under a report that reads
    # "exhaustive", and exhaustive="no" would force exhaustive mode
    with pytest.raises(BadParameter, match=field):
        Bounds(**{field: value})
    assert Bounds(seed=-7).seed == -7  # any integer seeds the sampler


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
    report = VerificationReport("demo", diamond, Bounds())
    report.check("some_property", 1, 2, {"tuple": [["a"]]})
    report.product(report.of((1,)), report.of((2, 4)))
    report.form(report.of((1,)))
    assert report.family and report.products[0] and report.forms
    assert report.finish() is report
    # a kept report keeps no families and no memo tables alive
    assert report.P is None
    assert not (report.family or report.ids or report.products
                or report.forms or report._tuples)
    assert not report.passed
    assert report.failure_count == 1
    assert report.failures == [{"property": "some_property",
                                "inputs": {"tuple": [["a"]]},
                                "expected": "1", "actual": "2"}]
    assert report.to_dict()["failures"] == report.failures
    assert report.to_dict()["poset"]["elements"] == ["t", "a", "b", "m"]


def test_report_text_lists_failures_up_to_the_cap(diamond):
    report = VerificationReport("demo", diamond, Bounds())
    for i in range(verify.FAILURE_CAP + 2):
        report.fail("some_property", i, -i, {"case": i})
    assert len(report.failures) == verify.FAILURE_CAP
    lines = report.finish().to_text().splitlines()
    assert lines[0].startswith(
        f"[FAIL ({verify.FAILURE_CAP + 2})] demo on poset:t,a,b,m: 0 cases")
    assert lines[1] == "  some_property: expected 0, got 0 on {'case': 0}"
    assert len(lines) == 1 + verify.FAILURE_CAP + 1
    assert lines[-1] == "  ... 2 further failures not shown"


def test_failures_are_counted_per_property_past_the_cap(diamond):
    report = VerificationReport("demo", diamond, Bounds())
    for i in range(verify.FAILURE_CAP):
        report.fail("first", i, -i, {"case": i})
    for i in range(3):  # all after the cap: none of them is recorded
        report.fail("late", i, -i, {"case": i})
    data = report.finish().to_dict()
    assert {f["property"] for f in data["failures"]} == {"first"}
    assert data["failure_count"] == verify.FAILURE_CAP + 3
    assert data["failures_by_property"] == {"first": verify.FAILURE_CAP,
                                            "late": 3}


def test_monoid_suite_lists_chains_only_within_the_budget(monkeypatch):
    # a chain on n elements has 2^n - 1 chains: past the budget the suite
    # must not enumerate them
    def refuse(self):
        raise AssertionError("Poset.chains called")

    P = catalog("chain", 9).poset
    monkeypatch.setattr(type(P), "chains", refuse)
    report = verify_thread_monoid(P, Bounds(budget=100))
    assert report.passed and report.mode == "sampled"


def test_monoid_suite_draws_chain_pairs_past_the_budget(monkeypatch):
    # chain(16) has 17 points: its 2^17 - 1 chains fit the default budget,
    # their 1.7e10 pairs do not, so the cut check composes the pairs of
    # PAIRED drawn chains only
    calls = []
    monkeypatch.setattr(verify, "compose",
                        lambda P, U, V: calls.append(U) or compose(P, U, V))
    P = catalog("chain", 16).poset
    report = verify_thread_monoid(P)
    assert report.passed and report.seed == 0
    assert len(calls) < 2 ** 16
    with pytest.raises(BudgetExceeded, match="chain pairs"):
        verify_thread_monoid(P, Bounds(exhaustive=True))


@pytest.mark.parametrize("n", [3, 16])  # every pair; the drawn pairs
def test_monoid_suite_checks_compose_on_pairs_of_chains(n, monkeypatch):
    def wide(P, U, V):  # the cut ignored on principal families
        if len(U) == len(V) == 1:
            return ChainFamily((min(U) | min(V),))
        return compose(P, U, V)

    monkeypatch.setattr(verify, "compose", wide)
    report = verify_thread_monoid(catalog("chain", n).poset)
    assert report.failures_by_property["compose_matches_cuts"] > 0


def _union(F: ChainFamily) -> int:
    out = 0
    for g in F.generators:
        out |= g
    return out


def _difference(P, U, V):
    # set difference of the supports is not associative: (a-b)-c misses
    # a&c, which a-(b-c) keeps; every value is a generator
    return chains_meeting(P, _union(U) & ~_union(V))


def _drop_first(P, U, V):
    # compose without the first generator of a left factor with two or
    # more; its values leave the generators
    if len(U) >= 2:
        U = ChainFamily(U.sorted_generators()[1:])
    return compose(P, U, V)


@pytest.mark.parametrize("poset, budget, faulty", [
    ("chain2", 1 << 20, _difference), ("chain2", 100, _difference),
    ("antichain3", 1 << 20, _difference), ("antichain3", 100, _difference),
    ("labeled-3-7", 1 << 20, _drop_first), ("diamond", 1 << 20, _drop_first),
], ids=["1048576", "100", "antichain3-1048576", "antichain3-100",
        "labeled-3-7", "diamond"])
def test_associativity_failures_map_back_to_families(poset, budget, faulty,
                                                     request, monkeypatch):
    # a faulty product fails a row (a, b) at several c; the triples are
    # enumerated at the large budget and sampled at the small
    P = (all_posets(3)[7] if poset == "labeled-3-7"
         else request.getfixturevalue(poset))
    calls = []

    def counted(P, U, V):
        calls.append((U, V))
        return faulty(P, U, V)

    monkeypatch.setattr(verify, "compose", counted)
    bounds = Bounds(budget=budget, seed=5)
    report = VerificationReport("monoid", P, bounds)
    _associativity(report)
    report.finish()

    size = 1 << P.n
    if size ** 3 <= budget:
        triples = list(product(range(size), repeat=3))
    else:
        rng = random.Random(bounds.seed)
        triples = [_decode_tuple(rng.randrange(size ** 3), P.n,
                                 range(3, 4)) for _ in range(SAMPLES)]
    assert report.cases == report.details["associativity_triples"] \
        == len(triples)
    pairs, failing = set(), []
    for a, b, c in triples:
        A, B, C = (chains_meeting(P, m) for m in (a, b, c))
        AB, BC = faulty(P, A, B), faulty(P, B, C)
        left, right = faulty(P, AB, C), faulty(P, A, BC)
        pairs |= {(A, B), (AB, C), (B, C), (A, BC)}
        if left != right:
            failing.append(((a, b, c), left, right))
    # each distinct pair of families is composed exactly once
    assert len(calls) == len(pairs)
    if faulty is _drop_first:
        # right-hand rows a(bc) met products not yet in the table: a
        # right factor that is no generator comes only from such a row
        generators = {chains_meeting(P, m) for m in range(size)}
        assert any(V not in generators for _, V in calls)

    assert failing and report.failure_count == len(failing)
    assert max(Counter(subsets[:2] for subsets, _, _ in failing).values()) > 1
    assert {f["property"] for f in report.failures} == {"compose_associative"}
    assert len(report.failures) == min(len(failing), verify.FAILURE_CAP)
    for failure, (subsets, left, right) in zip(report.failures, failing):
        assert failure["expected"] == repr(left)
        assert failure["actual"] == repr(right)
        assert failure["expected"].startswith("ChainFamily<")
        assert failure["inputs"] == {"subsets": [list(P.labels(m))
                                                 for m in subsets]}


def test_associativity_loop_follows_the_triple_draw():
    # the empty poset's 2 tuples exceed budget 1 and are sampled, with the
    # seed set, but its one triple fits and is enumerated
    report = verify_thread_monoid(Poset((), ()), Bounds(budget=1))
    assert report.mode == "sampled" and report.seed == 0
    assert report.details["associativity_triples"] == 1
    assert report.passed


@pytest.mark.parametrize("poset", ["diamond", "labeled-3-7"])
def test_family_table_keeps_the_monoid_checks(poset, request, monkeypatch):
    # a faulty product that drops the first generator of a left factor with
    # two or more: every concatenation it breaks is still a failure, and
    # each tuple's thread sets are computed once
    P = (all_posets(3)[7] if poset == "labeled-3-7"
         else request.getfixturevalue(poset))
    bounds = Bounds(max_k=3)
    faulty = _drop_first
    asked = []

    def counted(P, t):
        asked.append(t)
        return thread_sets(P, t)

    failed = Counter()
    fail = VerificationReport.fail

    def counting_fail(self, prop, *args, **kwargs):
        failed[prop] += 1
        fail(self, prop, *args, **kwargs)

    monkeypatch.setattr(verify, "compose", faulty)
    monkeypatch.setattr(verify, "thread_sets", counted)
    monkeypatch.setattr(VerificationReport, "fail", counting_fail)
    report = verify_thread_monoid(P, bounds)

    corpus = list(_all_tuples(P.n, range(1, bounds.max_k + 1)))
    failing = []
    for t in corpus:
        F = thread_sets(P, t)
        for j in range(1, len(t)):
            G = faulty(P, thread_sets(P, t[:j]), thread_sets(P, t[j:]))
            if G != F:
                failing.append((t, F, G))
    assert failing
    assert failed["thread_sets_of_concatenation"] == len(failing)
    recorded = [f for f in report.failures
                if f["property"] == "thread_sets_of_concatenation"]
    assert recorded and recorded == [
        {"property": "thread_sets_of_concatenation",
         "inputs": {"tuple": tuple_to_lists(P, t)},
         "expected": repr(F), "actual": repr(G)}
        for t, F, G in failing[:len(recorded)]]
    assert len(asked) == len(set(asked))
    assert set(corpus) <= set(asked)


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
    recorded = [f["inputs"] for f in report.failures
                if f["property"] == "collapse_idempotent"]
    assert recorded == [{"tuple": tuple_to_lists(chain1, t)} for t in tuples]
    assert all(isinstance(f["inputs"], dict) for f in report.failures)


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


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_run_suite_rejects_an_empty_corpus(suite):
    with pytest.raises(BadParameter, match=f"no poset to run {suite} on$"):
        run_suite(suite, [])


def test_run_suite_needs_a_classified_shape_for_the_classifier(two_chains):
    with pytest.raises(ShapeMismatch, match="needs one of the shapes"):
        run_suite("classifier", [("two chains", two_chains)])
    assert len(run_suite("all", [("two chains", two_chains)],
                         Bounds(max_k=1))) == 3


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
    pinned = (Path(__file__).parent / "golden" / "reports_small.json"
              ).read_bytes()
    if text.encode() != pinned:
        got, want = json.loads(text), json.loads(pinned)
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        if i < min(len(got), len(want)):
            pytest.fail(f"report {i} differs from the golden file:\n"
                        f"got {dumps(got[i])}want {dumps(want[i])}")
        pytest.fail(f"{len(got)} reports against {len(want)} in the golden "
                    f"file, the first {i} equal as JSON")

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_stratum, normal_form_dim0, raw_fold
from test_families import CHAIN15_WINDOWS, dense_parts
from threadsets import classify
from threadsets.catalog import catalog
from threadsets.classify import (CLASSIFIED_SHAPES, DIM0, DIM1_IRREDUCIBLE,
                                 DIM2_UNIQUE_EXTREMES, FINITE, PAYLOAD_KEYS,
                                 ZERO, NormalForm, classify_dim0,
                                 classify_dim1, classify_dim2, classify_family,
                                 form_defect, form_instances, normal_form,
                                 shape_of)
from threadsets.errors import Inconsistent, ShapeMismatch
from threadsets.families import (EMPTY_FAMILY, ChainFamily, family,
                                 thread_sets)
from threadsets.poset import build_poset
from threadsets.serialize import form_from_dict, form_to_dict
from threadsets.tuples import ZERO_TUPLE, canonical
from threadsets.verify import _all_tuples, all_posets


# -- shape detection

def test_shape_examples(antichain3, diamond, chain2, chain1, two_chains):
    star3 = build_poset(["t", "a", "b", "c"],
                        [("a", "t"), ("b", "t"), ("c", "t")])
    assert shape_of(antichain3) == DIM0
    assert shape_of(star3) == DIM1_IRREDUCIBLE
    assert shape_of(chain1) == DIM1_IRREDUCIBLE
    assert shape_of(diamond) == DIM2_UNIQUE_EXTREMES
    assert shape_of(chain2) == DIM2_UNIQUE_EXTREMES
    assert shape_of(two_chains) == FINITE
    assert shape_of(build_poset([], [])) == FINITE


def test_shape_dim2_needs_unique_extremes():
    # two maximal primes over a shared bottom: dimension 2 but not the shape
    P = build_poset(["s", "t", "a", "m"],
                    [("a", "t"), ("m", "a"), ("m", "s")])
    assert P.dimension() == 2
    assert shape_of(P) == FINITE


# -- dimension 0

def test_dim0_intersection(antichain3):
    t = (antichain3.subset(["p", "q"]), antichain3.subset(["q"]))
    assert normal_form_dim0(antichain3, t) == NormalForm(
        "D0Smash", (antichain3.subset(["q"]),))


def test_dim0_disjoint_is_zero(antichain3):
    t = (antichain3.subset(["p"]), antichain3.subset(["q"]))
    assert normal_form_dim0(antichain3, t) == ZERO


def test_dim0_one_uple(antichain3):
    A = antichain3.subset(["p", "q"])
    assert normal_form_dim0(antichain3, (A,)) == NormalForm("D0Smash", (A,))


def test_dim0_two_routes_agree():
    # direct intersection versus classification from the thread sets
    for P in all_posets(3):
        if shape_of(P) != DIM0 or P.n == 0:
            continue
        for a in range(1 << P.n):
            for b in range(1 << P.n):
                t = (a, b)
                assert normal_form_dim0(P, t) == classify_dim0(
                    P, thread_sets(P, t))


def test_dim0_non_singleton_generator_is_inconsistent(antichain3):
    # no tuple over a discrete poset has a two-element thread set, but a
    # family built by hand can hold one, beside a singleton or alone; alone,
    # no singleton is a member, so the payload read off it is empty and
    # D0Smash with that payload is refused too
    p, qr = antichain3.subset(["p"]), antichain3.subset(["q", "r"])
    for F in (ChainFamily({p, qr}), ChainFamily({qr})):
        with pytest.raises(Inconsistent, match=r"closest: D0Smash\)"):
            classify_dim0(antichain3, F)


def test_dim0_shape_mismatch(diamond):
    with pytest.raises(ShapeMismatch):
        normal_form_dim0(diamond, (diamond.full,))
    with pytest.raises(ShapeMismatch):
        classify_dim0(diamond, EMPTY_FAMILY)


# -- dimension 1, irreducible

def test_dim1_lambda(star2):
    F = thread_sets(star2, (star2.subset(["a"]),))
    assert classify_dim1(star2, F) == NormalForm(
        "D1_Lambda", (star2.subset(["a"]),))


def test_dim1_top_smash(star2):
    F = thread_sets(star2, (star2.subset(["t", "a"]),))
    assert classify_dim1(star2, F) == NormalForm(
        "D1_TopSmash", (star2.subset(["a"]),))


def test_dim1_mixed(star2):
    F = thread_sets(star2, (star2.subset(["t", "a"]), star2.subset(["a", "b"])))
    assert F.generators == frozenset({star2.subset(["a"]),
                                      star2.subset(["t", "b"])})
    assert classify_dim1(star2, F) == NormalForm(
        "D1_Mixed", (star2.subset(["a"]), star2.subset(["a", "b"])))


def test_dim1_zero(star2):
    assert classify_dim1(star2, EMPTY_FAMILY) == ZERO


def test_dim1_shape_mismatch(diamond):
    with pytest.raises(ShapeMismatch):
        classify_dim1(diamond, EMPTY_FAMILY)


# -- dimension 2, unique extremes

def test_dim2_form7(diamond):
    F = thread_sets(diamond, (diamond.subset(["t", "a"]),
                              diamond.subset(["b", "m"])))
    assert classify_dim2(diamond, F) == NormalForm(
        "D2_Form7", (diamond.subset(["a"]), diamond.subset(["b"])))


def test_dim2_form4(diamond):
    F = thread_sets(diamond, (diamond.subset(["t", "a", "m"]),))
    assert F.member(diamond.subset(["t"])) and F.member(diamond.subset(["m"]))
    assert classify_dim2(diamond, F) == NormalForm(
        "D2_Form4", (diamond.subset(["a"]),))


def test_dim2_form5(diamond):
    # L_{t} L_{a}: greatest lower strata empty, top chain family over {a}
    F = thread_sets(diamond, (diamond.subset(["t"]), diamond.subset(["a"])))
    assert F.generators == frozenset({diamond.subset(["t", "a"])})
    assert classify_dim2(diamond, F) == NormalForm(
        "D2_Form5", (0, diamond.subset(["a"])))


def test_dim2_form8(diamond):
    F = thread_sets(diamond, (diamond.subset(["t", "a"]),
                              diamond.subset(["t", "m"])))
    assert F.generators == frozenset({diamond.subset(["t"]),
                                      diamond.subset(["a", "m"])})
    assert classify_dim2(diamond, F) == NormalForm(
        "D2_Form8", (diamond.subset(["a"]), 0))


def test_dim2_form11(diamond):
    F = thread_sets(diamond, (diamond.subset(["t", "a"]),
                              diamond.subset(["t", "m"]),
                              diamond.subset(["a", "m"])))
    assert F.generators == frozenset({diamond.subset(["t", "a"]),
                                      diamond.subset(["t", "m"]),
                                      diamond.subset(["a", "m"])})
    assert classify_dim2(diamond, F) == NormalForm(
        "D2_Form11", (diamond.subset(["a"]), 0, diamond.subset(["a"])))


def test_dim2_zero(diamond):
    assert classify_dim2(diamond, EMPTY_FAMILY) == ZERO


def test_dim2_chain_form10(chain2):
    t = (chain2.subset(["2"]), chain2.subset(["1"]), chain2.subset(["0"]))
    F = thread_sets(chain2, t)
    assert classify_dim2(chain2, F) == NormalForm(
        "D2_Form10", (0, chain2.subset(["1"]), 0))


def test_dim2_inconsistent(diamond):
    bad = family(diamond, [diamond.subset(["t", "a"]),
                           diamond.subset(["a", "m"])])
    with pytest.raises(Inconsistent):
        classify_dim2(diamond, bad)


def test_unrealized_form_names_the_closest(star2, monkeypatch):
    # a TopSmash row that builds the colocal tuple: the tree still picks
    # TopSmash, and the re-expansion check refuses it
    row = classify._FORMS["D1_TopSmash"]
    monkeypatch.setitem(classify._FORMS, "D1_TopSmash",
                        row._replace(build=lambda t, m, c: (c,)))
    F = thread_sets(star2, (star2.subset(["t"]),))
    with pytest.raises(Inconsistent, match=r"closest: D1_TopSmash\)"):
        classify_dim1(star2, F)


def test_classified_forms_meet_their_side_conditions(monkeypatch):
    # membership is monotone, so the trees test no implied inclusion; every
    # form they return must still be one a tuple can classify to, and no
    # tree asks for a stratum over companions that are a member
    stratum = classify._stratum

    def checked(F, candidates, companions):
        assert not F.member(companions), (F, companions)
        return stratum(F, candidates, companions)

    monkeypatch.setattr(classify, "_stratum", checked)
    posets = [catalog("star", 3).poset, catalog("diamond", 3).poset]
    posets += [P for n in range(4) for P in all_posets(n)
               if shape_of(P) in CLASSIFIED_SHAPES]
    tags = Counter()
    for P in posets:
        chains = list(P.chains())
        for k in range(1, 4):
            for some in combinations(chains, k):
                try:
                    nf = classify_family(P, family(P, some))
                except Inconsistent:
                    continue
                assert form_defect(P, nf.tag, nf.payload) is None, (P, nf)
                tags[nf.tag] += 1
    assert set(tags) == set(PAYLOAD_KEYS) - {"Zero"}


def test_form_defect_names_an_unknown_tag(star2):
    assert form_defect(star2, "D3_Form1", ()) == "no form is tagged 'D3_Form1'"


def test_dim2_shape_mismatch(star2):
    with pytest.raises(ShapeMismatch):
        classify_dim2(star2, EMPTY_FAMILY)


# -- dispatch

def test_normal_form_dispatch(diamond, star2, antichain3):
    assert normal_form(diamond, (diamond.subset(["t", "a"]),
                                 diamond.subset(["b", "m"]))).tag == "D2_Form7"
    assert normal_form(star2, (star2.subset(["a"]),)).tag == "D1_Lambda"
    assert normal_form(antichain3, (antichain3.full,)).tag == "D0Smash"


def test_normal_form_zero_on_every_shape(diamond, star2, antichain3,
                                         two_chains):
    for P in (diamond, star2, antichain3, two_chains):
        a = 1  # first element alone in both parts, reversed order kills it
        no_thread = (0, a)
        assert normal_form(P, no_thread) == ZERO


def test_normal_form_unresolved_outside_shapes(two_chains):
    pair = (two_chains.subset(["p1", "q1"]), two_chains.subset(["p2", "q2"]))
    assert classify_family(two_chains, thread_sets(two_chains, pair)) is None
    nf = normal_form(two_chains, pair)
    assert nf == NormalForm("Unresolved", canonical(two_chains, pair))
    assert nf.as_tuple(two_chains) == pair


def _classified_or_unresolved(P, t):
    """The normal form of ``t`` read off its thread sets: the classified
    form, else ``Unresolved`` with the canonical reduction."""
    nf = classify_family(P, thread_sets(P, t))
    return NormalForm("Unresolved", canonical(P, t)) if nf is None else nf


def test_normal_form_outside_shapes_matches_the_family_exhaustive():
    # outside the proved shapes normal_form builds no family; it still
    # gives what classifying the family gives, on every tuple with k <= 3
    # of the Finite labeled posets with n <= 4
    for n in range(5):
        tuples = list(_all_tuples(n, range(1, 4)))
        for P in all_posets(n):
            if shape_of(P) == FINITE:
                for t in tuples:
                    assert normal_form(P, t) == \
                        _classified_or_unresolved(P, t)


def test_normal_form_outside_shapes_on_chain15():
    P = catalog("chain", 15).poset
    assert shape_of(P) == FINITE
    cases = [(CHAIN15_WINDOWS, NormalForm("Unresolved", CHAIN15_WINDOWS)),
             (CHAIN15_WINDOWS[::-1], ZERO),  # ascending windows: no thread
             ((P.full,) * 7, NormalForm("Unresolved", (P.full,)))]
    for t, expected in cases:
        assert normal_form(P, t) == _classified_or_unresolved(P, t) \
            == expected


def test_unresolved_same_thread_sets_different_payloads(two_chains):
    # equal thread sets do not force equal canonical tuples outside the
    # classified shapes; both reductions are kept verbatim
    triple = (two_chains.subset(["p1", "q1"]), two_chains.subset(["p1", "q2"]),
              two_chains.subset(["p2", "q2"]))
    pair = (two_chains.subset(["p1", "q1"]), two_chains.subset(["p2", "q2"]))
    assert thread_sets(two_chains, triple) == thread_sets(two_chains, pair)
    assert normal_form(two_chains, triple) != normal_form(two_chains, pair)


def test_normal_form_on_empty_poset():
    P = build_poset([], [])
    assert normal_form(P, (0,)) == ZERO
    assert normal_form(P, (0, 0)) == ZERO


def test_normal_form_five_element_two_maximal():
    P = build_poset(["s", "t", "a", "b", "m"],
                    [("a", "t"), ("b", "t"), ("m", "a"), ("m", "b"),
                     ("m", "s")])
    t = (P.subset(["t", "s"]), P.subset(["m"]))
    nf = normal_form(P, t)
    assert nf.tag == "Unresolved"
    assert nf.payload == canonical(P, t)


# -- the NormalForm value itself

# tag -> (poset fixture, payload, defining tuple); each string spells one
# subset by its one-letter element labels
AS_TUPLE = {
    "D0Smash": ("antichain3", ["pq"], ["pq"]),
    "D1_Lambda": ("star2", ["a"], ["a"]),
    "D1_TopSmash": ("star2", ["a"], ["ta"]),
    "D1_Mixed": ("star2", ["a", "ab"], ["ta", "ab"]),
    "D2_Form1": ("diamond", ["a"], ["a"]),
    "D2_Form2": ("diamond", ["a"], ["ta"]),
    "D2_Form3": ("diamond", ["a"], ["am"]),
    "D2_Form4": ("diamond", ["a"], ["tam"]),
    "D2_Form5": ("diamond", ["a", "b"], ["ta", "b"]),
    "D2_Form6": ("diamond", ["a", "b"], ["a", "bm"]),
    "D2_Form7": ("diamond", ["a", "b"], ["ta", "bm"]),
    "D2_Form8": ("diamond", ["a", "b"], ["ta", "tbm"]),
    "D2_Form9": ("diamond", ["a", "b"], ["tam", "bm"]),
    "D2_Form10": ("diamond", ["a", "ab", "b"], ["ta", "ab", "bm"]),
    "D2_Form11": ("diamond", ["a", "ab", "b"], ["ta", "tabm", "bm"]),
}


def test_as_tuple_forms(request, diamond):
    assert set(AS_TUPLE) == set(PAYLOAD_KEYS) - {"Zero"}
    for tag, (fixture, payload, expected) in AS_TUPLE.items():
        P = request.getfixturevalue(fixture)
        nf = NormalForm(tag, tuple(P.subset(list(part)) for part in payload))
        assert nf.as_tuple(P) == tuple(P.subset(list(part))
                                       for part in expected), tag
    assert ZERO.as_tuple(diamond) == ZERO_TUPLE


def test_as_tuple_needs_unique_extremes(star2, two_chains):
    with pytest.raises(ShapeMismatch):
        NormalForm("D2_Form1", (star2.subset(["a"]),)).as_tuple(star2)
    with pytest.raises(ShapeMismatch):
        NormalForm("D1_Lambda", (two_chains.subset(["p2"]),)).as_tuple(
            two_chains)


def test_describe(diamond):
    nf = NormalForm("D2_Form7", (diamond.subset(["a"]), diamond.subset(["b"])))
    assert nf.describe(diamond) == "D2_Form7(A1={a}, B1={b})"
    assert ZERO.describe(diamond) == "Zero"


def test_describe_unresolved(two_chains):
    pair = two_chains.subset(["p1", "q1"]), two_chains.subset(["p2", "q2"])
    nf = normal_form(two_chains, pair)
    assert nf.tag == "Unresolved"
    assert nf.describe(two_chains) == "Unresolved({p1, q1}, {p2, q2})"


# fixture -> its shape; per classified shape, its classifier and one form
FIXTURE_SHAPES = {"antichain3": DIM0, "star2": DIM1_IRREDUCIBLE,
                  "diamond": DIM2_UNIQUE_EXTREMES,
                  "chain2": DIM2_UNIQUE_EXTREMES, "two_chains": FINITE}
GATES = {DIM0: (classify_dim0, "D0Smash"),
         DIM1_IRREDUCIBLE: (classify_dim1, "D1_Lambda"),
         DIM2_UNIQUE_EXTREMES: (classify_dim2, "D2_Form1")}


def test_one_shape_gate(request):
    # the classifiers and as_tuple refuse every poset of another shape;
    # each tag with payload keys is the normal form of a defining tuple on
    # a poset of its shape, and its document reads back as the same form
    reached = set()
    for fixture, shape in FIXTURE_SHAPES.items():
        P = request.getfixturevalue(fixture)
        assert shape_of(P) == shape
        for other, (classifier, tag) in GATES.items():
            if other == shape:
                assert classifier(P, EMPTY_FAMILY) == ZERO
                continue
            with pytest.raises(ShapeMismatch):
                classifier(P, EMPTY_FAMILY)
            with pytest.raises(ShapeMismatch):
                NormalForm(tag, (P.subset([P.elements[1]]),)).as_tuple(P)
        if fixture in ("diamond", "star2", "antichain3"):
            for nf in [ZERO] + form_instances(P):
                got = normal_form(P, nf.as_tuple(P))
                assert form_from_dict(P, form_to_dict(P, got)) == got == nf
                reached.add(got.tag)
    assert reached == set(PAYLOAD_KEYS)


# -- syntactic instances

def test_form_instances_counts(diamond, star2, antichain3):
    assert Counter(nf.tag for nf in form_instances(diamond)) == {
        "D2_Form1": 3, "D2_Form2": 4, "D2_Form3": 4, "D2_Form4": 4,
        "D2_Form5": 5, "D2_Form6": 5, "D2_Form7": 16, "D2_Form8": 5,
        "D2_Form9": 5, "D2_Form10": 11, "D2_Form11": 9}
    assert Counter(nf.tag for nf in form_instances(star2)) == {
        "D1_Lambda": 3, "D1_TopSmash": 4, "D1_Mixed": 5}
    assert Counter(nf.tag for nf in form_instances(antichain3)) == {
        "D0Smash": 7}


def test_classify_family_dispatches_through_module_globals(
        monkeypatch, antichain3, star2, diamond):
    # per-layer tracing rebinds these module attributes; the dispatch must
    # look them up at call time
    calls = []
    for name in ("classify_dim0", "classify_dim1", "classify_dim2"):
        monkeypatch.setattr(classify, name,
                            lambda P, F, name=name: calls.append(name) or ZERO)
    for P in (antichain3, star2, diamond):
        whole = (P.full,)
        classify_family(P, thread_sets(P, whole))
    assert calls == ["classify_dim0", "classify_dim1", "classify_dim2"]


ALIAS_POSETS = ([catalog("star", k).poset for k in range(1, 6)]
                 + [catalog("circle", k).poset for k in range(1, 5)]
                 + [build_poset([str(i) for i in range(n)], [])
                    for n in range(1, 5)])


@pytest.mark.parametrize("P", ALIAS_POSETS,
                         ids=lambda P: ",".join(P.elements))
def test_small_shape_forms_are_dim2_forms_with_missing_extremes_at_0(P):
    # each dimension-0 or -1 form builds its dimension-2 row's tuple with
    # the extremes its shape lacks at 0, on exactly the payloads of the
    # stratum that the row's side condition accepts
    shape, t, m = classify._anatomy(P)
    assert m == 0
    stratum = [mask for mask in range(1 << P.n) if not mask & t]
    instances = form_instances(P)
    for nf in instances:
        _, _, of = classify._ALIASES[nf.tag]
        assert nf.as_tuple(P) == classify._FORMS[of].build(t, 0, *nf.payload)
    for tag, (alias_shape, keys, of) in classify._ALIASES.items():
        if alias_shape == shape:
            valid = classify._FORMS[of].valid
            assert {nf.payload for nf in instances if nf.tag == tag} == {
                p for p in product(stratum, repeat=len(keys))
                if valid is None or valid(*p)}


def test_form_instances_round_trip(monkeypatch, diamond, star2, antichain3):
    # on the proved shapes the form comes from the family alone
    def refuse(P, parts):
        raise AssertionError("canonical called on a proved shape")

    monkeypatch.setattr(classify, "canonical", refuse)
    for P in (diamond, star2, antichain3):
        seen = {}
        for inst in form_instances(P):
            F = thread_sets(P, inst.as_tuple(P))
            assert F not in seen, (inst, seen[F])
            seen[F] = inst
            got = normal_form(P, inst.as_tuple(P))
            assert got == inst


def test_form_instances_shape_mismatch(two_chains):
    with pytest.raises(ShapeMismatch):
        form_instances(two_chains)


# -- strata: one pass over the generators

def _extreme_subsets(P):
    """Every subset of the top and bottom that the shape of ``P`` uses,
    with the middle elements between them."""
    _, t, m = classify._anatomy(P)
    return sorted({0, t, m, t | m}), P.full & ~t & ~m


def test_stratum_matches_the_membership_scan_exhaustive():
    # every thread-set family of a tuple with k <= 2 on the classified
    # labeled posets with n <= 4, candidates the middle elements
    for n in range(5):
        tuples = list(_all_tuples(n, range(1, 3)))
        for P in all_posets(n):
            if shape_of(P) not in CLASSIFIED_SHAPES:
                continue
            companions, mids = _extreme_subsets(P)
            for F in {thread_sets(P, t) for t in tuples}:
                for S in companions:
                    if not F.member(S):  # the precondition of _stratum
                        assert classify._stratum(F, mids, S) == \
                            brute_stratum(F, mids, S)


STRATA_POSETS = [catalog(*entry).poset for entry in (
    ("diamond", 5), ("star", 6), ("circle", 6))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stratum_matches_the_membership_scan_random(data):
    # families of up to 6 parts as the raw fold builds them; the candidates
    # are any subset, the companions any subset of the top and bottom that
    # is no member, the precondition of _stratum (the empty one never is)
    P = data.draw(st.sampled_from(STRATA_POSETS))
    F = raw_fold(P, data.draw(dense_parts(P, 6)))
    candidates = data.draw(st.integers(min_value=0, max_value=P.full))
    S = data.draw(st.sampled_from([S for S in _extreme_subsets(P)[0]
                                   if not F.member(S)]))
    assert classify._stratum(F, candidates, S) == \
        brute_stratum(F, candidates, S)


@pytest.mark.parametrize("entry", [("diamond", 3), ("star", 4),
                                   ("circle", 4)])
def test_one_classification_reads_the_anatomy_twice(monkeypatch, entry):
    # classify_family reads the shape, and its classifier the extremes,
    # which _verified reuses; normal_form adds its own shape read
    P = catalog(*entry).poset
    cases = [(nf, nf.as_tuple(P)) for nf in [ZERO] + form_instances(P)]
    anatomy = classify._anatomy
    reads = []

    def counted(P):
        reads.append(P)
        return anatomy(P)

    monkeypatch.setattr(classify, "_anatomy", counted)
    for nf, t in cases:
        F = thread_sets(P, t)
        reads.clear()
        assert classify_family(P, F) == nf
        assert len(reads) == 2
        reads.clear()
        assert normal_form(P, t) == nf
        assert len(reads) == 3


@pytest.mark.parametrize("entry", [("diamond", 5), ("star", 6)])
def test_normal_form_tests_membership_only_at_the_extremes(monkeypatch,
                                                           entry):
    # the strata come from passes over the generators; the only membership
    # tests left are those of {t}, {m} and {t, m}
    P = catalog(*entry).poset
    _, t, m = classify._anatomy(P)
    member = ChainFamily.member
    tested = []

    def counted(F, chain):
        tested.append(chain)
        return member(F, chain)

    monkeypatch.setattr(ChainFamily, "member", counted)
    for nf in form_instances(P):
        tested.clear()
        assert normal_form(P, nf.as_tuple(P)) == nf
        assert len(tested) <= 3
        assert set(tested) <= {t, m, t | m}


def test_classify_dim2_reads_only_the_strata_it_tests(monkeypatch):
    # F0 for every family; D, E and G only in the branches that read them
    P = catalog("diamond", 5).poset
    stratum = classify._stratum
    calls = []

    def counted(F, candidates, companions):
        calls.append(companions)
        return stratum(F, candidates, companions)

    monkeypatch.setattr(classify, "_stratum", counted)
    strata = {"D2_Form4": 1, "D2_Form2": 2, "D2_Form8": 2, "D2_Form3": 2,
              "D2_Form9": 2, "D2_Form7": 3, "D2_Form11": 3}
    for nf in form_instances(P):
        calls.clear()
        assert normal_form(P, nf.as_tuple(P)) == nf
        assert len(calls) == strata.get(nf.tag, 4)
        assert calls[0] == 0


# -- lemma identities on the diamond (spot checks; exhaustive in acceptance)

def test_dim2_lemma_identity_spot(diamond):
    t, m = diamond.subset(["t"]), diamond.subset(["m"])
    A, B = diamond.subset(["a"]), diamond.subset(["b"])
    ts = lambda parts: thread_sets(diamond, parts)
    assert ts((t | A | m, t | B | m)) == ts((t | (A & B) | m,))
    assert ts((t | A, t | B | m)) == ts((t | A, t | (A & B) | m))
    assert ts((t | A | m, B | m)) == ts((t | (A & B) | m, B | m))
    assert ts((t | A, t | (A & B) | m, B | m)) == ts((t | A, B | m))

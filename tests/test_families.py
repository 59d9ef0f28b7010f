from __future__ import annotations

import gc
import operator
from functools import cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_below_all, brute_chains, brute_chains_meeting,
                     brute_compose_members, brute_down_set,
                     brute_family_members, brute_thread_set_members,
                     brute_threads, brute_up_set, minimal_members, raw_fold)
from test_poset import random_posets
from test_tuples import (CATALOG_POSETS, _outcome, poset_and_tuple,
                         poset_and_tuple_with_bad_masks)
from threadsets.catalog import catalog
from threadsets.classify import normal_form
from threadsets.errors import EmptyChain, NotAChain, UnknownElement
from threadsets.families import (EMPTY_FAMILY, ChainFamily, _extend,
                                 chains_meeting, compose, family, minimize,
                                 principal, singleton_tuple, thread_sets,
                                 threads)
from threadsets.tuples import ZERO_TUPLE, canonical
from threadsets.verify import _all_tuples, all_posets


# -- threads

def test_threads_forced_chain(chain1):
    t = (chain1.subset(["1"]), chain1.subset(["0"]))
    found = list(threads(chain1, t))
    assert found == [((1, 0), chain1.subset(["0", "1"]))]


def test_threads_none_when_increasing(chain1):
    t = (chain1.subset(["0"]), chain1.subset(["1"]))
    assert list(threads(chain1, t)) == []


def test_threads_allow_repeats(chain1):
    t = (chain1.subset(["1"]), chain1.subset(["1"]), chain1.subset(["0"]))
    found = list(threads(chain1, t))
    assert ((1, 1, 0), chain1.subset(["0", "1"])) in found


def test_threads_deterministic(diamond):
    t = (diamond.full, diamond.full)
    assert list(threads(diamond, t)) == list(threads(diamond, t))


@settings(max_examples=150, deadline=None)
@given(st.one_of(poset_and_tuple(max_n=6, max_k=4),
                 poset_and_tuple_with_bad_masks(max_n=6, max_k=4)))
def test_threads_match_brute_force_random(pt):
    P, parts = pt
    assert _outcome(lambda P, t: list(threads(P, t)), P, parts) == \
        _outcome(brute_threads, P, parts)


def test_threads_validate_every_part(diamond):
    bad = 1 << diamond.n
    a = diamond.subset(["a"])
    for parts in ((bad,), (bad, 1), (a, bad), (a, a, bad), (-1,), (a, -1),
                  (diamond.full, -2, a)):
        with pytest.raises(UnknownElement):
            list(threads(diamond, parts))
    with pytest.raises(ValueError):
        list(threads(diamond, ()))


def test_threads_walk_leaves_no_cycle(diamond):
    """The walk holds no reference back to itself, so consuming it leaves
    nothing for the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        for parts in ((diamond.full,) * 3, (diamond.full,)):
            assert sum(1 for _ in threads(diamond, parts)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- thread_sets

def test_thread_sets_remark_pair(two_chains):
    triple = (two_chains.subset(["p1", "q1"]), two_chains.subset(["p1", "q2"]),
              two_chains.subset(["p2", "q2"]))
    pair = (two_chains.subset(["p1", "q1"]), two_chains.subset(["p2", "q2"]))
    expected = frozenset({two_chains.subset(["p1", "p2"]),
                          two_chains.subset(["q1", "q2"])})
    assert thread_sets(two_chains, triple).generators == expected
    assert thread_sets(two_chains, pair).generators == expected
    assert thread_sets(two_chains, triple) == thread_sets(two_chains, pair)


def test_thread_sets_antichain_disjoint(antichain3):
    t = (antichain3.subset(["p"]), antichain3.subset(["q"]))
    assert thread_sets(antichain3, t) == EMPTY_FAMILY


def test_thread_sets_one_uple(antichain3):
    F = thread_sets(antichain3, (antichain3.subset(["p", "q"]),))
    assert F.generators == frozenset({antichain3.subset(["p"]),
                                      antichain3.subset(["q"])})


def test_thread_sets_match_brute_force_small():
    for P in all_posets(3):
        space = 1 << P.n
        for a in range(space):
            for b in range(space):
                F = thread_sets(P, (a, b))
                members = brute_thread_set_members(P, (a, b))
                assert F.generators == frozenset(minimal_members(members))


@settings(max_examples=100, deadline=None)
@given(poset_and_tuple(max_n=5, max_k=3))
def test_thread_sets_match_brute_force_random(pt):
    P, t = pt
    members = brute_thread_set_members(P, t)
    F = thread_sets(P, t)
    assert F.generators == frozenset(minimal_members(members))
    assert brute_family_members(P, F.generators) == members


# seven sliding windows of four elements on chain(15), 15 > ... > 0, that
# no reduction shortens: 10 864 threads
CHAIN15_WINDOWS = tuple(0b1111 << (12 - 2 * i) for i in range(7))

@st.composite
def dense_parts(draw, P, max_k):
    """1 to ``max_k`` parts over ``P``, each the union of one to three
    random masks, so that long tuples still have threads."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    masks = st.integers(min_value=0, max_value=P.full)
    return tuple(draw(st.lists(masks, min_size=1, max_size=3).map(
        lambda ms: reduce(operator.or_, ms))) for _ in range(k))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_thread_sets_match_the_raw_fold_on_long_tuples(data):
    # tuples of up to 16 parts, past the walk's reach: folding over the
    # canonical form gives the fold over the parts as given
    P = data.draw(st.sampled_from(CATALOG_POSETS))
    t = data.draw(dense_parts(P, 16))
    assert thread_sets(P, t) == raw_fold(P, t)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_thread_sets_match_the_walk_up_to_six_parts(data):
    P = data.draw(random_posets(max_n=5))
    t = data.draw(dense_parts(P, 6))
    F = thread_sets(P, t)
    assert F == _enumerated_thread_sets(P, t)
    assert F == raw_fold(P, t)


def test_thread_sets_and_normal_form_name_the_first_bad_mask(diamond,
                                                            two_chains):
    """Every part is validated in order, whatever the reduction would keep
    of it: the first mask with bits outside the poset, or negative, is the
    one named.  ``diamond`` has a classified shape and ``two_chains`` has
    not, so ``normal_form`` is checked on both of its paths."""
    for P, (high, low) in ((diamond, ("a", "m")), (two_chains, ("p1", "p2"))):
        a, m = P.subset([high]), P.subset([low])
        bad = 1 << P.n
        cases = [  # (parts, the mask named)
            ((bad, a, m), bad), ((a, bad, m), bad), ((a, m, bad), bad),
            ((a, -1, m), -1), ((a, m, -2), -2),
            ((P.full | bad,), P.full | bad),
            ((m, a, bad), bad),  # (m, a) has no thread
            ((a, bad << 1, -2), bad << 1), ((a, a, a, bad), bad),
        ]
        for parts, named in cases:
            for function in (thread_sets, normal_form):
                with pytest.raises(UnknownElement) as info:
                    function(P, parts)
                assert str(info.value) == \
                    f"mask {named:#x} has bits outside the poset"


def test_thread_sets_extends_once_per_further_canonical_part(diamond,
                                                             monkeypatch):
    steps, products = [], []

    def counted_extend(P, U, A):
        steps.append(None)
        return _extend(P, U, A)

    def counted_compose(P, U, V):
        products.append(None)
        return compose(P, U, V)

    monkeypatch.setattr("threadsets.families._extend", counted_extend)
    monkeypatch.setattr("threadsets.families.compose", counted_compose)
    A = diamond.subset(["a"])
    chain15 = catalog("chain", 15).poset
    cases = [(diamond, (A, A, A), 0),
             (diamond, (diamond.subset(["m"]), A), 0),  # no thread
             (chain15, (chain15.full,) * 7, 0), (chain15, CHAIN15_WINDOWS, 6)]
    cases += [(diamond, t, None) for t in _all_tuples(diamond.n, range(1, 4))]
    for P, t, expected in cases:
        steps.clear()
        thread_sets(P, t)
        assert len(steps) == len(canonical(P, t)) - 1
        if expected is not None:
            assert len(steps) == expected
    assert products == []


def test_extend_is_compose_with_chains_meeting_exhaustive():
    """Every thread-set family of a tuple with k <= 2 on the labeled posets
    with n <= 4, extended by every part."""
    for n in range(5):
        tuples = list(_all_tuples(n, range(1, 3)))
        for P in all_posets(n):
            for U in {raw_fold(P, t) for t in tuples}:
                for A in range(1 << P.n):
                    assert _extend(P, U, A) == \
                        compose(P, U, chains_meeting(P, A))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extend_is_compose_with_chains_meeting_random(data):
    P = data.draw(st.sampled_from(CATALOG_POSETS))
    U = raw_fold(P, data.draw(dense_parts(P, 8)))
    A = data.draw(st.integers(min_value=0, max_value=P.full))
    F = _extend(P, U, A)
    assert type(F) is ChainFamily
    assert F == compose(P, U, chains_meeting(P, A))


# -- ChainFamily representation

def test_family_minimizes_and_validates(diamond):
    F = family(diamond, [diamond.subset(["t", "a"]), diamond.subset(["a"])])
    assert F.generators == frozenset({diamond.subset(["a"])})
    with pytest.raises(NotAChain):
        family(diamond, [diamond.subset(["a", "b"])])
    with pytest.raises(EmptyChain):
        family(diamond, [0])


# masks of one size never contain each other, so inputs dense in one size
# exercise the tie order of minimize
_ONE_SIZE = st.integers(min_value=0, max_value=8).flatmap(
    lambda k: st.lists(st.sampled_from(
        [m for m in range(1 << 8) if m.bit_count() == k])))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1)),
                 _ONE_SIZE,
                 st.tuples(_ONE_SIZE, _ONE_SIZE).map(lambda p: p[0] + p[1])))
def test_minimize_matches_brute_force(masks):
    expected = minimal_members(set(masks))
    assert minimize(masks) == expected
    assert minimize(iter(masks)) == expected
    assert type(minimize(set(masks))) is ChainFamily
    assert type(minimize(masks[:1])) is ChainFamily


def test_membership_upward_closed(diamond):
    F = principal(diamond, diamond.subset(["t", "m"]))
    assert F.member(diamond.subset(["t", "a", "m"]))
    assert not F.member(diamond.subset(["t", "a"]))
    assert not EMPTY_FAMILY.member(diamond.subset(["t"]))


def test_family_equality(diamond):
    A = diamond.subset(["a", "b"])
    assert chains_meeting(diamond, A) == chains_meeting(diamond, A)
    assert chains_meeting(diamond, A) != EMPTY_FAMILY


_GENERATOR_SETS = st.frozensets(st.integers(min_value=1, max_value=(1 << 6) - 1),
                                max_size=4)


@settings(max_examples=200, deadline=None)
@given(_GENERATOR_SETS, _GENERATOR_SETS)
def test_family_is_its_generator_set(a, b):
    F, G = ChainFamily(a), ChainFamily(b)
    assert F.generators is F
    assert F.generators == a and len(F) == len(a)
    assert (F == G) == (a == b) and (F != G) == (a != b)
    if a == b:
        assert hash(F) == hash(G)
    assert ChainFamily(F) == F and ChainFamily(iter(a)) == F
    assert {F: 0}.get(ChainFamily(set(a))) == 0
    assert F.is_empty() == (not a)
    # the repr lists the generators in hex, ordered by sorted index sequence
    order = sorted(a, key=lambda g: [i for i in range(6) if g >> i & 1])
    assert repr(F) == "ChainFamily<%s>" % ",".join(format(g, "x")
                                                   for g in order)


def test_family_is_immutable(diamond):
    F = chains_meeting(diamond, diamond.subset(["a", "b"]))
    with pytest.raises(AttributeError):
        F.generators = frozenset()
    with pytest.raises(AttributeError):
        F.extra = 1
    with pytest.raises(AttributeError):
        F.add(1)
    assert not hasattr(F, "__dict__")
    assert repr(F) == "ChainFamily<2,4>"
    assert repr(EMPTY_FAMILY) == "ChainFamily<>"
    assert repr(ChainFamily({0b1001, 0b110, 0b11})) == "ChainFamily<3,9,6>"


def test_in_sees_generators_not_members(diamond):
    """``in`` is the frozenset's: a non-minimal member is not ``in`` F."""
    F = principal(diamond, diamond.subset(["t", "a"]))
    above = diamond.subset(["t", "a", "m"])
    assert F.member(above) and above not in F
    assert diamond.subset(["t", "a"]) in F


@settings(max_examples=60, deadline=None)
@given(poset_and_tuple(max_n=5, max_k=3))
def test_constructors_return_families(pt):
    P, t = pt
    chain = next(iter(P.chains()), None)
    U = chains_meeting(P, t[0])
    made = [thread_sets(P, t), U, compose(P, U, thread_sets(P, t)),
            family(P, (c for c in P.chains() if c.bit_count() <= 2))]
    if chain is not None:
        made.append(principal(P, chain))
    empty = [minimize([]), minimize(()), compose(P, EMPTY_FAMILY, U),
             compose(P, U, EMPTY_FAMILY)]
    for F in made + empty:
        assert type(F) is ChainFamily
    assert all(F == EMPTY_FAMILY for F in empty)


def test_no_caller_tests_a_family_for_truth(monkeypatch, tmp_path, capsys):
    """An empty family is a false set; no library path may rely on that."""
    from threadsets import cli, serialize, verify
    from threadsets.classify import (CLASSIFIED_SHAPES, ZERO, classify_dim0,
                                     classify_dim1, classify_dim2,
                                     form_instances, normal_form, shape_of)

    def refuse(self):
        raise AssertionError("a family was tested for truth")

    monkeypatch.setattr(ChainFamily, "__bool__", refuse, raising=False)
    with pytest.raises(AssertionError):
        bool(EMPTY_FAMILY)
    for name, params in (("diamond", (2,)), ("star", (2,)), ("chain", (2,)),
                         ("torus2", (2,))):
        P = catalog(name, *params).poset
        reports = verify.run_suite("all", [(name, P)], verify.Bounds(max_k=2))
        assert all(r.passed for r in reports)
        for t in [(0,), (P.full,), (1, P.full, 1)]:
            F = thread_sets(P, t)
            normal_form(P, t)
            assert serialize.family_from_dict(
                P, serialize.family_to_dict(P, F)) == F
        if shape_of(P) in CLASSIFIED_SHAPES:
            assert form_instances(P)
    # each classifier's own empty-family case
    for name, params, classifier in (("chain", (0,), classify_dim0),
                                     ("star", (2,), classify_dim1),
                                     ("diamond", (2,), classify_dim2)):
        assert classifier(catalog(name, *params).poset, EMPTY_FAMILY) == ZERO
    poset = tmp_path / "p.json"
    poset.write_text('{"elements": ["t", "a"], "relations": ["a < t"]}')
    for doc, name in (("[[\"t\"], [\"t\"]]", "t1"), ("[[]]", "t2")):
        (tmp_path / name).write_text(doc)
    for command in ("tset", "threads", "classify", "reduce"):
        assert cli.main([command, "--poset", str(poset),
                         "--tuple", str(tmp_path / "t2")]) == 0
    assert cli.main(["eq", "--poset", str(poset), "--tuple",
                     str(tmp_path / "t1"), "--tuple", str(tmp_path / "t2")]) == 1
    capsys.readouterr()


def test_generators_recoverable_from_membership():
    # stored generators equal the minimal members of the extension
    for P in all_posets(3):
        for a in range(1 << P.n):
            for b in range(1 << P.n):
                F = thread_sets(P, (a, b))
                ext = {c for c in brute_chains(P) if F.member(c)}
                assert frozenset(minimal_members(ext)) == F.generators


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_membership_upward_closure_random(data):
    P = data.draw(random_posets(max_n=5))
    k = data.draw(st.integers(min_value=1, max_value=3))
    t = tuple(data.draw(st.integers(min_value=0, max_value=P.full))
              for _ in range(k))
    F = thread_sets(P, t)
    for chain in P.chains():
        if F.member(chain):
            for bigger in P.chains():
                if chain | bigger == bigger:
                    assert F.member(bigger)


# -- chains_meeting / principal / singleton_tuple

def test_chains_meeting_trivial(diamond):
    assert chains_meeting(diamond, 0) == EMPTY_FAMILY
    p = diamond.subset(["a"])
    assert chains_meeting(diamond, p).generators == frozenset({p})


def test_chains_meeting_rejects_outside_bits(diamond):
    for mask in (1 << diamond.n, diamond.full | 1 << diamond.n, -1):
        with pytest.raises(UnknownElement):
            chains_meeting(diamond, mask)


def test_chains_meeting_equals_one_uple_thread_sets():
    for n in range(5):
        for P in all_posets(n):
            for a in range(1 << P.n):
                assert chains_meeting(P, a) == thread_sets(P, (a,))


# -- per-mask tables of the poset operators and of chains_meeting

def _memoized(P, chains):
    """(operator, its table on P, its table-free definition) per operator."""
    return [
        (P.down_set, P._down_sets, lambda m: brute_down_set(P, m)),
        (P.up_set, P._up_sets, lambda m: brute_up_set(P, m)),
        (P.below_all, P._floors, lambda m: brute_below_all(P, m)),
        (lambda m: set(chains_meeting(P, m).generators), P._meeting,
         lambda m: brute_chains_meeting(P, m, chains)),
    ]


def _check_tables(P, masks, bad_masks, chains):
    for operator, table, definition in _memoized(P, chains):
        for mask in masks:
            expected = definition(mask)
            assert mask not in table
            assert operator(mask) == expected  # a miss fills the table
            assert mask in table
            assert operator(mask) == expected  # a hit reads it
        for mask in bad_masks:
            for _ in range(2):
                with pytest.raises(UnknownElement):
                    operator(mask)
            assert mask not in table
        assert len(table) <= 1 << P.n


bad_offsets = st.lists(st.integers(min_value=1, max_value=1 << 70)
                     | st.integers(min_value=-(1 << 70), max_value=-1),
                     min_size=1, max_size=3, unique=True)


@settings(max_examples=60, deadline=None)
@given(random_posets(max_n=6), st.randoms(use_true_random=False), bad_offsets)
def test_tables_match_definitions_random(P, rng, offsets):
    masks = list(range(1 << P.n))
    rng.shuffle(masks)
    bad = [P.full + o if o > 0 else o for o in offsets]
    _check_tables(P, masks, bad, brute_chains(P))


@cache
def _chain15_chains() -> frozenset[int]:
    return frozenset(brute_chains(catalog("chain", 15).poset))


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1),
                min_size=1, max_size=2, unique=True), bad_offsets)
def test_tables_match_definitions_on_chain15(masks, offsets):
    P = catalog("chain", 15).poset  # a fresh poset: every first call misses
    bad = [P.full + o if o > 0 else o for o in offsets]
    _check_tables(P, masks, bad, _chain15_chains())


def _short_chains(P) -> list[int]:
    """The chains of one or two elements.  Every minimal chain meeting a
    subset is a singleton, so ``brute_chains_meeting`` over these agrees
    with it over every chain, without enumerating those of a large poset."""
    return [1 << i | 1 << j for i in range(P.n) for j in range(i, P.n)
            if P.le(i, j) or P.le(j, i)]


# random posets on each side of the byte tables' block edges at 8/9 and
# 16/17, and two named ones; each drawn poset is fresh, so every first call
# gathers from the bytes
BLOCK_EDGE_POSETS = {
    **{f"n={n}": random_posets(min_n=n, max_n=n)
       for n in (0, 1, 7, 8, 9, 15, 16, 17, 20)},
    "chain(15)": st.builds(lambda: catalog("chain", 15).poset),
    "star(20)": st.builds(lambda: catalog("star", 20).poset)}


@pytest.mark.parametrize("posets", BLOCK_EDGE_POSETS.values(),
                         ids=BLOCK_EDGE_POSETS)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), offsets=bad_offsets)
def test_tables_match_definitions_across_byte_blocks(posets, data, offsets):
    P = data.draw(posets)
    drawn = data.draw(st.lists(st.integers(min_value=0, max_value=P.full),
                               max_size=6))
    masks = list(dict.fromkeys([0, P.full, *drawn]))
    bad = [P.full + o if o > 0 else o for o in offsets]
    _check_tables(P, masks, bad, _short_chains(P))


def test_principal_matches_meeting_on_singletons(diamond):
    p = diamond.subset(["a"])
    assert principal(diamond, p) == chains_meeting(diamond, p)


def test_principal_membership(diamond):
    F = principal(diamond, diamond.subset(["t", "m"]))
    assert F.member(diamond.subset(["t", "a", "m"]))


def test_principal_rejects_bad_chains(diamond):
    with pytest.raises(EmptyChain):
        principal(diamond, 0)
    with pytest.raises(NotAChain):
        principal(diamond, diamond.subset(["a", "b"]))


def test_singleton_tuple_chain(chain1):
    C = chain1.subset(["0", "1"])
    assert singleton_tuple(chain1, C) == (chain1.subset(["1"]),
                                          chain1.subset(["0"]))
    assert singleton_tuple(chain1, chain1.subset(["0"])) == (
        chain1.subset(["0"]),)
    with pytest.raises(EmptyChain):
        singleton_tuple(chain1, 0)


def test_singleton_tuple_thread_sets_are_principal():
    for n in range(5):
        for P in all_posets(n):
            for chain in P.chains():
                assert thread_sets(P, singleton_tuple(P, chain)) == principal(
                    P, chain)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_singleton_tuple_principal_random(data):
    P = data.draw(random_posets(max_n=6))
    chains = list(P.chains())
    if not chains:
        return
    chain = data.draw(st.sampled_from(chains))
    assert thread_sets(P, singleton_tuple(P, chain)) == principal(P, chain)


# -- compose

def test_compose_chain_example(chain1):
    U = chains_meeting(chain1, chain1.subset(["1"]))
    V = chains_meeting(chain1, chain1.subset(["0"]))
    assert compose(chain1, U, V).generators == frozenset(
        {chain1.subset(["0", "1"])})


def test_compose_with_empty(diamond):
    U = chains_meeting(diamond, diamond.subset(["t"]))
    assert compose(diamond, U, EMPTY_FAMILY) == EMPTY_FAMILY
    assert compose(diamond, EMPTY_FAMILY, U) == EMPTY_FAMILY


def _definitional_product(P, U, V):
    """Generators of the definitional member-pair product of U and V."""
    return frozenset(minimal_members(brute_compose_members(
        P, brute_family_members(P, U), brute_family_members(P, V))))


def test_compose_shortcuts_match_definitional_product(diamond):
    """compose returns early for an empty factor, and minimize returns
    at once for at most one compatible generator union; every return is
    still the definitional product."""
    def fam(*chains):
        return family(diamond, [diamond.subset(c) for c in chains])

    T, A, B, M = fam(["t"]), fam(["a"]), fam(["b"]), fam(["m"])
    cases = [  # (U, V, number of compatible generator unions)
        (EMPTY_FAMILY, T, 0), (T, EMPTY_FAMILY, 0),
        (EMPTY_FAMILY, EMPTY_FAMILY, 0),
        (A, T, 0), (A, B, 0), (fam(["a"], ["b"]), T, 0),
        (T, A, 1), (fam(["t", "a"]), M, 1), (A, M, 1), (T, T, 1),
        (T, fam(["a"], ["b"]), 2), (T, fam(["t"], ["a"]), 2),
    ]
    for U, V, unions in cases:
        assert len(brute_compose_members(diamond, U, V)) == unions
        got = compose(diamond, U, V)
        assert type(got) is ChainFamily
        assert got == _definitional_product(diamond, U, V)


def test_compose_of_principal_families_on_chain4():
    # every pair of the 31 chains: generators of 3 or more elements meet
    # here, which no corpus tuple of length <= 3 composes
    P = catalog("chain", 4).poset
    principals = [principal(P, c) for c in P.chains()]
    assert len(principals) == 31
    for U in principals:
        for V in principals:
            assert compose(P, U, V) == _definitional_product(P, U, V)


def _enumerated_thread_sets(P, t):
    """Minimal supports of the enumerated threads: the non-fold reference."""
    return frozenset(minimize({support for _, support in threads(P, t)}))


def test_compose_decomposes_thread_sets_small():
    for P in all_posets(3):
        for a in range(1 << P.n):
            for b in range(1 << P.n):
                assert thread_sets(P, (a, b)).generators == \
                    _enumerated_thread_sets(P, (a, b))


def test_thread_sets_match_enumerated_threads_long_chain():
    # 170 544 threads on chain(15) with seven full parts, which collapse
    # to one part, and the windows, which keep all seven
    P = catalog("chain", 15).poset
    assert canonical(P, (P.full,) * 7) == (P.full,)
    assert canonical(P, CHAIN15_WINDOWS) == CHAIN15_WINDOWS
    for t in ((P.full,) * 7, CHAIN15_WINDOWS):
        assert thread_sets(P, t).generators == _enumerated_thread_sets(P, t)


@settings(max_examples=100, deadline=None)
@given(poset_and_tuple(max_n=5, max_k=3))
def test_compose_matches_definitional_product_random(pt):
    # generator composition equals the definitional member-pair product
    P, t = pt
    U = thread_sets(P, t[:1])
    V = thread_sets(P, t[1:]) if len(t) > 1 else chains_meeting(P, t[0])
    for left, right in ((U, V), (V, U), (U, EMPTY_FAMILY),
                        (EMPTY_FAMILY, V)):
        got = compose(P, left, right)
        expected = brute_compose_members(
            P, brute_family_members(P, left.generators),
            brute_family_members(P, right.generators))
        assert type(got) is ChainFamily
        assert brute_family_members(P, got.generators) == expected
        assert got.generators == frozenset(minimal_members(expected))


def _small_generator_families(P):
    """Every family with at most two generators over P."""
    chains = list(P.chains())
    fams = [EMPTY_FAMILY]
    fams += [ChainFamily(frozenset((c,))) for c in chains]
    for i, c in enumerate(chains):
        for d in chains[i + 1:]:
            if c & d != c and c & d != d:  # inclusion-incomparable
                fams.append(ChainFamily(frozenset((c, d))))
    return fams


def test_compose_associative_two_generator_families_exhaustive(
        antichain3, star2, chain2, two_chains):
    for P in (antichain3, star2, chain2, two_chains):
        fams = _small_generator_families(P)
        cache = {}

        def prod(U, V):
            key = (U, V)
            if key not in cache:
                cache[key] = compose(P, U, V)
            return cache[key]

        for U in fams:
            for V in fams:
                for W in fams:
                    assert prod(prod(U, V), W) == prod(U, prod(V, W))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compose_associative_random(data):
    P = data.draw(random_posets(max_n=5))
    fams = [thread_sets(P, (data.draw(st.integers(0, P.full)),
                            data.draw(st.integers(0, P.full))))
            for _ in range(3)]
    U, V, W = fams
    assert compose(P, compose(P, U, V), W) == compose(P, U, compose(P, V, W))


@settings(max_examples=100, deadline=None)
@given(poset_and_tuple(max_n=5, max_k=3))
def test_concatenation_law_random(pt):
    P, t = pt
    F = thread_sets(P, t)
    assert F.generators == _enumerated_thread_sets(P, t)
    for j in range(1, len(t)):
        assert F == compose(P, thread_sets(P, t[:j]), thread_sets(P, t[j:]))


@settings(max_examples=100, deadline=None)
@given(poset_and_tuple(max_n=5, max_k=3))
def test_canonical_preserves_thread_sets_random(pt):
    # the reference is the walk of the unreduced tuple, since thread_sets
    # itself folds over the canonical form
    P, t = pt
    walked = _enumerated_thread_sets(P, t)
    reduced = canonical(P, t)
    assert _enumerated_thread_sets(P, reduced) == walked
    assert thread_sets(P, reduced) == walked
    assert (not walked) == (reduced == ZERO_TUPLE)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_two_part_reduction_shadows_random(data):
    P = data.draw(random_posets(max_n=5))
    a = data.draw(st.integers(0, P.full))
    b = data.draw(st.integers(0, P.full))
    walked = _enumerated_thread_sets(P, (a, b))
    for shadow in ((a & P.up_set(b), b), (a, b & P.down_set(a))):
        assert _enumerated_thread_sets(P, shadow) == walked
        assert thread_sets(P, shadow) == walked

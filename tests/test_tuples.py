from __future__ import annotations

import functools
import inspect
import operator
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_is_downward_concatenated,
                     brute_is_upward_concatenated, brute_prune_downward,
                     brute_prune_upward, brute_thread_prune,
                     collapse_results_all_orders)
from test_poset import random_posets
from threadsets.catalog import catalog
from threadsets.classify import normal_form
from threadsets.errors import NotUpwardClosed, UnknownElement
from threadsets.families import thread_sets
from threadsets.poset import Poset
from threadsets.tuples import (ZERO_TUPLE, canonical, check_tuple, collapse,
                               is_collapsed, is_concatenated,
                               is_downward_concatenated,
                               is_upward_concatenated, prune_downward,
                               prune_to_threads, prune_to_threads_direct,
                               prune_upward, restrict, threads)
from threadsets.verify import _collapse_by_removals, all_posets


# catalog posets, at most 7 elements, for tuples longer than the walk reaches
CATALOG_POSETS = [catalog(*entry).poset for entry in (
    ("chain", 2), ("chain", 4), ("chromatic", 3), ("star", 3), ("diamond", 2),
    ("diamond", 3), ("zariski_xy", 1, 1), ("zariski_xy", 2, 2),
    ("circle", 3), ("torus2", 2))]


@st.composite
def poset_and_tuple(draw, max_n=5, max_k=3):
    P = draw(random_posets(max_n=max_n))
    k = draw(st.integers(min_value=1, max_value=max_k))
    parts = tuple(draw(st.integers(min_value=0, max_value=P.full))
                  for _ in range(k))
    return P, parts


# -- prune_upward / prune_downward

def test_prune_upward_star(star2):
    t = (star2.subset(["a", "b"]), star2.subset(["t"]))
    assert prune_upward(star2, t) == (star2.subset(["a", "b"]), 0)


def test_prune_upward_fixes_chain(chain1):
    t = (chain1.subset(["1"]), chain1.subset(["0"]))
    assert prune_upward(chain1, t) == t


def test_prune_downward_star(star2):
    t = (star2.subset(["a"]), star2.subset(["t"]))
    assert prune_downward(star2, t) == (0, star2.subset(["t"]))


def test_prune_downward_fixes_chain(chain1):
    t = (chain1.subset(["1"]), chain1.subset(["0"]))
    assert prune_downward(chain1, t) == t


def test_prune_retractions_fix_concatenated():
    for P in all_posets(3):
        for a in range(1 << P.n):
            for b in range(1 << P.n):
                t = (a, b)
                if is_upward_concatenated(P, t):
                    assert prune_upward(P, t) == t
                if is_downward_concatenated(P, t):
                    assert prune_downward(P, t) == t


# -- prune_to_threads

def test_thread_prune_antichain_example(antichain3):
    t = (antichain3.subset(["p", "r"]), antichain3.subset(["q", "r"]))
    r = antichain3.subset(["r"])
    assert prune_to_threads(antichain3, t) == (r, r)
    assert is_collapsed(t) and not is_collapsed((r, r))


def test_thread_prune_fixes_concatenated(two_chains):
    t = (two_chains.subset(["p1", "q1"]), two_chains.subset(["p2", "q2"]))
    assert prune_to_threads(two_chains, t) == t


def test_thread_prune_one_uples_are_fixed():
    for P in all_posets(3):
        for a in range(1 << P.n):
            assert prune_upward(P, (a,)) == (a,)
            assert prune_downward(P, (a,)) == (a,)
            assert prune_to_threads(P, (a,)) == (a,)


@settings(max_examples=150, deadline=None)
@given(poset_and_tuple())
def test_thread_prune_laws_random(pt):
    P, t = pt
    pruned = prune_to_threads(P, t)
    assert pruned == prune_upward(P, prune_downward(P, t))
    assert pruned == prune_to_threads_direct(P, t)
    assert pruned == brute_thread_prune(P, t)
    assert pruned == prune_to_threads(P, pruned)
    assert is_concatenated(P, pruned) or all(p == 0 for p in pruned)


# -- collapse

def test_collapse_duplicate_part():
    assert collapse((0b1, 0b1)) == (0b1,)


def test_collapse_two_removals():
    a, ab = 0b01, 0b11
    assert collapse((a, ab, a)) == (a,)


def test_collapse_fixes_collapsed():
    t = (0b01, 0b10, 0b01)
    assert is_collapsed(t)
    assert collapse(t) == t


def test_collapse_empty_parts_reduce_to_zero():
    # the empty part is contained in any neighbour, which then gets dropped
    assert collapse((0, 0, 0)) == ZERO_TUPLE
    assert collapse((0, 0b1)) == ZERO_TUPLE
    assert collapse((0b1, 0)) == ZERO_TUPLE


def test_collapse_rule_is_locally_confluent():
    # Newman's lemma (M. H. A. Newman, Annals of Mathematics 43, 1942): a
    # terminating rewriting system that is locally confluent is confluent.
    # A removal shortens the tuple, so the collapse rule terminates.  Two
    # removals at adjacent pairs that share no part commute, so a fork that
    # may not join lies within two or three adjacent parts (Knuth & Bendix,
    # "Simple word problems in universal algebras", 1970).  Which removals
    # apply there depends only on the inclusions among those parts, and
    # 3-bit masks realize every inclusion pattern of three sets: part i as
    # the set of the parts included in it.  So one normal form for every
    # such window makes collapse independent of the removal order.
    for width in (3, 4):
        for k in (2, 3):
            for t in product(range(1 << width), repeat=k):
                assert collapse_results_all_orders(t) == {collapse(t)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=5))
def test_collapse_confluent_random(parts):
    t = tuple(parts)
    results = collapse_results_all_orders(t)
    assert results == frozenset((collapse(t),))
    assert _collapse_by_removals(t) == collapse(t)
    assert is_collapsed(collapse(t))
    assert collapse(collapse(t)) == collapse(t)


@settings(max_examples=150, deadline=None)
@given(poset_and_tuple(max_k=4))
def test_collapse_preserves_concatenated_random(pt):
    P, t = pt
    up = prune_upward(P, t)
    assert is_upward_concatenated(P, collapse(up))
    down = prune_downward(P, t)
    assert is_downward_concatenated(P, collapse(down))


# -- predicates

def test_predicates_chain(chain2):
    t = (chain2.subset(["2"]), chain2.subset(["1"]), chain2.subset(["0"]))
    assert is_concatenated(chain2, t)
    assert is_collapsed(t)


def test_predicates_equal_parts():
    assert not is_collapsed((0b1, 0b1))


def test_predicates_one_uple(diamond):
    t = (diamond.subset(["a"]),)
    assert is_upward_concatenated(diamond, t)
    assert is_downward_concatenated(diamond, t)
    assert is_concatenated(diamond, t)
    assert is_collapsed(t)


# the four scan kernels and their oracles from the definitions
KERNELS = [(prune_upward, brute_prune_upward),
           (prune_downward, brute_prune_downward),
           (is_upward_concatenated, brute_is_upward_concatenated),
           (is_downward_concatenated, brute_is_downward_concatenated)]


def _outcome(fn, P, parts):
    try:
        return fn(P, parts)
    except UnknownElement:
        return UnknownElement


@st.composite
def poset_and_tuple_with_bad_masks(draw, max_n=6, max_k=5):
    """A tuple over a poset with n <= max_n and k <= max_k; some parts may
    be swapped for masks with bits outside the poset, or negative."""
    P, parts = draw(poset_and_tuple(max_n=max_n, max_k=max_k))
    parts = list(parts)
    for i in draw(st.lists(st.integers(0, len(parts) - 1), max_size=2)):
        parts[i] = draw(st.integers(min_value=P.full + 1, max_value=1 << 12)
                        | st.integers(min_value=-(1 << 12), max_value=-1))
    return P, tuple(parts)


@settings(max_examples=150, deadline=None)
@given(st.one_of(poset_and_tuple(max_n=6, max_k=5),
                 poset_and_tuple_with_bad_masks()))
def test_kernels_match_definitions_random(pt):
    P, parts = pt
    for kernel, oracle in KERNELS:
        expected = _outcome(oracle, P, parts)
        assert _outcome(kernel, P, parts) == expected
        assert _outcome(kernel, P, parts) == expected  # tables filled


def test_kernels_validate_the_masks_they_close(diamond):
    bad = 1 << diamond.n
    a = diamond.subset(["a"])
    for kernel, oracle in KERNELS:
        for parts in ((bad,), (a, bad), (bad, a), (a, a, bad), (bad, a, a)):
            assert _outcome(kernel, diamond, parts) == \
                _outcome(oracle, diamond, parts)
    # pinned: the closed part is the first for the upward scans and the
    # last for the downward ones; a one-part tuple closes none
    assert prune_upward(diamond, (bad,)) == (bad,)
    assert prune_upward(diamond, (a, bad)) == (a, 0)
    assert prune_downward(diamond, (bad, a)) == (0, a)
    assert not is_upward_concatenated(diamond, (a, bad))
    assert not is_downward_concatenated(diamond, (bad, a))
    for kernel, parts in ((prune_upward, (bad, a)),
                          (prune_downward, (a, bad)),
                          (is_upward_concatenated, (bad, a)),
                          (is_downward_concatenated, (a, bad)),
                          (is_downward_concatenated, (a, a, -1))):
        with pytest.raises(UnknownElement):
            kernel(diamond, parts)


def test_direct_prune_validates_every_part(diamond):
    a = diamond.subset(["a"])
    for parts in ((-1,), (1 << diamond.n,), (a, -1), (-1, a),
                  (a, 1 << diamond.n)):
        with pytest.raises(UnknownElement):
            prune_to_threads_direct(diamond, parts)
    with pytest.raises(ValueError):
        prune_to_threads_direct(diamond, ())


def _raised(fn, *args):
    """The type and message of what ``fn(*args)`` raises, None if nothing;
    a generator is run to its end."""
    try:
        out = fn(*args)
        if inspect.isgenerator(out):
            list(out)
    except (ValueError, UnknownElement) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("fixture", ["diamond", "two_chains"])
def test_validating_callers_raise_what_check_tuple_raises(request, fixture):
    # the empty tuple, a part outside the poset first, in the middle and
    # last, and a negative part: each caller of check_tuple raises exactly
    # its error, on a classified shape and outside the classified shapes
    P = request.getfixturevalue(fixture)
    a, bad = P.full & 3, 1 << P.n
    callers = [threads, lambda P, t: restrict(P, t, P.full), thread_sets,
               normal_form]
    cases = [(), (bad, a, a), (a, bad, a), (a, a, bad), (a, -1, a),
             (-1, bad), (bad, -1)]
    for parts in cases:
        expected = _raised(check_tuple, P, parts)
        assert expected is not None
        for caller in callers:
            assert _raised(caller, P, parts) == expected, (caller, parts)
    assert check_tuple(P, (a, a)) == (a, a)


def test_empty_tuple_rejected(diamond):
    for kernel, oracle in KERNELS:
        for fn in (kernel, oracle):
            with pytest.raises(ValueError):
                fn(diamond, ())
    with pytest.raises(ValueError):
        collapse(())
    with pytest.raises(ValueError):
        is_collapsed(())


# -- canonical

def test_canonical_antichain_example(antichain3):
    t = (antichain3.subset(["p", "r"]), antichain3.subset(["q", "r"]))
    assert canonical(antichain3, t) == (antichain3.subset(["r"]),)


def test_canonical_zero(chain1):
    t = (chain1.subset(["0"]), chain1.subset(["1"]))
    assert canonical(chain1, t) == ZERO_TUPLE


def test_canonical_fixes_collapsed_concatenated(chain2):
    t = (chain2.subset(["2"]), chain2.subset(["1"]), chain2.subset(["0"]))
    assert canonical(chain2, t) == t


def test_canonical_stops_at_the_first_empty_part(chain2, monkeypatch):
    # a tuple without a thread leaves the forward pass at its first empty
    # part: no down-set past it and no up-set at all, also when only the
    # last part empties
    calls = []
    for name in ("down_set", "up_set"):
        method = getattr(Poset, name)
        monkeypatch.setattr(Poset, name,
                            lambda P, mask, name=name, method=method:
                            calls.append(name) or method(P, mask))
    zero, one, two = (chain2.subset([x]) for x in "012")
    for t, down_sets in (((zero, one, two, two), 1), ((two, one, two), 2),
                         ((two, two, one, zero, one), 4)):
        calls.clear()
        assert canonical(chain2, t) == ZERO_TUPLE
        assert calls == ["down_set"] * down_sets


@st.composite
def catalog_tuple_with_edge_masks(draw, max_k=16):
    """0 to ``max_k`` parts over a catalog poset: mostly unions of one to
    three random masks, so that long tuples still have threads, and also
    ``0``, ``P.full``, negative masks and masks with bits outside it."""
    P = draw(st.sampled_from(CATALOG_POSETS))
    dense = st.lists(st.integers(min_value=0, max_value=P.full),
                     min_size=1, max_size=3).map(
        lambda ms: functools.reduce(operator.or_, ms))
    mask = st.one_of(dense, dense, dense, st.just(0), st.just(P.full),
                     st.integers(min_value=-(1 << 12), max_value=-1),
                     st.integers(min_value=P.full + 1, max_value=1 << 12))
    return P, tuple(draw(st.lists(mask, max_size=max_k)))


def _result(fn, P, parts):
    try:
        return fn(P, parts)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(catalog_tuple_with_edge_masks())
def test_canonical_is_the_collapsed_thread_prune(pt):
    # the two-pass kernel against the composite it replaces: the same
    # tuple, or the same exception type and message
    P, t = pt
    assert _result(canonical, P, t) == \
        _result(lambda P, t: collapse(prune_to_threads(P, t)), P, t)


@settings(max_examples=150, deadline=None)
@given(poset_and_tuple())
def test_canonical_idempotent_random(pt):
    P, t = pt
    c = canonical(P, t)
    assert canonical(P, c) == c
    assert c == ZERO_TUPLE or (is_collapsed(c) and is_concatenated(P, c))


# -- restrict

def test_restrict_diamond(diamond):
    z = diamond.subset(["t", "a"])
    t = (diamond.subset(["t", "b"]), diamond.subset(["a", "m"]))
    assert restrict(diamond, t, z) == (diamond.subset(["t"]),
                                       diamond.subset(["a"]))


def test_restrict_full_is_identity(diamond):
    t = (diamond.subset(["t", "b"]), diamond.subset(["a", "m"]))
    assert restrict(diamond, t, diamond.full) == t


def test_restrict_rejects_non_upward_closed(diamond):
    with pytest.raises(NotUpwardClosed):
        restrict(diamond, (diamond.full,), diamond.subset(["m"]))


@pytest.mark.parametrize("parts", [(-1,), (1 << 10, 1)])
def test_restrict_rejects_parts_outside_the_poset(parts):
    # a part with bits outside the poset is rejected, not clipped to zone
    P = catalog("diamond", 2).poset
    with pytest.raises(UnknownElement):
        restrict(P, parts, P.full)


@settings(max_examples=150, deadline=None)
@given(poset_and_tuple())
def test_restriction_identity_random(pt):
    # appending an upward closed zone equals restricting to it
    P, t = pt
    for seed_mask in (0, P.full, t[0], t[-1] >> 1):
        zone = P.up_set(seed_mask & P.full)
        appended = canonical(P, t + (zone,))
        assert appended == canonical(P, restrict(P, t, zone))
        assert appended == canonical(P, restrict(P, t, zone) + (zone,))

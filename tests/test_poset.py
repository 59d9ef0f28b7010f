from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_chains, brute_dimension, brute_reachability
from threadsets.catalog import catalog
from threadsets.errors import (BadParameter, CycleDetected, DuplicateElement,
                               UnknownElement)
from threadsets.poset import Poset, bits, build_poset
from threadsets.verify import all_posets


def subsets(P):
    return range(1 << P.n)


# -- construction

def test_build_diamond_extremes(diamond):
    assert diamond.labels(diamond.maximal_elements()) == ("t",)
    assert diamond.labels(diamond.minimal_elements()) == ("m",)


def test_build_star_extremes(star2):
    assert star2.labels(star2.maximal_elements()) == ("t",)
    assert star2.labels(star2.minimal_elements()) == ("a", "b")


def test_build_singleton():
    P = build_poset(["p"], [])
    assert P.dimension() == 0
    assert P.maximal_elements() == P.minimal_elements() == 1


def test_build_closure_is_transitive(chain2):
    assert chain2.le(chain2.index("0"), chain2.index("2"))


def test_covers_are_transitive_reduction(chain2, diamond):
    assert chain2.covers == ((0, 1), (1, 2))
    named = {(diamond.elements[i], diamond.elements[j])
             for i, j in diamond.covers}
    assert named == {("a", "t"), ("b", "t"), ("m", "a"), ("m", "b")}


def test_build_cycle_detected():
    with pytest.raises(CycleDetected):
        build_poset(["x", "y"], [("x", "y"), ("y", "x")])
    with pytest.raises(CycleDetected):
        build_poset(["x"], [("x", "x")])
    with pytest.raises(CycleDetected):
        build_poset(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])


def test_build_duplicate_element():
    with pytest.raises(DuplicateElement):
        build_poset(["p", "p"], [])


@pytest.mark.parametrize("elements, down, error", [
    (("a", "a"), (1, 2), DuplicateElement),
    (("a", "b"), (1,), BadParameter),
    (("a",), (0b11,), BadParameter),
    (("a",), (-1,), BadParameter),
    (("a",), (0,), BadParameter),
    (("a", "b", "c"), (0b001, 0b011, 0b110), BadParameter),
    (("a", "b"), (0b11, 0b11), CycleDetected),
    (("a",), ("1",), BadParameter),
    (("a",), (True,), BadParameter),
    (("a",), (1.0,), BadParameter),
    ((None,), (1,), BadParameter),
    ((1,), (1,), BadParameter),
    ((["a"],), (1,), BadParameter),
    ("ab", (1, 2), BadParameter),
    (("a",), "1", BadParameter),
    (("a", "b"), b"\x01\x02", BadParameter),
    (["a"], 1, BadParameter),
    (1, (), BadParameter),
], ids=["repeated-label", "row-count", "bit-outside", "negative-row",
        "row-without-own-bit", "not-transitive", "two-cycle", "str-row",
        "bool-row", "float-row", "none-label", "int-label", "list-label",
        "str-elements", "str-down", "bytes-down", "int-down", "int-elements"])
def test_constructor_rejects_non_orders(elements, down, error):
    with pytest.raises(error):
        Poset(elements, down)


def test_constructor_stores_tuples():
    # a poset built from lists is the poset built from tuples, and hashable
    listed, tupled = Poset(["a", "b"], [1, 2]), Poset(("a", "b"), (1, 2))
    assert listed.elements == ("a", "b") and listed.down == (1, 2)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert len({listed, tupled}) == 1


def test_build_unknown_element_in_relation():
    with pytest.raises(UnknownElement):
        build_poset(["p"], [("p", "q")])


def test_subset_unknown_element(diamond):
    with pytest.raises(UnknownElement):
        diamond.subset(["nope"])
    with pytest.raises(UnknownElement):
        diamond.check_subset(1 << diamond.n)


@pytest.mark.parametrize("method", ["down_set", "up_set", "is_chain"])
def test_subset_operators_reject_outside_bits(diamond, method):
    operator = getattr(diamond, method)
    for mask in (1 << diamond.n, diamond.full | 1 << diamond.n,
                 1 << (diamond.n + 60), -1):
        with pytest.raises(UnknownElement):
            operator(mask)
    operator(diamond.full)


# -- family and cofamily operators

def test_down_set_diamond(diamond):
    assert diamond.labels(diamond.down_set(diamond.subset(["a"]))) == ("a", "m")
    assert diamond.labels(diamond.up_set(diamond.subset(["a"]))) == ("t", "a")


def test_down_set_trivial_cases(diamond):
    assert diamond.down_set(0) == 0
    assert diamond.up_set(0) == 0
    assert diamond.down_set(diamond.full) == diamond.full


def test_downward_closed_examples(diamond):
    # a downward closed subset is a fixed point of down_set
    closed = diamond.subset(["m", "a"])
    assert diamond.down_set(closed) == closed
    assert diamond.down_set(diamond.subset(["a"])) != diamond.subset(["a"])
    assert diamond.is_upward_closed(0)
    assert diamond.is_upward_closed(diamond.full)


def test_closure_complement_duality():
    for P in all_posets(3):
        for s in subsets(P):
            assert (P.down_set(s) == s) == P.is_upward_closed(P.full & ~s)


def test_operator_laws_small_posets():
    # monotone, idempotent, extensive, on every labeled poset up to 3 points
    for P in all_posets(3):
        for s in subsets(P):
            down, up = P.down_set(s), P.up_set(s)
            assert down & s == s and up & s == s
            assert P.down_set(down) == down and P.up_set(up) == up
            for bigger in subsets(P):
                if s | bigger == bigger:
                    assert down & ~P.down_set(bigger) == 0
                    assert up & ~P.up_set(bigger) == 0
                    break


# -- chains and dimension

def test_chains_chain_poset(chain1):
    got = list(chain1.chains())
    assert sorted(got) == sorted([chain1.subset(["0"]), chain1.subset(["1"]),
                                  chain1.subset(["0", "1"])])


def test_chains_antichain():
    P = build_poset(["p", "q"], [])
    assert sorted(P.chains()) == [0b01, 0b10]


def test_chains_diamond_count(diamond):
    assert sum(1 for _ in diamond.chains()) == 11


def test_chains_are_unique_and_deterministic(diamond):
    got = list(diamond.chains())
    assert len(got) == len(set(got))
    assert got == list(diamond.chains())


def test_chains_leave_no_cycle(diamond):
    """An exhausted chain walk is freed by reference counting alone."""
    posets = [catalog("torus2", 2).poset, diamond]
    gc.collect()
    gc.disable()
    try:
        for P in posets:
            assert list(P.chains())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chains_match_brute_force():
    for P in all_posets(4):
        assert set(P.chains()) == brute_chains(P)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chains_match_brute_force_random(data):
    P = data.draw(random_posets(max_n=6))
    assert set(P.chains()) == brute_chains(P)


def test_dimension_examples(chain2, diamond):
    assert chain2.dimension() == 2
    assert diamond.dimension() == 2
    assert build_poset(["x", "y", "z"], []).dimension() == 0


def test_dimension_is_max_length():
    for P in all_posets(4):
        if P.n:
            assert P.dimension() == brute_dimension(P)
        else:
            assert P.dimension() == -1


def test_is_chain(diamond):
    assert diamond.is_chain(diamond.subset(["t", "a", "m"]))
    assert not diamond.is_chain(diamond.subset(["a", "b"]))
    assert diamond.is_chain(0)


def test_bits_helper():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


# -- randomized posets for property tests

@st.composite
def random_posets(draw, max_n: int = 5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    names = [f"x{i}" for i in range(n)]
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rels.append((names[i], names[j]))
    return build_poset(names, rels)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_down_set_properties_random(data):
    P = data.draw(random_posets())
    s = data.draw(st.integers(min_value=0, max_value=P.full))
    t = data.draw(st.integers(min_value=0, max_value=P.full))
    down = P.down_set(s)
    assert down & s == s
    assert P.down_set(down) == down
    assert P.down_set(s | t) == down | P.down_set(t)
    assert P.is_upward_closed(P.up_set(s))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_build_poset_matches_reachability(data):
    # relations in any index order, cycles and self-relations included
    n = data.draw(st.integers(min_value=0, max_value=7))
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    relations = data.draw(st.lists(st.tuples(index, index), max_size=14)
                          if n else st.just([]))
    names = [f"x{i}" for i in range(n)]
    labeled = [(names[a], names[b]) for a, b in relations]
    down, cyclic = brute_reachability(n, relations)
    if cyclic:
        with pytest.raises(CycleDetected, match=f"'{names[min(cyclic)]}'"):
            build_poset(names, labeled)
    else:
        assert build_poset(names, labeled).down == down


def test_poset_repr_lists_labels_and_covers(diamond):
    assert repr(diamond) == "Poset(['t', 'a', 'b', 'm'], [a<t, b<t, m<a, m<b])"
    assert repr(build_poset(["p"], [])) == "Poset(['p'], [])"


def test_poset_equality_and_hash(diamond):
    again = build_poset(["t", "a", "b", "m"],
                        [("a", "t"), ("b", "t"), ("m", "a"), ("m", "b")])
    assert diamond == again and hash(diamond) == hash(again)
    assert diamond != build_poset(["t", "a", "b", "m"], [("a", "t")])

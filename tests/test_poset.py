from __future__ import annotations

import gc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_chains, brute_dimension, brute_reachability
from threadsets.catalog import catalog, names
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


@pytest.mark.parametrize("method", ["down_set", "up_set", "below_all",
                                    "is_chain", "labels"])
def test_subset_operators_reject_outside_bits(diamond, method):
    # chain(9) has two byte blocks, so a miss there would gather from both
    for P in (diamond, catalog("chain", 9).poset):
        operator = getattr(P, method)
        tables = (P._down_sets, P._up_sets, P._floors, P._labels)
        for mask in (1 << P.n, P.full | 1 << P.n, 1 << (P.n + 60), -1):
            for _ in range(2):  # a rejected mask is never stored
                with pytest.raises(UnknownElement):
                    operator(mask)
            assert not any(mask in table for table in tables)
        assert P._bytes == [None, None, None]
        operator(P.full)


def test_byte_tables_are_built_on_first_miss_only():
    for P in (*all_posets(4), catalog("chain", 15).poset):
        assert P._bytes == [None, None, None]
    P = catalog("chain", 8).poset  # 9 elements: a full block and one bit
    P.down_set(0b101)
    tables = P._bytes[0]  # down_set's; up_set's and below_all's follow
    assert [len(table) for table in tables] == [256, 2]
    assert P._bytes[1:] == [None, None]
    P.down_set(1 << 8)  # another miss reads the same tables
    assert P._bytes[0] is tables
    P.up_set(1)
    assert [len(table) for table in P._bytes[1]] == [256, 2]
    assert P._bytes[2] is None
    P.below_all(1)
    assert [len(table) for table in P._bytes[2]] == [256, 2]
    assert P._bytes[0] is tables


@pytest.mark.parametrize("entry", [("diamond", 3), ("torus2", 2),
                                   ("zariski_xy", 2, 2)])
def test_labels_table_matches_the_elements(entry):
    P = catalog(*entry).poset
    for mask in subsets(P):
        want = tuple(e for i, e in enumerate(P.elements) if mask >> i & 1)
        assert P.labels(mask) == want
        assert P.labels(mask) == want  # the stored entry
    assert len(P._labels) == 1 << P.n


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


def _catalog_posets():
    """The poset of every catalog entry with one parameter up to 5 or two
    up to 3; a name refuses the parameter counts it does not take."""
    out = []
    for name in names():
        for arity, top in ((1, 6), (2, 4)):
            for params in product(range(top), repeat=arity):
                try:
                    out.append(catalog(name, *params).poset)
                except BadParameter:
                    pass
    return out


def test_extremes_equal_their_row_definitions():
    # stored at construction; the definitions read the rows directly
    posets = [P for n in range(6) for P in all_posets(n)] + _catalog_posets()
    for P in posets:
        assert P.maximal_elements() == sum(
            1 << i for i in range(P.n) if P.up[i] == 1 << i)
        assert P.minimal_elements() == sum(
            1 << i for i in range(P.n) if P.down[i] == 1 << i)


def test_is_chain(diamond):
    assert diamond.is_chain(diamond.subset(["t", "a", "m"]))
    assert not diamond.is_chain(diamond.subset(["a", "b"]))
    assert diamond.is_chain(0)


def test_bits_helper():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


# -- randomized posets for property tests

@st.composite
def random_posets(draw, max_n: int = 5, min_n: int = 0):
    """A poset on x0..x(n-1), with n sampled from min_n..max_n, in which
    each pair x_i, x_j with i < j is related when its bit of one drawn byte
    string is set.

    The size and the relations are one draw each.  Hypothesis follows each
    fresh example with up to five mutations that copy choices between
    parts drawn alike, which keeps the size, so one boolean per pair held
    each size for about seven examples.  A property that draws more after
    the poset is still mutated that way, so one that must reach given sizes
    pins each with ``min_n = max_n``.
    """
    n = draw(st.sampled_from(range(min_n, max_n + 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    size = (len(pairs) + 7) // 8
    related = int.from_bytes(draw(st.binary(min_size=size, max_size=size)),
                             "little")
    names = [f"x{i}" for i in range(n)]
    return build_poset(names, [(names[i], names[j])
                               for k, (i, j) in enumerate(pairs)
                               if related >> k & 1])


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

from __future__ import annotations

import pytest

from threadsets.catalog import MAX_PARAM, catalog, names
from threadsets.classify import DIM2_UNIQUE_EXTREMES, shape_of
from threadsets.errors import BadParameter, UnknownCatalogEntry
from threadsets.families import singleton_tuple, thread_sets
from threadsets.serialize import poset_to_dict

# each entry's least parameters and the largest value of any parameter;
# star and diamond name their middle primes from 24 letters
RANGES = {
    "chain": ((0,), MAX_PARAM),
    "chromatic": ((0,), MAX_PARAM),
    "star": ((0,), 24),
    "diamond": ((0,), 24),
    "zariski_xy": ((1, 1), MAX_PARAM),
    "circle": ((1,), MAX_PARAM),
    "torus2": ((1,), MAX_PARAM),
}


def test_names_are_sorted_and_complete():
    assert names() == sorted(names())
    assert set(names()) == {"chain", "chromatic", "circle", "diamond", "star",
                            "torus2", "zariski_xy"}


def test_chain_zero_is_single_point():
    entry = catalog("chain", 0)
    assert entry.poset.n == 1
    assert entry.poset.dimension() == 0


def test_chain_orientation():
    P = catalog("chain", 3).poset
    assert P.labels(P.minimal_elements()) == ("0",)
    assert P.labels(P.maximal_elements()) == ("3",)


def test_chromatic_matches_chain_with_full_tuple():
    entry = catalog("chromatic", 2)
    P = entry.poset
    full = entry.tuples["phi_full"]
    # heights 0,1,2 correspond to labels 2,1,0: a strictly descending chain
    assert [P.labels(part) for part in full] == [("2",), ("1",), ("0",)]


def test_chromatic_tuple_heights():
    # heights 0 < 2 name the chain of labels 3 - 0 and 3 - 2, top first
    P = catalog("chromatic", 3).poset
    t = singleton_tuple(P, P.subset(str(3 - a) for a in (0, 2)))
    assert [P.labels(part) for part in t] == [("3",), ("1",)]
    assert not thread_sets(P, t).is_empty()


def test_star_and_diamond_shapes():
    star = catalog("star", 3).poset
    assert star.n == 4 and star.dimension() == 1
    assert star.labels(star.maximal_elements()) == ("t",)
    dia = catalog("diamond", 3).poset
    assert dia.n == 5 and shape_of(dia) == DIM2_UNIQUE_EXTREMES
    # 24 middle primes, the most, each named by its own letter
    assert catalog("star", 24).poset.n == 25
    dia = catalog("diamond", 24).poset
    assert dia.n == 26 and shape_of(dia) == DIM2_UNIQUE_EXTREMES


def test_zariski_example_shape():
    entry = catalog("zariski_xy", 1, 1)
    P = entry.poset
    assert P.n == 5
    assert P.dimension() == 1
    assert P.maximal_elements().bit_count() == 2
    assert set(entry.tuples) == {"triple", "pair"}


def test_zariski_thread_set_identity():
    entry = catalog("zariski_xy", 2, 2)
    P = entry.poset
    assert thread_sets(P, entry.tuples["triple"]) == thread_sets(
        P, entry.tuples["pair"])


def test_circle_poset():
    P = catalog("circle", 3).poset
    assert P.labels(P.maximal_elements()) == ("T",)
    assert set(P.labels(P.minimal_elements())) == {"e", "C2", "C3"}
    assert P.dimension() == 1


def test_torus2_example_shape():
    entry = catalog("torus2", 2)
    P = entry.poset
    assert P.n == 6
    assert P.dimension() == 2
    assert P.labels(P.maximal_elements()) == ("T2",)
    assert set(P.labels(P.minimal_elements())) == {"F1", "F2", "e"}
    family_tuple = entry.tuples["family"]
    assert len(family_tuple) == 4  # A_0 .. A_{n+1} for n = 2
    assert P.labels(family_tuple[0]) == ("S1", "S2")
    assert P.labels(family_tuple[-1]) == ("F1", "F2", "e")


def test_torus2_reduction_identity():
    entry = catalog("torus2", 2)
    P = entry.poset
    assert thread_sets(P, entry.tuples["family"]) == thread_sets(
        P, entry.tuples["reduced"])


def test_torus2_private_finite_subgroups():
    P = catalog("torus2", 3).poset
    assert P.le(P.index("F1"), P.index("S1"))
    assert not P.le(P.index("F1"), P.index("S2"))
    assert P.le(P.index("e"), P.index("S2"))


def test_builders_are_deterministic():
    for name, params in [("chain", (3,)), ("diamond", (2,)),
                         ("zariski_xy", (2, 2)), ("torus2", (2,))]:
        first = catalog(name, *params)
        second = catalog(name, *params)
        assert first.poset == second.poset
        assert poset_to_dict(first.poset) == poset_to_dict(second.poset)
        assert first.tuples == second.tuples


def test_unknown_entry_and_bad_parameters():
    with pytest.raises(UnknownCatalogEntry):
        catalog("moebius", 1)
    with pytest.raises(BadParameter):
        catalog("chain")
    with pytest.raises(BadParameter):
        catalog("chain", -1)
    with pytest.raises(BadParameter):
        catalog("torus2", 0)
    with pytest.raises(BadParameter):
        catalog("zariski_xy", 0, 1)
    with pytest.raises(BadParameter):
        catalog("star", 999)
    for name, param in [("chromatic", -1), ("diamond", 25), ("circle", 0),
                        ("chain", MAX_PARAM + 1)]:
        with pytest.raises(BadParameter):
            catalog(name, param)
    # only an int is a parameter: a bool is not one, nor is a numeral
    assert set(RANGES) == set(names())
    for name, (least, _) in RANGES.items():
        for param in (True, "3", 2.5, None):
            with pytest.raises(BadParameter):
                catalog(name, *[param] * len(least))
    # one past each end of every entry's range, in every position
    for name, (least, most) in RANGES.items():
        for i, low in enumerate(least):
            for param in (low - 1, most + 1):
                params = list(least)
                params[i] = param
                with pytest.raises(BadParameter):
                    catalog(name, *params)
    with pytest.raises(UnknownCatalogEntry):
        catalog(["chain"], 1)

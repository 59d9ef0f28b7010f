from __future__ import annotations

import pytest

from hypothesis import given
from hypothesis import strategies as st

from threadsets.classify import (PAYLOAD_KEYS, NormalForm, ZERO,
                                 form_instances, normal_form)
from threadsets.errors import ParseError, SpectrumError, UnknownElement
from threadsets.families import chains_meeting, thread_sets
from threadsets.poset import build_poset
from threadsets.serialize import (dumps, family_from_dict, family_to_dict,
                                  form_from_dict, form_to_dict, load_poset,
                                  loads, poset_from_dict, poset_from_text,
                                  poset_to_dict, poset_to_dot, poset_to_text,
                                  tuple_from_lists, tuple_to_lists)

DIAMOND_DOC = {"elements": ["t", "a", "b", "m"],
               "relations": ["a < t", "b < t", "m < a", "m < b"]}


def test_poset_json_round_trip(diamond):
    assert poset_from_dict(DIAMOND_DOC) == diamond
    assert poset_from_dict(poset_to_dict(diamond)) == diamond


def test_poset_json_is_deterministic(diamond):
    assert dumps(poset_to_dict(diamond)) == dumps(poset_to_dict(diamond))


def test_poset_json_requires_exact_separator():
    with pytest.raises(ParseError):
        poset_from_dict({"elements": ["a", "b"], "relations": ["a<b"]})
    # a doubled space is not the separator: it denotes the element " b",
    # which does not exist here
    with pytest.raises(UnknownElement):
        poset_from_dict({"elements": ["a", "b"], "relations": ["a <  b"]})


def test_poset_json_shape_errors():
    with pytest.raises(ParseError):
        poset_from_dict(["not", "a", "poset"])
    with pytest.raises(ParseError):
        poset_from_dict({"elements": [1], "relations": []})
    with pytest.raises(ParseError):
        poset_from_dict({"elements": []})
    with pytest.raises(ParseError, match="surrogate"):  # not UTF-8 text
        poset_from_dict({"elements": ["a"], "relations": ["a < \udfff"]})


def test_poset_text_round_trip(diamond):
    assert poset_from_text(poset_to_text(diamond)) == diamond


def test_poset_text_comments_and_implicit_elements():
    text = """
    # a diamond, elements introduced by their relations
    t
    a < t
    b < t
    m < a
    m < b   # closing relation
    """
    P = poset_from_text(text)
    assert P.elements == ("t", "a", "b", "m")
    assert P.dimension() == 2


def test_poset_text_bad_relation_has_line_number():
    with pytest.raises(ParseError) as err:
        poset_from_text("a\nb\na <\n")
    assert err.value.line == 3


@pytest.mark.parametrize("elements", [["a < b", "t"], ["b<c"], ["a#b"],
                                      [" a"], ["a\t"], [""], ["a\u2028b"],
                                      ["a\nb"]])
def test_poset_json_rejects_labels_the_text_form_cannot_carry(elements):
    with pytest.raises(ParseError, match="one non-empty line"):
        poset_from_dict({"elements": elements, "relations": []})


def test_poset_text_rejects_padded_relation_sides():
    with pytest.raises(ParseError) as err:
        poset_from_text("a\nb\na <  b\n")
    assert err.value.line == 3


@given(st.lists(st.text("ab <#\t\u2028", max_size=4), max_size=4),
       st.data())
def test_accepted_json_poset_round_trips_through_text(elements, data):
    pairs = [(i, j) for i in range(len(elements))
             for j in range(i + 1, len(elements))]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=3)
                       if pairs else st.just([]))
    relations = [f"{elements[i]} < {elements[j]}" for i, j in chosen]
    try:
        P = poset_from_dict({"elements": elements, "relations": relations})
    except SpectrumError:
        return
    assert poset_from_text(poset_to_text(P)) == P


def test_load_poset_sniffs_format(diamond):
    assert load_poset(dumps(poset_to_dict(diamond))) == diamond
    assert load_poset(poset_to_text(diamond)) == diamond


def test_dot_output(diamond):
    dot = poset_to_dot(diamond)
    assert dot.startswith("digraph poset {")
    assert '"m" -> "a";' in dot and '"a" -> "t";' in dot
    # one edge per cover, lower to upper
    assert dot.count("->") == len(diamond.covers)
    # quotes and backslashes in labels are escaped
    P = poset_from_dict({"elements": ['a"b', "c", "d\\"],
                         "relations": ['c < a"b']})
    assert poset_to_dot(P).splitlines() == [
        "digraph poset {", '  "a\\"b";', '  "c";', '  "d\\\\";',
        '  "c" -> "a\\"b";', "}"]


def test_tuple_round_trip(diamond):
    data = [["t", "a"], ["b", "m"]]
    t = tuple_from_lists(diamond, data)
    assert tuple_to_lists(diamond, t) == data
    assert tuple_from_lists(diamond, tuple_to_lists(diamond, t)) == t


def test_tuple_rejects_bad_documents(diamond):
    with pytest.raises(ParseError):
        tuple_from_lists(diamond, [])
    with pytest.raises(ParseError):
        tuple_from_lists(diamond, "nope")
    with pytest.raises(ParseError):
        tuple_from_lists(diamond, [["a", "a"]])
    with pytest.raises(ParseError):
        tuple_from_lists(diamond, ["a"])
    for leaf in (["a"], {"x": 1}, 1, None):
        with pytest.raises(ParseError):
            tuple_from_lists(diamond, [[leaf]])


def test_empty_part_is_allowed(diamond):
    assert tuple_from_lists(diamond, [[]]) == (0,)


def test_family_round_trip(diamond):
    F = thread_sets(diamond, (diamond.subset(["t", "a"]),
                              diamond.subset(["b", "m"])))
    doc = family_to_dict(diamond, F)
    assert doc == {"generators": [["t", "b"], ["t", "m"], ["a", "m"]]}
    assert family_from_dict(diamond, doc) == F


def test_family_parse_minimizes(diamond):
    doc = {"generators": [["a"], ["t", "a"]]}
    assert family_from_dict(diamond, doc) == chains_meeting(
        diamond, diamond.subset(["a"]))


def test_family_rejects_bad_documents(diamond):
    with pytest.raises(ParseError):
        family_from_dict(diamond, {})
    with pytest.raises(ParseError):
        family_from_dict(diamond, {"generators": [[]]})
    with pytest.raises(ParseError):
        family_from_dict(diamond, {"generators": [[["a"]]]})
    with pytest.raises(ParseError):
        family_from_dict(diamond, {"generators": [["a", "a"]]})


def test_form_round_trip(diamond, star2, antichain3, two_chains):
    unresolved = normal_form(two_chains, (two_chains.subset(["p1", "q1"]),
                                          two_chains.subset(["p2", "q2"])))
    assert unresolved.tag == "Unresolved"
    cases = [
        (diamond, ZERO),
        (antichain3, NormalForm("D0Smash", (antichain3.subset(["p"]),))),
        (star2, NormalForm("D1_Mixed", (star2.subset(["a"]),
                                        star2.subset(["a", "b"])))),
        (diamond, NormalForm("D2_Form7", (diamond.subset(["a"]),
                                          diamond.subset(["b"])))),
        (diamond, NormalForm("D2_Form11", (diamond.subset(["a"]), 0,
                                           diamond.subset(["a"])))),
        (two_chains, unresolved),
    ]
    for P, nf in cases:
        assert form_from_dict(P, form_to_dict(P, nf)) == nf


def test_every_form_instance_round_trips(diamond, star2, antichain3):
    for P in (diamond, star2, antichain3):
        for nf in form_instances(P):
            assert form_from_dict(P, form_to_dict(P, nf)) == nf


def test_form_json_shape(diamond):
    nf = NormalForm("D2_Form7", (diamond.subset(["a"]), diamond.subset(["b"])))
    assert form_to_dict(diamond, nf) == {"form": "D2_Form7", "A1": ["a"],
                                         "B1": ["b"]}


def test_form_rejects_bad_documents(diamond, star2, two_chains):
    with pytest.raises(ParseError):
        form_from_dict(diamond, {"form": "D9_FormX"})
    with pytest.raises(ParseError):
        form_from_dict(diamond, {"form": "D2_Form7", "A1": ["a"]})
    with pytest.raises(ParseError):
        form_from_dict(diamond, {})
    with pytest.raises(ParseError):
        form_from_dict(diamond, {"form": "D2_Form7", "A1": [{"x": 1}],
                                 "B1": ["b"]})
    with pytest.raises(ParseError):
        form_from_dict(diamond, {"form": "Unresolved", "canonical": [[["a"]]]})
    for doc in ({"form": "D2_Form1", "A1": ["a", "a"]},
                {"form": ["x"]}, {"form": {"a": 1}}, {"form": None}):
        with pytest.raises(ParseError):
            form_from_dict(diamond, doc)
    # no tuple classifies to Identity, on any shape
    for P in (diamond, star2, two_chains):
        with pytest.raises(ParseError):
            form_from_dict(P, {"form": "Identity"})
    # well-formed documents naming no form instance over star2
    for doc in ({"form": "D1_Mixed", "C": ["a"], "D": ["a"]},  # not proper
                {"form": "D1_Lambda", "C": ["t"]},  # the top is no payload
                {"form": "D1_TopSmash", "C": ["t", "a"]},
                {"form": "D0Smash", "A": []},  # wrong shape, empty
                {"form": "D2_Form1", "A1": ["a"]},  # wrong shape
                # a classified shape, canonical or not
                {"form": "Unresolved", "canonical": [["a"]]},
                {"form": "Unresolved", "canonical": [["t", "a"], ["a"]]}):
        with pytest.raises(ParseError):
            form_from_dict(star2, doc)
    # Unresolved tuples over an unclassified poset that classify elsewhere
    for doc in ({"form": "Unresolved", "canonical": [["p1"], ["p1"]]},
                {"form": "Unresolved", "canonical": [["p2"], ["p1"]]},
                {"form": "Unresolved", "canonical": [[]]}):
        with pytest.raises(ParseError):
            form_from_dict(two_chains, doc)


# -- documents of any JSON shape: parsed and round-tripped, or rejected

DOCUMENT_POSETS = (
    build_poset(["t", "a", "b", "m"],
                [("a", "t"), ("b", "t"), ("m", "a"), ("m", "b")]),
    build_poset(["t", "a", "b"], [("a", "t"), ("b", "t")]),
    build_poset(["p1", "p2", "q1", "q2"], [("p2", "p1"), ("q2", "q1")]),
)
DOCUMENT_KEYS = ("form", "generators", "canonical", "A", "C", "D", "A1", "B1",
                 "C1")


@st.composite
def poset_and_document(draw, kind):
    """A poset and a JSON-like value: half of the draws are near-documents
    of ``kind``, whose label arrays may repeat a label or hold an unknown or
    non-string one; the rest nest arrays and objects that may miss any
    field and carry a tag of any type."""
    P = draw(st.sampled_from(DOCUMENT_POSETS))
    label = st.sampled_from(P.elements * 3 + ("zz", 0))
    labels = st.lists(label, max_size=3)
    tag = st.sampled_from(("Unresolved", "Nope", *PAYLOAD_KEYS))
    subset = st.lists(st.sampled_from(P.elements), max_size=2, unique=True)
    parts = st.lists(labels, min_size=1, max_size=3)
    leaves = st.one_of(label, labels, tag, st.none(), st.booleans())
    near = {
        "tuple": parts,
        "family": st.fixed_dictionaries(
            {"generators": st.lists(st.lists(label, min_size=1, max_size=3),
                                    max_size=3)}),
        # string tags and tags of any type in separate branches, so that
        # both are drawn often
        "form": st.one_of(st.fixed_dictionaries({
            "form": head, "canonical": parts,
            **dict.fromkeys(DOCUMENT_KEYS[3:], subset | labels)})
            for head in (tag, leaves)),
    }[kind]
    grow = lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.fixed_dictionaries({}, optional=dict.fromkeys(DOCUMENT_KEYS, inner)))
    return P, draw(st.one_of(near, st.recursive(leaves, grow, max_leaves=8)))


def _parse_or_reject(parse, emit, P, doc):
    try:
        x = parse(P, doc)
    except SpectrumError:
        return
    assert parse(P, emit(P, x)) == x


@given(poset_and_document("tuple"))
def test_tuple_documents_parse_or_reject(pd):
    _parse_or_reject(tuple_from_lists, tuple_to_lists, *pd)


@given(poset_and_document("family"))
def test_family_documents_parse_or_reject(pd):
    _parse_or_reject(family_from_dict, family_to_dict, *pd)


@given(poset_and_document("form"))
def test_form_documents_parse_or_reject(pd):
    _parse_or_reject(form_from_dict, form_to_dict, *pd)


def test_payload_keys_cover_all_tags():
    assert set(PAYLOAD_KEYS) >= {"D0Smash", "D1_Lambda", "D1_TopSmash",
                                 "D1_Mixed"} | {f"D2_Form{i}"
                                                for i in range(1, 12)}


def test_loads_reports_position():
    with pytest.raises(ParseError) as err:
        loads('{"elements": [}')
    assert err.value.line == 1
    assert err.value.column is not None

"""Normal forms of iterated localizations and classification from thread sets.

For the proved spectrum shapes (dimension 0, dimension 1 with a unique
maximal prime, dimension 2 with unique maximal and minimal primes) the
collection of thread sets pins down a unique normal form, and the
classifiers reconstruct the form from the family alone; ``classify_family``
is the one dispatch over the shapes.  Outside these shapes the engine never
guesses: ``classify_family`` returns None, and ``normal_form`` returns
``Unresolved`` carrying the canonical reduction of the tuple.

``_anatomy`` alone decides a poset's shape and its top and bottom.
``_extremes`` is the one gate through which the classifiers and
``as_tuple`` reach them, so each refuses a poset of another shape.

One decision tree, ``classify_dim2``'s, classifies every shape, a missing
top ``t`` or bottom ``m`` being 0.  No generator lies inside 0, so a missing
extreme is no member and adds nothing to a stratum: with no bottom the tree
reaches only Form1, Form2 and Form5, with no top either only Form1, and
``_ALIASES`` tags these by the smaller shape.  Each form is one row of
``_FORMS``, an alias that of its dimension-2 form: its shape, payload keys,
defining tuple from ``t``, ``m`` and payload subsets of the stratum between
them, and side condition (non-empty, a proper inclusion, or none).

Equal thread sets is a *sufficient* condition for two tuples to name
isomorphic localizations; distinct thread sets are not claimed to separate
them.  See the README caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple

from .errors import Inconsistent, ShapeMismatch
from .families import ChainFamily, thread_sets
from .poset import Poset, set_text, tuple_text
from .tuples import SubsetTuple, ZERO_TUPLE, canonical, check_tuple

DIM0 = "Dim0"
DIM1_IRREDUCIBLE = "Dim1Irreducible"
DIM2_UNIQUE_EXTREMES = "Dim2UniqueExtremes"
FINITE = "Finite"

#: The shapes with a proved classification, in dimension order.
CLASSIFIED_SHAPES = (DIM0, DIM1_IRREDUCIBLE, DIM2_UNIQUE_EXTREMES)


class _Form(NamedTuple):
    """One normal form: ``build(t, m, *payload)`` is its defining tuple (t
    and m are 0 where the shape uses no top or bottom), ``valid(*payload)``
    its side condition, None where there is none."""
    shape: str
    keys: tuple[str, ...]
    build: Callable[..., SubsetTuple]
    valid: Callable[..., bool] | None = None


def _proper(a: int, b: int) -> bool:
    """``a`` is a proper subset of ``b``."""
    return a | b == b and a != b


_D1, _D2 = DIM1_IRREDUCIBLE, DIM2_UNIQUE_EXTREMES

# a payload mask is non-empty exactly when it is truthy, hence ``bool``
_FORMS = {
    "D2_Form1": _Form(_D2, ("A1",), lambda t, m, a: (a,), bool),
    "D2_Form2": _Form(_D2, ("A1",), lambda t, m, a: (t | a,)),
    "D2_Form3": _Form(_D2, ("A1",), lambda t, m, a: (a | m,)),
    "D2_Form4": _Form(_D2, ("A1",), lambda t, m, a: (t | a | m,)),
    "D2_Form5": _Form(_D2, ("A1", "B1"), lambda t, m, a, b: (t | a, b),
                      _proper),
    "D2_Form6": _Form(_D2, ("A1", "B1"), lambda t, m, a, b: (a, b | m),
                      lambda a, b: _proper(b, a)),
    "D2_Form7": _Form(_D2, ("A1", "B1"), lambda t, m, a, b: (t | a, b | m)),
    "D2_Form8": _Form(_D2, ("A1", "B1"),
                      lambda t, m, a, b: (t | a, t | b | m),
                      lambda a, b: _proper(b, a)),
    "D2_Form9": _Form(_D2, ("A1", "B1"),
                      lambda t, m, a, b: (t | a | m, b | m), _proper),
    "D2_Form10": _Form(_D2, ("A1", "B1", "C1"),
                       lambda t, m, a, b, c: (t | a, b, c | m),
                       lambda a, b, c: _proper(a, b) and _proper(c, b)),
    "D2_Form11": _Form(_D2, ("A1", "B1", "C1"),
                       lambda t, m, a, b, c: (t | a, t | b | m, c | m),
                       lambda a, b, c: _proper(b, a & c)),
}

# tag: (shape, payload keys, the dimension-2 form it is); _RENAME inverts it
_ALIASES = {
    "D0Smash": (DIM0, ("A",), "D2_Form1"),
    "D1_Lambda": (_D1, ("C",), "D2_Form1"),
    "D1_TopSmash": (_D1, ("C",), "D2_Form2"),
    "D1_Mixed": (_D1, ("C", "D"), "D2_Form5"),
}
_FORMS.update((tag, _FORMS[of]._replace(shape=shape, keys=keys))
              for tag, (shape, keys, of) in _ALIASES.items())
_RENAME = {(shape, of): tag for tag, (shape, _, of) in _ALIASES.items()}

#: Payload field names per form tag, in payload order.
PAYLOAD_KEYS = {"Zero": (), **{tag: form.keys for tag, form in _FORMS.items()}}


@dataclass(frozen=True)
class NormalForm:
    """Tagged canonical shape of an iterated localization.

    ``payload`` holds the defining subsets as bitmasks, one per entry of
    ``PAYLOAD_KEYS[tag]``; for ``Unresolved`` it holds the canonical tuple
    instead.
    """

    tag: str
    payload: tuple[int, ...] = ()

    def as_tuple(self, P: Poset) -> SubsetTuple:
        """The defining subset tuple of this form over ``P``; raises
        ``ShapeMismatch`` unless ``P`` has the form's shape."""
        if self.tag == "Zero":
            return ZERO_TUPLE
        if self.tag == "Unresolved":
            return self.payload
        form = _FORMS[self.tag]
        return form.build(*_extremes(P, form.shape), *self.payload)

    def describe(self, P: Poset) -> str:
        if not self.payload:
            return self.tag
        if self.tag == "Unresolved":
            return f"Unresolved{tuple_text(P, self.payload)}"
        fields = ", ".join(
            f"{k}={set_text(P, m)}"
            for k, m in zip(PAYLOAD_KEYS[self.tag], self.payload))
        return f"{self.tag}({fields})"


ZERO = NormalForm("Zero")


def _anatomy(P: Poset) -> tuple[str, int, int]:
    """The shape of ``P`` with the top and the bottom its forms use.

    Dimension 0 uses neither extreme, dimension 1 a unique maximal element
    and dimension 2 unique maximal and minimal elements; an extreme the
    shape does not use is 0, and so are both on ``Finite``.
    """
    dim = P.dimension()
    if dim == 0:
        return DIM0, 0, 0
    if dim in (1, 2):
        t = P.maximal_elements()
        if t.bit_count() == 1:
            if dim == 1:
                return DIM1_IRREDUCIBLE, t, 0
            m = P.minimal_elements()
            if m.bit_count() == 1:
                return DIM2_UNIQUE_EXTREMES, t, m
    return FINITE, 0, 0


def _extremes(P: Poset, shape: str) -> tuple[int, int]:
    """Top and bottom of ``P`` as the forms of ``shape`` use them, 0 for an
    unused one; raises ``ShapeMismatch`` unless ``P`` has ``shape``."""
    have, t, m = _anatomy(P)
    if have != shape:
        raise ShapeMismatch(f"poset has shape {have}, expected {shape}")
    return t, m


def shape_of(P: Poset) -> str:
    """Which proved classification applies; ``Finite`` is the fallback."""
    return _anatomy(P)[0]


def classify_dim0(P: Poset, F: ChainFamily) -> NormalForm:
    """Dimension 0 from the family: the smashing form on A = {p :
    F.member({p})}, the tree's Form1, checked against F through its defining
    tuple, so a thread set of two or more elements is ``Inconsistent``."""
    return _classify(P, F, DIM0)


def classify_dim1(P: Poset, F: ChainFamily) -> NormalForm:
    """Dimension 1, unique maximal prime: one of three forms.

    Writing t for the top and reading off C = {q != t : F.member({q})} and
    D = {q != t : F.member({q, t})}: membership of {t} forces the smashing
    form on {t} | C; otherwise C == D is the colocal form on C and C < D
    the mixed composite ({t} | C, D).  These are the tree's Form2, Form1
    and Form5 with no bottom, where C is F0 and D is E and G.
    """
    return _classify(P, F, DIM1_IRREDUCIBLE)


def classify_dim2(P: Poset, F: ChainFamily) -> NormalForm:
    """Dimension 2, unique extremes t > ... > m: one of eleven forms.

    The decision tree follows the characterizations by membership of {t},
    {m}, {t, m} and the strata of members D = {p : F.member({m, p})},
    E = {p : F.member({t, p})}, F0 = {p : F.member({p})} and
    G = {p : F.member({t, m, p})} over the length-1 primes.  Membership is
    monotone, so F0 is a subset of D & E and D | E of G, and the tree tests
    no inclusion that these imply.  F0 is computed for every family, and
    D, E and G only in the branches that read them.
    The reconstructed form is re-expanded through its defining tuple and
    checked against F; a mismatch means no form realizes the family.
    """
    return _classify(P, F, DIM2_UNIQUE_EXTREMES)


def _classify(P: Poset, F: ChainFamily, shape: str) -> NormalForm:
    """``classify_dim2``'s tree on ``shape``, its missing extremes at 0."""
    t, m = _extremes(P, shape)
    if F.is_empty():
        return ZERO
    mids = P.full & ~t & ~m
    f0 = _stratum(F, mids, 0)
    has_t = t and F.member(t)
    has_m, has_tm = m and F.member(m), m and F.member(t | m)
    if has_t and has_m:
        tag, payload = "D2_Form4", (f0,)
    elif has_t:
        d = _stratum(F, mids, m) if m else f0
        if f0 == d:
            tag, payload = "D2_Form2", (f0,)
        else:
            tag, payload = "D2_Form8", (d, f0)
    elif has_m:
        e = _stratum(F, mids, t)
        if f0 == e:
            tag, payload = "D2_Form3", (f0,)
        else:
            tag, payload = "D2_Form9", (f0, e)
    elif has_tm:
        d, e = _stratum(F, mids, m), _stratum(F, mids, t)
        if d & e == f0:
            tag, payload = "D2_Form7", (d, e)
        else:
            tag, payload = "D2_Form11", (d, f0, e)
    else:
        e = _stratum(F, mids, t) if t else f0
        d = _stratum(F, mids, m) if m else f0
        g = _stratum(F, mids, t | m) if m else e
        if f0 == d == e == g:
            tag, payload = "D2_Form1", (f0,)
        elif f0 == d and e == g:
            tag, payload = "D2_Form5", (f0, e)
        elif f0 == e and d == g:
            tag, payload = "D2_Form6", (d, f0)
        elif d & e == f0:  # then d < g and e < g, else Form5 or Form6
            tag, payload = "D2_Form10", (d, g, e)
        else:
            raise Inconsistent("strata of the family fit no form")
    form = NormalForm(_RENAME.get((shape, tag), tag), payload)
    return _verified(P, F, form, t, m)


def _stratum(F: ChainFamily, candidates: int, companions: int) -> int:
    """The candidates ``p`` for which ``{p} | companions`` is a member of F,
    from one pass over the generators; ``companions`` must be no member.

    Lemma: writing S for ``companions``, ``{p} | S`` is a member exactly
    when some generator ``g`` has ``g & ~S`` empty or equal to ``{p}``,
    since ``g`` lies inside ``{p} | S`` exactly when ``g & ~S`` lies inside
    ``{p}``.  As S is no member, no ``g & ~S`` is empty, and the stratum is
    the union of the one-element remainders, cut down to the candidates.
    The tree passes S = 0, {t}, {m} or {t, m} only once it finds S no
    member; ``_verified`` rejects a form built from a broken call.
    """
    out = 0
    for g in F:
        rest = g & ~companions
        if rest & (rest - 1) == 0:
            out |= rest
    return out & candidates


def _verified(P: Poset, F: ChainFamily, form: NormalForm, t: int,
              m: int) -> NormalForm:
    """``form`` if its defining tuple, built from the top ``t`` and bottom
    ``m`` its classifier read, has thread sets ``F``, else ``Inconsistent``."""
    if thread_sets(P, _FORMS[form.tag].build(t, m, *form.payload)) != F:
        raise Inconsistent(
            f"family is not realized by any normal form (closest: {form.tag})")
    return form


def classify_family(P: Poset, F: ChainFamily) -> NormalForm | None:
    """Normal form of the tuples with thread sets ``F``; dispatches on shape.

    The empty family is ``Zero`` on every shape; outside the proved shapes,
    where the engine never guesses, the result is None.
    """
    shape = shape_of(P)
    if shape == DIM0:
        return classify_dim0(P, F)
    if shape == DIM1_IRREDUCIBLE:
        return classify_dim1(P, F)
    if shape == DIM2_UNIQUE_EXTREMES:
        return classify_dim2(P, F)
    return ZERO if F.is_empty() else None


def normal_form(P: Poset, parts: SubsetTuple) -> NormalForm:
    """Normal form of a tuple.

    On the proved shapes it is classified from the tuple's thread sets.
    Outside them no family is built: ``check_tuple`` validates every part,
    as in ``thread_sets``, and the tuple is ``Zero`` when its canonical
    reduction is ``ZERO_TUPLE``, which holds exactly when it has no thread
    and so empty thread sets, and ``Unresolved`` with that reduction
    otherwise.
    """
    if shape_of(P) in CLASSIFIED_SHAPES:
        return classify_family(P, thread_sets(P, parts))
    reduced = canonical(P, check_tuple(P, parts))
    return ZERO if reduced == ZERO_TUPLE else NormalForm("Unresolved", reduced)


def form_defect(P: Poset, tag: str, payload: tuple[int, ...]) -> str | None:
    """Why ``NormalForm(tag, payload)`` is no form a tuple over ``P`` can
    classify to, or None if it is one.

    ``Zero`` always is one; a tag with a row in the table must be among
    ``form_instances(P)``; an ``Unresolved`` payload must be a non-zero
    canonical tuple on a poset outside ``CLASSIFIED_SHAPES``.
    """
    if tag == "Zero":
        return None
    shape, t, m = _anatomy(P)
    if tag == "Unresolved":
        if shape in CLASSIFIED_SHAPES:
            return (f"a {shape} poset classifies every tuple; "
                    "no form is Unresolved")
        if payload == ZERO_TUPLE:
            return "the zero tuple classifies to Zero, not Unresolved"
        if canonical(P, payload) != payload:
            return "an Unresolved payload must be its own canonical tuple"
        return None
    form = _FORMS.get(tag)
    if form is None:
        return f"no form is tagged {tag!r}"
    if form.shape != shape:
        return f"form {tag} needs a {form.shape} poset, not {shape}"
    if any(part & (t | m) for part in payload):
        return f"form {tag} takes subsets strictly between top and bottom"
    if form.valid is not None and not form.valid(*payload):
        return (f"form {tag} needs a non-empty payload or a proper "
                "inclusion of its subsets")
    return None


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def form_instances(P: Poset) -> list[NormalForm]:
    """Every syntactic normal-form instance valid over ``P``.

    Each form of the shape of ``P`` takes every payload of subsets of the
    stratum strictly between its top and bottom that meets the form's side
    condition (proper inclusions where required, non-empty payloads where
    emptiness would degenerate to Zero).
    """
    shape, t, m = _anatomy(P)
    if shape not in CLASSIFIED_SHAPES:
        raise ShapeMismatch(f"no classified forms for shape {shape}")
    stratum = list(_submasks(P.full & ~t & ~m))
    out: list[NormalForm] = []
    for tag, form in _FORMS.items():
        if form.shape != shape:
            continue
        for payload in product(stratum, repeat=len(form.keys)):
            if form.valid is None or form.valid(*payload):
                out.append(NormalForm(tag, payload))
    return out

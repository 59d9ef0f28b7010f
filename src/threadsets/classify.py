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

Each form is one row of the table ``_FORMS``: its shape, its payload keys,
its defining tuple built from the top ``t``, the bottom ``m`` and payload
subsets of the stratum between them, and its side condition on the payload
(non-empty, a proper inclusion, or none).  ``PAYLOAD_KEYS``, ``as_tuple``
and ``form_instances`` read that table; the decision trees
``classify_dim1``/``classify_dim2`` state the theorem.

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
from .poset import Poset, bits, set_text, tuple_text
from .tuples import SubsetTuple, ZERO_TUPLE, canonical

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
    "D0Smash": _Form(DIM0, ("A",), lambda t, m, a: (a,), bool),
    "D1_Lambda": _Form(_D1, ("C",), lambda t, m, c: (c,), bool),
    "D1_TopSmash": _Form(_D1, ("C",), lambda t, m, c: (t | c,)),
    "D1_Mixed": _Form(_D1, ("C", "D"), lambda t, m, c, d: (t | c, d), _proper),
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
    """Dimension 0 from the family: all thread sets are singletons."""
    _extremes(P, DIM0)
    if F.is_empty():
        return ZERO
    meet = 0
    for g in F:
        if g.bit_count() != 1:
            raise Inconsistent("non-singleton thread set on a discrete poset")
        meet |= g
    return NormalForm("D0Smash", (meet,))


def classify_dim1(P: Poset, F: ChainFamily) -> NormalForm:
    """Dimension 1, unique maximal prime: one of three forms.

    Writing t for the top and reading off C = {q != t : F.member({q})} and
    D = {q != t : F.member({q, t})}: membership of {t} forces the smashing
    form on {t} | C; otherwise C == D is the colocal form on C and C < D
    the mixed composite ({t} | C, D).
    """
    t, _ = _extremes(P, DIM1_IRREDUCIBLE)
    if F.is_empty():
        return ZERO
    rest = P.full & ~t
    c = _stratum(F, rest, 0)
    if F.member(t):
        form = NormalForm("D1_TopSmash", (c,))
    else:
        d = _stratum(F, rest, t)
        if c == d:
            form = NormalForm("D1_Lambda", (c,))
        elif c | d == d:
            form = NormalForm("D1_Mixed", (c, d))
        else:
            raise Inconsistent("singleton thread sets escape the {q, t} ones")
    return _verified(P, F, form)


def classify_dim2(P: Poset, F: ChainFamily) -> NormalForm:
    """Dimension 2, unique extremes t > ... > m: one of eleven forms.

    The decision tree follows the characterizations by membership of {t},
    {m}, {t, m} and the strata of members D = {p : F.member({m, p})},
    E = {p : F.member({t, p})}, F0 = {p : F.member({p})} and
    G = {p : F.member({t, m, p})} over the length-1 primes.
    The reconstructed form is re-expanded through its defining tuple and
    checked against F; a mismatch means no form realizes the family.
    """
    t, m = _extremes(P, DIM2_UNIQUE_EXTREMES)
    if F.is_empty():
        return ZERO
    mids = P.full & ~t & ~m
    f0 = _stratum(F, mids, 0)
    d = _stratum(F, mids, m)
    e = _stratum(F, mids, t)
    g = _stratum(F, mids, t | m)
    has_t, has_m, has_tm = F.member(t), F.member(m), F.member(t | m)

    if has_t and has_m:
        form = NormalForm("D2_Form4", (f0,))
    elif has_t:
        if f0 == d:
            form = NormalForm("D2_Form2", (f0,))
        elif f0 | d == d:
            form = NormalForm("D2_Form8", (d, f0))
        else:
            raise Inconsistent("strata of the family fit no form")
    elif has_m:
        if f0 == e:
            form = NormalForm("D2_Form3", (f0,))
        elif f0 | e == e:
            form = NormalForm("D2_Form9", (f0, e))
        else:
            raise Inconsistent("strata of the family fit no form")
    elif has_tm:
        if d & e == f0:
            form = NormalForm("D2_Form7", (d, e))
        elif f0 | (d & e) == d & e:
            form = NormalForm("D2_Form11", (d, f0, e))
        else:
            raise Inconsistent("strata of the family fit no form")
    elif f0 == d == e == g:
        form = NormalForm("D2_Form1", (f0,))
    elif f0 == d and e == g and e | d == e and e != d:
        form = NormalForm("D2_Form5", (f0, e))
    elif f0 == e and d == g and d | e == d and d != e:
        form = NormalForm("D2_Form6", (d, f0))
    elif d | g == g and d != g and e | g == g and e != g and d & e == f0:
        form = NormalForm("D2_Form10", (d, g, e))
    else:
        raise Inconsistent("strata of the family fit no form")
    return _verified(P, F, form)


def _stratum(F: ChainFamily, candidates: int, companions: int) -> int:
    out = 0
    for p in bits(candidates):
        if F.member((1 << p) | companions):
            out |= 1 << p
    return out


def _verified(P: Poset, F: ChainFamily, form: NormalForm) -> NormalForm:
    if thread_sets(P, form.as_tuple(P)) != F:
        raise Inconsistent(
            f"family is not realized by any normal form (closest: {form.tag})")
    return form


def classify_family(P: Poset, F: ChainFamily) -> NormalForm | None:
    """Normal form of the tuples with thread sets ``F``; dispatches on shape.

    The empty family is ``Zero`` on every shape; outside the proved shapes,
    where the engine never guesses, the result is None.
    """
    if F.is_empty():
        return ZERO
    shape = shape_of(P)
    if shape == DIM0:
        return classify_dim0(P, F)
    if shape == DIM1_IRREDUCIBLE:
        return classify_dim1(P, F)
    if shape == DIM2_UNIQUE_EXTREMES:
        return classify_dim2(P, F)
    return None


def normal_form(P: Poset, parts: SubsetTuple) -> NormalForm:
    """Normal form of a tuple, classified from its thread sets; outside the
    proved shapes ``Unresolved`` with the tuple's canonical reduction."""
    nf = classify_family(P, thread_sets(P, parts))
    if nf is None:
        return NormalForm("Unresolved", canonical(P, parts))
    return nf


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

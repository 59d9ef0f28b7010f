"""Independent oracles for the benchmark's output checks.

Everything here is computed from the order relation alone, read once
through ``Poset.le``, and from the definitions: a thread of a tuple
``(A_1, ..., A_k)`` is a descending sequence ``p_1 >= ... >= p_k`` with
``p_i`` in ``A_i``; its support is the chain of its distinct members; the
thread sets of the tuple are stored by their inclusion-minimal supports.
Nothing here calls the reduction, family, classification or serialization
code whose answers it checks, so a wrong answer there cannot hide in a
wrong expectation here.
"""

from __future__ import annotations

from itertools import product


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class Order:
    """The order of a poset as reflexive below/above masks per element."""

    def __init__(self, P):
        n = P.n
        self.n = n
        self.elements = tuple(P.elements)
        self.below = tuple(sum(1 << i for i in range(n) if P.le(i, j))
                           for j in range(n))
        self.above = tuple(sum(1 << j for j in range(n) if P.le(i, j))
                           for i in range(n))

    def labels(self, mask: int) -> list[str]:
        return [self.elements[i] for i in bits(mask)]

    def mask(self, labels) -> int:
        return sum(1 << self.elements.index(e) for e in labels)

    def below_any(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self.below[i]
        return out

    def above_any(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self.above[i]
        return out


# -- reductions

def reach_from_above(O: Order, parts: tuple) -> tuple:
    """Members of each part that end a descending sequence through the earlier parts."""
    out = [parts[0]]
    for part in parts[1:]:
        out.append(part & O.below_any(out[-1]))
    return tuple(out)


def reach_from_below(O: Order, parts: tuple) -> tuple:
    """Members of each part that start a descending sequence through the later parts."""
    out = [parts[-1]]
    for part in reversed(parts[:-1]):
        out.append(part & O.above_any(out[-1]))
    return tuple(reversed(out))


def on_threads(O: Order, parts: tuple) -> tuple:
    """Members of each part lying on a full thread: reachable from both ends."""
    down, up = reach_from_above(O, parts), reach_from_below(O, parts)
    return tuple(a & b for a, b in zip(down, up))


def collapse(parts: tuple) -> tuple:
    """Drop adjacent containing parts, rightmost pair first.

    The library scans from the left; removals are confluent, so any order
    must give the same collapsed tuple.
    """
    out = list(parts)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 2, -1, -1):
            a, b = out[i], out[i + 1]
            if a & b == a:
                del out[i + 1]
            elif a & b == b:
                del out[i]
            else:
                continue
            changed = True
            break
    return tuple(out)


def canonical(O: Order, parts: tuple) -> tuple:
    return collapse(on_threads(O, parts))


# -- threads and thread sets

def threads(O: Order, parts: tuple) -> list[tuple[int, ...]]:
    """Every thread as an index sequence, in lexicographic order."""
    pools = [bits(part) for part in parts]
    return [seq for seq in product(*pools)
            if all(O.below[seq[i]] >> seq[i + 1] & 1
                   for i in range(len(seq) - 1))]


def minimal(chains) -> frozenset[int]:
    kept: list[int] = []
    for c in sorted(set(chains), key=lambda m: (m.bit_count(), m)):
        if not any(g & c == g for g in kept):
            kept.append(c)
    return frozenset(kept)


def thread_supports(O: Order, parts: tuple) -> frozenset[int]:
    """Minimal supports of the threads of a tuple.

    Threads are extended part by part, keeping per last element only the
    inclusion-minimal supports so far: a support containing another with
    the same last element has the same continuations and a larger union,
    so it never yields a minimal support the smaller one does not.
    """
    frontier = {a: {1 << a} for a in bits(parts[0])}
    for part in parts[1:]:
        grown: dict[int, set[int]] = {}
        for a, supports in frontier.items():
            for b in bits(part & O.below[a]):
                grown.setdefault(b, set()).update(s | 1 << b for s in supports)
        frontier = {b: set(minimal(s)) for b, s in grown.items()}
    return minimal(s for supports in frontier.values() for s in supports)


def member(generators, chain: int) -> bool:
    return any(g & chain == g for g in generators)


def sorted_chains(generators) -> list[int]:
    return sorted(generators, key=bits)


# -- normal forms

DIM0, DIM1, DIM2, FINITE = "Dim0", "Dim1", "Dim2", "Finite"

#: Payload field names per form tag, as the paper writes the forms.
FORM_KEYS = {
    "D0Smash": ("A",),
    "D1_Lambda": ("C",), "D1_TopSmash": ("C",), "D1_Mixed": ("C", "D"),
    "D2_Form1": ("A1",), "D2_Form2": ("A1",), "D2_Form3": ("A1",),
    "D2_Form4": ("A1",),
    "D2_Form5": ("A1", "B1"), "D2_Form6": ("A1", "B1"),
    "D2_Form7": ("A1", "B1"), "D2_Form8": ("A1", "B1"),
    "D2_Form9": ("A1", "B1"),
    "D2_Form10": ("A1", "B1", "C1"), "D2_Form11": ("A1", "B1", "C1"),
}

SHAPE_TAGS = {
    DIM0: {"D0Smash"},
    DIM1: {t for t in FORM_KEYS if t.startswith("D1_")},
    DIM2: {t for t in FORM_KEYS if t.startswith("D2_")},
}


def shape(O: Order) -> tuple[str, int, int]:
    """Proved shape of the poset with its top and bottom masks."""
    height = [0] * O.n
    for j in sorted(range(O.n), key=lambda j: O.below[j].bit_count()):
        height[j] = max((height[i] + 1 for i in bits(O.below[j] & ~(1 << j))),
                        default=0)
    dim = max(height, default=-1)
    top = sum(1 << i for i in range(O.n) if O.above[i] == 1 << i)
    bottom = sum(1 << i for i in range(O.n) if O.below[i] == 1 << i)
    if dim == 0:
        return DIM0, top, bottom
    if dim == 1 and top.bit_count() == 1:
        return DIM1, top, bottom
    if dim == 2 and top.bit_count() == 1 and bottom.bit_count() == 1:
        return DIM2, top, bottom
    return FINITE, top, bottom


def form_tuple(O: Order, tag: str, payload: tuple) -> tuple:
    """Defining subset tuple of a normal form (t the top, m the bottom)."""
    _, t, m = shape(O)
    p = payload
    return {
        "D0Smash": lambda: (p[0],),
        "D1_Lambda": lambda: (p[0],),
        "D1_TopSmash": lambda: (t | p[0],),
        "D1_Mixed": lambda: (t | p[0], p[1]),
        "D2_Form1": lambda: (p[0],),
        "D2_Form2": lambda: (t | p[0],),
        "D2_Form3": lambda: (p[0] | m,),
        "D2_Form4": lambda: (t | p[0] | m,),
        "D2_Form5": lambda: (t | p[0], p[1]),
        "D2_Form6": lambda: (p[0], p[1] | m),
        "D2_Form7": lambda: (t | p[0], p[1] | m),
        "D2_Form8": lambda: (t | p[0], t | p[1] | m),
        "D2_Form9": lambda: (t | p[0] | m, p[1] | m),
        "D2_Form10": lambda: (t | p[0], p[1], p[2] | m),
        "D2_Form11": lambda: (t | p[0], t | p[1] | m, p[2] | m),
    }[tag]()


def form_problem(O: Order, parts: tuple, tag: str, payload: tuple) -> str | None:
    """Why ``(tag, payload)`` is not the normal form of ``parts``, or None.

    Zero and Unresolved answers are pinned exactly.  On the proved shapes
    the form must belong to the shape and its defining tuple must have the
    thread sets of ``parts``; distinct forms of one shape have distinct
    thread sets, which the classifier suite checks.
    """
    reduced = canonical(O, parts)
    kind = shape(O)[0]
    if reduced == (0,):
        expected = ("Zero", ())
    elif kind == FINITE:
        expected = ("Unresolved", reduced)
    else:
        if tag not in SHAPE_TAGS[kind]:
            return f"form {tag} does not belong to shape {kind}"
        if len(payload) != len(FORM_KEYS[tag]):
            return f"form {tag} has {len(payload)} payload subsets"
        if thread_supports(O, form_tuple(O, tag, payload)) != thread_supports(O, parts):
            return f"form {tag}{payload} has other thread sets than the tuple"
        return None
    if (tag, tuple(payload)) != expected:
        return f"expected {expected}, got {(tag, tuple(payload))}"
    return None

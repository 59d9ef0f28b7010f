"""Reduction calculus on tuples of prime subsets.

A tuple ``(A_1, ..., A_k)`` of subsets names the iterated localization
``L_{A_1} ... L_{A_k}``.  Tuples are plain Python tuples of bitmasks over a
fixed poset, with k >= 1.  The reduction operators prune parts down to the
elements that sit on descending chains through the other parts and drop
redundant adjacent parts; their composite ``canonical`` retracts every
tuple onto a collapsed concatenated representative with the same threads.
"""

from __future__ import annotations

from typing import Iterator

from .errors import NotUpwardClosed
from .poset import Poset, set_text

SubsetTuple = tuple  # tuple[int, ...] over a fixed Poset, k >= 1

#: Canonical representative of the trivial (zero) localization.
ZERO_TUPLE: SubsetTuple = (0,)


def _check(parts: SubsetTuple) -> SubsetTuple:
    if not parts:
        raise ValueError("subset tuples have at least one part")
    return parts


def prune_upward(P: Poset, parts: SubsetTuple) -> SubsetTuple:
    """Retract onto upward concatenated tuples.

    Working left to right, each part keeps only the elements lying below a
    survivor of the previous part, i.e. the elements reachable by a
    descending chain through all earlier parts.  Fixed points are exactly
    the upward concatenated tuples.
    """
    _check(parts)
    last = parts[0]
    out = [last]
    for part in parts[1:]:
        last = part & P.down_set(last)
        out.append(last)
    return tuple(out)


def prune_downward(P: Poset, parts: SubsetTuple) -> SubsetTuple:
    """Retract onto downward concatenated tuples; dual to prune_upward."""
    _check(parts)
    last = parts[-1]
    out = [last]
    for part in parts[-2::-1]:
        last = part & P.up_set(last)
        out.append(last)
    out.reverse()
    return tuple(out)


def prune_to_threads(P: Poset, parts: SubsetTuple) -> SubsetTuple:
    """Keep in each part exactly the elements lying on a full thread.

    Computed as prune_downward(prune_upward(t)).  The two operators commute
    and agree with ``prune_to_threads_direct``, which reads the elements off
    the threads themselves; the operator-laws verification suite checks
    both laws.
    """
    return prune_downward(P, prune_upward(P, parts))


def prune_to_threads_direct(P: Poset, parts: SubsetTuple) -> SubsetTuple:
    """Direct form of prune_to_threads: part i keeps the elements that some
    thread visits at position i, read off the walk behind ``threads``.

    The reference that verification compares ``prune_to_threads`` against;
    its cost grows with the number of threads.  Every part is validated, so
    a mask with bits outside the poset, or a negative one, raises
    ``UnknownElement``.
    """
    out = [0] * len(parts)
    for sequence, _ in _walk(P, parts):
        for i, a in enumerate(sequence):
            out[i] |= 1 << a
    return tuple(out)


def _walk(P: Poset, parts: SubsetTuple) -> Iterator[tuple[tuple[int, ...], int]]:
    """The threads of a tuple as ``(sequence, support)`` pairs, depth first,
    ascending element index; every part is validated on the first step.

    One loop over a stack of partial threads ``(prefix, support,
    candidates)``, like ``Poset.chains``: an entry extends its prefix by its
    lowest candidate and pushes that walk above its remaining siblings.
    """
    _check(parts)
    for part in parts:
        P.check_subset(part)
    down, k = P.down, len(parts)
    stack = [((), 0, parts[0])]
    while stack:
        prefix, support, rest = stack.pop()
        if rest:
            low = rest & -rest
            stack.append((prefix, support, rest ^ low))
            a = low.bit_length() - 1
            sequence = prefix + (a,)
            if len(sequence) == k:
                yield sequence, support | low
            else:
                stack.append((sequence, support | low,
                              parts[len(sequence)] & down[a]))


def collapse(parts: SubsetTuple) -> SubsetTuple:
    """Drop adjacent parts that contain a neighbour until collapsed.

    One left-to-right pass over a stack of kept parts: a part lying
    strictly inside the last kept part pops that part and is compared
    again, and a part containing or equal to the last kept part is
    dropped.  The result is independent of the removal order, so this
    pass gives the same tuple as any other sequence of removals.
    """
    kept: list[int] = []
    for part in _check(parts):
        while kept:
            last = kept[-1]
            if part | last == part:  # contains or equals last: drop part
                break
            if part | last != last:  # incomparable with last: keep part
                kept.append(part)
                break
            kept.pop()  # strictly inside last: drop last, compare again
        else:
            kept.append(part)
    return tuple(kept)


def canonical(P: Poset, parts: SubsetTuple) -> SubsetTuple:
    """Collapsed concatenated canonical form of a tuple.

    Idempotent; a tuple admitting no thread normalizes to the unique zero
    representative ``(0,)``.
    """
    return collapse(prune_to_threads(P, parts))


def is_upward_concatenated(P: Poset, parts: SubsetTuple) -> bool:
    _check(parts)
    for i in range(len(parts) - 1):
        if parts[i + 1] & ~P.down_set(parts[i]):
            return False
    return True


def is_downward_concatenated(P: Poset, parts: SubsetTuple) -> bool:
    _check(parts)
    for i in range(len(parts) - 1):
        if parts[i] & ~P.up_set(parts[i + 1]):
            return False
    return True


def is_concatenated(P: Poset, parts: SubsetTuple) -> bool:
    return is_upward_concatenated(P, parts) and is_downward_concatenated(P, parts)


def is_collapsed(parts: SubsetTuple) -> bool:
    """No adjacent containments in either direction."""
    _check(parts)
    for i in range(len(parts) - 1):
        a, b = parts[i], parts[i + 1]
        if a | b == b or b | a == a:
            return False
    return True


def restrict(P: Poset, parts: SubsetTuple, zone: int) -> SubsetTuple:
    """Intersect every part with an upward closed subset ``zone``."""
    _check(parts)
    P.check_subset(zone)
    if not P.is_upward_closed(zone):
        raise NotUpwardClosed(
            f"restriction zone {set_text(P, zone)} is not upward closed")
    return tuple(part & zone for part in parts)

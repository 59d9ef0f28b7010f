"""Threads and upward closed chain families with minimal generators.

A thread of a tuple is a descending sequence picking one element from each
part; a thread set is any chain containing the support of a thread.  The
collection of thread sets of a tuple is upward closed under chain
inclusion, so it is stored by its inclusion-minimal generators.  These
families form a monoid under ``compose``, mirroring composition of the
underlying localizations, and ``thread_sets`` computes a tuple's family as
the ``compose`` fold of its per-part families; ``threads`` enumerates the
threads themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import EmptyChain, NotAChain
from .poset import Poset, bits, set_text
from .tuples import SubsetTuple, _check, _walk


@dataclass(frozen=True)
class Thread:
    """A descending element-index sequence with one entry per tuple part."""

    sequence: tuple[int, ...]
    support: int

    def labels(self, P: Poset) -> tuple[str, ...]:
        return tuple(P.elements[i] for i in self.sequence)


class ChainFamily(frozenset):
    """Upward closed family of non-empty chains, stored by minimal generators.

    The generators are pairwise inclusion-incomparable non-empty chains,
    as bitmasks, and the object is the immutable ``frozenset`` of them: two
    families are equal exactly when their generator sets are equal, and
    construction and hashing are those of ``frozenset``.  The members of
    the family are all chains containing some generator, so the empty chain
    is never one; ``member`` tests membership.  The inherited set
    operations, ``in``, ``<=``, ``|`` and ``-``, act on the generators only:
    a chain strictly above a generator is a member but not ``in`` the
    family.
    """

    __slots__ = ()

    @property
    def generators(self) -> "ChainFamily":
        return self

    def member(self, chain: int) -> bool:
        return any(g & chain == g for g in self)

    def is_empty(self) -> bool:
        return len(self) == 0

    def sorted_generators(self) -> list[int]:
        """Generators ordered by their sorted index sequences."""
        return sorted(self, key=_chain_key)

    def __repr__(self):
        gens = ",".join(format(g, "x") for g in self.sorted_generators())
        return f"ChainFamily<{gens}>"


EMPTY_FAMILY = ChainFamily(frozenset())


def _chain_key(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def minimize(chains: Iterable[int]) -> ChainFamily:
    """Family generated by a collection of chains: its minimal members.

    Members are taken by ascending size, so a chain's proper subchains are
    all seen before it; two distinct chains of one size never contain each
    other, so no tie-break is needed, and a repeat is dropped as a superset
    of its first copy.  The chains are not validated.
    """
    ordered = sorted(chains, key=int.bit_count)
    if len(ordered) < 2:
        return ChainFamily(ordered) if ordered else EMPTY_FAMILY
    kept: list[int] = []
    for c in ordered:
        for g in kept:
            if g & c == g:
                break
        else:
            kept.append(c)
    return ChainFamily(kept)


def family(P: Poset, chains: Iterable[int]) -> ChainFamily:
    """Family generated by the given chains (validated, then minimized)."""
    collected = []
    for c in chains:
        require_chain(P, c)
        collected.append(c)
    return minimize(collected)


def require_chain(P: Poset, mask: int) -> int:
    if not mask:
        raise EmptyChain("the empty chain is not allowed here")
    if not P.is_chain(mask):
        raise NotAChain(f"{set_text(P, mask)} is not a chain")
    return mask


def threads(P: Poset, parts: SubsetTuple) -> Iterator[Thread]:
    """All threads of a tuple, depth first, ascending element index.

    Repeated elements are allowed along a thread; the support chain
    deduplicates them.  The stream is empty exactly when pruning the tuple
    to its threads empties every part.  The number of threads can grow
    exponentially with the tuple length; ``thread_sets`` does not enumerate
    them.  Every part is validated on the first step, so a mask with bits
    outside the poset, or a negative one, raises ``UnknownElement``.  The
    walk is ``tuples._walk``, which ``prune_to_threads_direct`` reads too.
    """
    for sequence, support in _walk(P, parts):
        yield Thread(sequence, support)


def thread_sets(P: Poset, parts: SubsetTuple) -> ChainFamily:
    """Family of thread sets of a tuple: minimal supports of its threads.

    Computed as the fold of ``compose`` over the per-part families
    ``chains_meeting``; no thread is enumerated, so the cost follows the
    number of generators rather than the number of threads.
    """
    _check(parts)
    acc = chains_meeting(P, parts[0])
    for part in parts[1:]:
        acc = compose(P, acc, chains_meeting(P, part))
    return acc


def chains_meeting(P: Poset, subset: int) -> ChainFamily:
    """Family of chains with non-empty intersection with ``subset``.

    Equals the thread sets of the 1-uple ``(subset,)``; the generators are
    the singletons of ``subset``.  Each subset's family is built once per
    poset, so repeated calls return the same object.
    """
    F = P._meeting.get(subset)
    if F is None:
        singletons = frozenset(1 << i for i in bits(P.check_subset(subset)))
        F = P._meeting[subset] = ChainFamily(singletons)
    return F


def principal(P: Poset, chain: int) -> ChainFamily:
    """Family of all chains containing the given non-empty chain."""
    require_chain(P, chain)
    return ChainFamily(frozenset((chain,)))


def compose(P: Poset, U: ChainFamily, V: ChainFamily) -> ChainFamily:
    """Monoid product of chain families.

    The product collects the unions ``C | D`` over members ``C`` of ``U``
    and ``D`` of ``V`` with ``C`` entirely above ``D``.  Because the
    compatibility relation passes to subchains, the unions of compatible
    *generator* pairs generate the same family; the definitional form is
    kept as a brute-force oracle in the tests.  ``thread_sets`` is the fold
    of this product over a tuple's per-part families.
    """
    if len(U) == 0 or len(V) == 0:
        return EMPTY_FAMILY
    below_all = P.below_all
    out = set()
    for C in U:
        floor = below_all(C)
        for D in V:
            if D & ~floor == 0:
                out.add(C | D)
    if len(out) < 2:  # nothing to minimize
        return ChainFamily(out) if out else EMPTY_FAMILY
    return minimize(out)


def singleton_tuple(P: Poset, chain: int) -> SubsetTuple:
    """The descending tuple of singletons of a non-empty chain.

    Sends a chain ``p_1 > ... > p_k`` to ``({p_1}, ..., {p_k})``; its thread
    sets form exactly the principal family of the chain.
    """
    require_chain(P, chain)
    members = sorted(bits(chain), key=lambda i: P.down[i].bit_count(),
                     reverse=True)
    return tuple(1 << i for i in members)

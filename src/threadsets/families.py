"""Threads and upward closed chain families with minimal generators.

A thread of a tuple is a descending sequence picking one element from each
part; a thread set is any chain containing the support of a thread.  The
collection of thread sets of a tuple is upward closed under chain
inclusion, so it is stored by its inclusion-minimal generators.  These
families form a monoid under ``compose``, mirroring composition of the
underlying localizations.  ``thread_sets`` computes a tuple's family by
folding over the parts of its canonical form, which names the same thread
sets with at most as many parts, without enumerating the threads that
``tuples.threads`` walks; each step equals ``compose`` with the part's
``chains_meeting`` family, and is taken by ``_extend``, which needs neither
a sort nor ``minimize``.
"""

from __future__ import annotations

from typing import Iterable

from .errors import EmptyChain, NotAChain
from .poset import Poset, bits, set_text
from .tuples import SubsetTuple, canonical, check_tuple
# re-exported: bench/tracer.py times the walk as families.threads
from .tuples import threads  # noqa: F401


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


def thread_sets(P: Poset, parts: SubsetTuple) -> ChainFamily:
    """Family of thread sets of a tuple: minimal supports of its threads.

    ``check_tuple`` validates every part first.  The family is then the
    fold over the parts of ``canonical(P, parts)``, which has the same
    thread sets and at most as many parts: from the first part's
    ``chains_meeting`` family, one step of ``_extend`` per further part,
    each equal to ``compose`` with that part's ``chains_meeting`` family;
    none for a tuple without a thread, which reduces to ``(0,)``.  No
    thread is enumerated, so the cost follows the number of generators.
    """
    reduced = canonical(P, check_tuple(P, parts))
    acc = chains_meeting(P, reduced[0])
    for part in reduced[1:]:
        acc = _extend(P, acc, part)
    return acc


def _extend(P: Poset, U: ChainFamily, A: int) -> ChainFamily:
    """``compose(P, U, chains_meeting(P, A))``, without a sort or
    ``minimize``: the fold step of ``thread_sets``.

    The product's candidates are the unions ``C | d`` of a generator ``C``
    of ``U`` and an element ``d`` of ``A`` below every member of ``C``,
    that is ``d <= c`` for the least element ``c = C & P.below_all(C)``.

    Lemma.  Call ``C`` closed when ``c`` lies in ``A``, and open otherwise.

    - A closed ``C`` is itself a generator of the product: ``d = c`` gives
      ``C``, and every other candidate of ``C`` contains it.
    - An open ``C`` gives the products ``C | d`` with ``d`` in ``A`` and
      ``d < c``; each has least element ``d``.
    - Every closed ``C`` is minimal: a candidate strictly inside it would
      contain a generator of ``U`` strictly inside ``C``.
    - A product ``C | d`` of an open ``C`` is non-minimal exactly when some
      closed ``C1`` of ``U`` has least element ``d`` and ``C1 <= C | d``.
      A candidate strictly inside ``C | d`` holds ``d``: one inside ``C``
      would contain a generator inside ``C``, so it would be ``C``, which
      an open ``C`` does not give.  So its least element is ``d``, and it
      is either such a ``C1`` or an open product with least element ``d``,
      which is ``C | d`` itself.
    - No two products are equal: an open product minus its least element
      is its generator, and a closed ``C`` equal to ``C' | d`` would contain
      the generator ``C'``.

    So one pass over ``U`` and one lookup per candidate ``d``, into the
    closed generators indexed by their least element, leave exactly the
    generators of the product.  ``U`` must be a family of pairwise
    incomparable generators, as every ``ChainFamily`` is.
    """
    below_all = P.below_all
    out = []
    closed: dict[int, list[int]] = {}
    open_ = []
    for C in U:
        under = below_all(C)
        least = C & under
        if least & A:
            out.append(C)
            closed.setdefault(least, []).append(C)
        else:
            open_.append((C, under & A))
    for C, lower in open_:
        while lower:
            d = lower & -lower
            lower ^= d
            X = C | d
            for C1 in closed.get(d, ()):
                if C1 & X == C1:  # a closed generator lies inside C | d
                    break
            else:
                out.append(X)
    return ChainFamily(out) if out else EMPTY_FAMILY


def chains_meeting(P: Poset, subset: int) -> ChainFamily:
    """Family of chains with non-empty intersection with ``subset``.

    Equals the thread sets of the 1-uple ``(subset,)``; the generators are
    the singletons of ``subset``.  Each subset's family is built once per
    poset, so repeated calls return the same object.
    """
    F = P._meeting.get(subset)
    if F is None:
        rest = P.check_subset(subset)
        singletons = []
        while rest:
            low = rest & -rest
            singletons.append(low)
            rest ^= low
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
    of this product over the per-part families of a canonical tuple.
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

"""Independent brute-force oracles used to pin expected values.

Everything here works extensionally from the order relation alone:
subsets are enumerated, chains are filtered by pairwise comparability,
thread existence is decided by searching raw product sequences.  None of
it reuses the generator-based or recursive code paths under test, except
``raw_fold``, which composes the library's per-part families without the
reduction that ``thread_sets`` applies first.
"""

from __future__ import annotations

from itertools import combinations, product

from threadsets.classify import ZERO, NormalForm
from threadsets.errors import ShapeMismatch
from threadsets.families import ChainFamily, chains_meeting, compose
from threadsets.poset import Poset, bits


def brute_chains(P: Poset) -> set[int]:
    out = set()
    for size in range(1, P.n + 1):
        for members in combinations(range(P.n), size):
            if all(P.le(i, j) or P.le(j, i)
                   for i, j in combinations(members, 2)):
                out.add(sum(1 << i for i in members))
    return out


def brute_reachability(n: int, relations) -> tuple[tuple[int, ...], set[int]]:
    """Reflexive down-sets of the order that index pairs ``(a, b)``, read as
    ``a < b``, generate, and the elements that reach themselves.

    Each element's strict reach is searched one relation step at a time;
    ``i`` lies below ``j`` when some path of relations leads from ``i`` to
    ``j``, and lies on a cycle when such a path leads back to ``i``.
    """
    reach = []
    for i in range(n):
        seen: set[int] = set()
        todo = [i]
        while todo:
            a = todo.pop()
            for lo, hi in relations:
                if lo == a and hi not in seen:
                    seen.add(hi)
                    todo.append(hi)
        reach.append(seen)
    down = tuple(sum(1 << i for i in range(n) if i == j or j in reach[i])
                 for j in range(n))
    return down, {i for i in range(n) if i in reach[i]}


def brute_down_set(P: Poset, mask: int) -> int:
    """Elements below some member of ``mask``, by pairwise order tests."""
    return sum(1 << j for j in range(P.n)
               if any(P.le(j, i) for i in bits(mask)))


def brute_up_set(P: Poset, mask: int) -> int:
    return sum(1 << j for j in range(P.n)
               if any(P.le(i, j) for i in bits(mask)))


def brute_below_all(P: Poset, mask: int) -> int:
    """Elements below every member of ``mask``; every element for 0."""
    return sum(1 << j for j in range(P.n)
               if all(P.le(j, i) for i in bits(mask)))


def brute_chains_meeting(P: Poset, subset: int, chains=None) -> set[int]:
    """Minimal chains meeting ``subset``: no chain one member smaller meets
    it.  ``chains`` defaults to every chain of ``P``."""
    members = {c for c in chains or brute_chains(P) if c & subset}
    return {c for c in members
            if not any(c & ~(1 << i) in members for i in bits(c))}


def normal_form_dim0(P: Poset, parts) -> NormalForm:
    """Dimension 0: the composite smashes down to the intersection."""
    if brute_dimension(P) != 0:
        raise ShapeMismatch("the intersection form needs a discrete poset")
    meet = P.full
    for part in parts:
        meet &= P.check_subset(part)
    return NormalForm("D0Smash", (meet,)) if meet else ZERO


def brute_has_thread(P: Poset, parts) -> bool:
    pools = [list(bits(part)) for part in parts]
    for seq in product(*pools):
        if all(P.le(seq[i + 1], seq[i]) for i in range(len(seq) - 1)):
            return True
    return False


def brute_threads(P: Poset, parts) -> list[tuple[tuple[int, ...], int]]:
    """(sequence, support) of every thread, in ``product`` order: the
    descending sequences among all picks of one element per part.  Every
    part is validated first, as ``threads`` validates them."""
    _nonempty(parts)
    for part in parts:
        P.check_subset(part)
    pools = [list(bits(part)) for part in parts]
    return [(seq, sum(1 << i for i in set(seq)))
            for seq in product(*pools)
            if all(P.le(seq[i + 1], seq[i]) for i in range(len(seq) - 1))]


def brute_thread_set_members(P: Poset, parts) -> set[int]:
    """All chains T such that (T & A_1, ..., T & A_k) admits a thread."""
    out = set()
    for chain in brute_chains(P):
        if brute_has_thread(P, tuple(chain & part for part in parts)):
            out.add(chain)
    return out


def raw_fold(P: Poset, parts) -> ChainFamily:
    """Thread sets as the fold of ``compose`` over the per-part families of
    the parts as given, not of their canonical form: the reference for
    tuples too long for the walk or the brute-force members."""
    _nonempty(parts)
    acc = chains_meeting(P, parts[0])
    for part in parts[1:]:
        acc = compose(P, acc, chains_meeting(P, part))
    return acc


def brute_stratum(F: ChainFamily, candidates: int, companions: int) -> int:
    """The candidates ``p`` for which ``{p} | companions`` holds some
    generator of ``F``: one membership scan per candidate."""
    return sum(1 << p for p in bits(candidates)
               if any(g & ~((1 << p) | companions) == 0 for g in F))


def minimal_members(members: set[int]) -> set[int]:
    return {c for c in members
            if not any(o != c and o & c == o for o in members)}


def brute_family_members(P: Poset, generators) -> set[int]:
    return {chain for chain in brute_chains(P)
            if any(g & chain == g for g in generators)}


def brute_compose_members(P: Poset, U_members: set[int],
                          V_members: set[int]) -> set[int]:
    """Definitional product: unions of compatible member pairs."""
    out = set()
    for c in U_members:
        for d in V_members:
            if all(P.le(j, i) for i in bits(c) for j in bits(d)):
                out.add(c | d)
    return out


def brute_dimension(P: Poset) -> int:
    return max((c.bit_count() for c in brute_chains(P)), default=0) - 1


def brute_thread_prune(P: Poset, parts) -> tuple:
    """Per-element full-thread membership, straight from the definition."""
    out = []
    for i, part in enumerate(parts):
        kept = 0
        for a in bits(part):
            pinned = parts[:i] + ((1 << a),) + parts[i + 1:]
            if brute_has_thread(P, pinned):
                kept |= 1 << a
        out.append(kept)
    return tuple(out)


# -- the tuple kernels, from the definitions
#
# Each kernel validates exactly the masks it takes a closure of, pair by
# pair in its scan order, and ignores the outside bits of the others; the
# oracles below validate the same masks at the same point, so an
# out-of-range mask raises ``UnknownElement`` in both or in neither.

def _nonempty(parts) -> None:
    if not parts:
        raise ValueError("subset tuples have at least one part")


def brute_prune_upward(P: Poset, parts) -> tuple:
    """Each later part keeps the elements that end a thread of the parts
    up to it; the first part is kept as given."""
    _nonempty(parts)
    if len(parts) > 1:
        P.check_subset(parts[0])
    clipped = tuple(part & P.full for part in parts)
    return parts[:1] + tuple(
        sum(1 << a for a in bits(clipped[i])
            if brute_has_thread(P, clipped[:i] + (1 << a,)))
        for i in range(1, len(parts)))


def brute_prune_downward(P: Poset, parts) -> tuple:
    """Each earlier part keeps the elements that start a thread of the
    parts from it on; the last part is kept as given."""
    _nonempty(parts)
    if len(parts) > 1:
        P.check_subset(parts[-1])
    clipped = tuple(part & P.full for part in parts)
    return tuple(
        sum(1 << a for a in bits(clipped[i])
            if brute_has_thread(P, (1 << a,) + clipped[i + 1:]))
        for i in range(len(parts) - 1)) + parts[-1:]


def brute_is_upward_concatenated(P: Poset, parts) -> bool:
    """Every element of a part lies below some element of the part before."""
    _nonempty(parts)
    for above, below in zip(parts, parts[1:]):
        P.check_subset(above)
        if below & ~P.full or not all(any(P.le(b, a) for a in bits(above))
                                      for b in bits(below)):
            return False
    return True


def brute_is_downward_concatenated(P: Poset, parts) -> bool:
    """Every element of a part lies above some element of the part after."""
    _nonempty(parts)
    for above, below in zip(parts, parts[1:]):
        P.check_subset(below)
        if above & ~P.full or not all(any(P.le(b, a) for b in bits(below))
                                      for a in bits(above)):
            return False
    return True


def brute_all_posets(n: int) -> list[Poset]:
    """All labeled posets on ``n`` elements, named p0..p(n-1): every strict
    relation mask over the pairs ``(i, j)``, i != j, in row-major order,
    kept when it is transitive, in mask order."""
    names = [f"p{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        above = [0] * n  # above[i]: strict upper bounds of i, irreflexive
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                above[i] |= 1 << j
        # transitivity as downward closure of the above-sets; together with
        # irreflexivity this rules out cycles, hence forces antisymmetry
        ok = all(not above[j] & ~above[i]
                 for i in range(n) for j in bits(above[i]))
        if ok:
            down = tuple((1 << j) | sum(1 << i for i in range(n)
                                        if above[i] >> j & 1)
                         for j in range(n))
            out.append(Poset(tuple(names), down))
    return out


# -- the collapse rule, every removal order

def collapse_results_all_orders(t) -> frozenset[tuple]:
    """The collapsed tuples that some order of removals reaches from ``t``,
    by a search of every state removals reach.  A removal drops, of two
    adjacent parts, one that contains the other."""
    seen = {t}
    results = set()
    stack = [t]
    while stack:
        state = stack.pop()
        moves = []
        for i in range(len(state) - 1):
            a, b = state[i], state[i + 1]
            if a | b == b:
                moves.append(state[:i + 1] + state[i + 2:])
            if a | b == a:
                moves.append(state[:i] + state[i + 1:])
        if not moves:
            results.add(state)
        for move in moves:
            if move not in seen:
                seen.add(move)
                stack.append(move)
    return frozenset(results)

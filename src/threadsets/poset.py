"""Finite posets of primes: order closure, chains, dimension, set operators.

The poset models the specialization order of a finite prime spectrum.  The
order symbol ``<=`` is prime inclusion; a subset of the poset is a bitmask
over the element indices (bit ``i`` set means element ``i`` belongs to the
subset).  The order is immutable after construction.  The subset
operators (``down_set``, ``up_set``, ``below_all``) and ``labels`` remember
their answers: each poset fills, lazily, one table per operator keyed by
the subset mask, so a table holds at most 2^n entries and only the masks
that were asked for.  The three subset operators compute a missing entry
from byte tables, the block tables of Arlazarov, Dinic, Kronrod and
Faradzev: per block of 8 elements, the 256 unions of the block's rows, so
that a mask is answered by one lookup per byte.  One builder serves all
three: ``down_set`` and ``up_set`` take unions of the ``down`` and ``up``
rows, and ``below_all`` takes them over the complemented ``down`` rows,
since by De Morgan the elements below every member of a mask are those
outside the union of the members' complemented rows (all of them for the
empty mask).  An operator builds its byte tables on its own first miss,
never at construction.  The tables live and die with their poset; they
change no answer, so a poset can still be shared.

A mask is an ``int``.  It is validated on the miss that stores its entry,
and a hit is not validated again, so a value that equals a stored mask,
such as ``1.0`` once ``1`` is stored, reads that entry, while on a miss it
raises ``TypeError``.  Validation belongs at the boundary: the parsers in
``serialize`` and the CLI only ever pass ``int`` masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (BadParameter, CycleDetected, DuplicateElement,
                     UnknownElement)


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending.

    The mask must be non-negative: a negative int has infinitely many set
    bits, and the walk over them never ends.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union_bytes(rows: list[int]) -> tuple[list[int], ...]:
    """Per block of 8 rows, the unions of the rows over each byte: entry
    ``b`` of table ``k`` is the union of ``rows[8 * k + i]`` over the set
    bits ``i`` of ``b``.  Each row doubles the table (Arlazarov, Dinic,
    Kronrod and Faradzev's block tables)."""
    tables = []
    for k in range(0, len(rows), 8):
        table = [0]
        for row in rows[k:k + 8]:
            table += [x | row for x in table]
        tables.append(table)
    return tuple(tables)


def _stored(what: str, given) -> tuple:
    """``given`` as a tuple.  A ``str`` or ``bytes`` would iterate as its
    characters or byte values, so it is rejected like a non-iterable."""
    if isinstance(given, (str, bytes)):
        raise BadParameter(f"{what} must be a collection, not {given!r}")
    try:
        return tuple(given)
    except TypeError:
        raise BadParameter(f"{what} must be a collection, "
                           f"got {given!r}") from None


class Poset:
    """Finite partial order over opaque string identifiers.

    Elements are indexed 0..n-1 in declaration order.  ``down[i]`` and
    ``up[i]`` are the reflexive principal down-set and up-set of element
    ``i`` as bitmasks; ``covers`` is the transitive reduction as (lower,
    upper) index pairs.  The order never changes, so the dimension and the
    maximal and minimal elements are computed once, at construction, from
    the ``up`` and ``down`` rows.

    ``down_set``, ``up_set``, ``below_all`` and ``labels`` answer from
    per-mask tables that fill on first use, and ``families.chains_meeting``
    keeps its families in ``_meeting`` the same way.  A mask is an ``int``,
    validated on the miss that stores it, so a stored mask is always valid
    and a hit needs no check.  The misses of ``down_set``, ``up_set`` and
    ``below_all`` all run ``_miss``, which validates the mask and gathers
    its entry from the operator's byte tables in the one slot ``_bytes``:
    for each block of 8 elements one list of at most 256 unions of
    ``down``, ``up`` or complemented ``down`` rows, at most
    256 * ceil(n / 8) entries per operator.  Each operator builds its own
    tables on its first miss, so a poset that is only constructed holds
    none.  Concurrent callers can at worst compute an entry or a byte table
    twice and store equal values.

    The constructor stores both arguments as tuples and checks them: an
    argument that is a ``str``, ``bytes`` or not iterable, a label that is
    not a ``str`` or a row that is not an ``int`` (a ``bool`` is not one)
    raises BadParameter; a repeated label raises DuplicateElement;
    ``down`` must hold one row per element, each within the poset, holding
    its own bit and closed under ``down`` (else BadParameter); two
    distinct elements below each other raise CycleDetected.
    """

    __slots__ = ("elements", "down", "up", "covers", "n", "full", "_index",
                 "_comp", "_dimension", "_maximal", "_minimal", "_down_sets",
                 "_up_sets", "_floors", "_labels", "_meeting", "_bytes")

    def __init__(self, elements: Iterable[str], down: Iterable[int]):
        self.elements = elements = _stored("the elements", elements)
        self.down = down = _stored("the down-set rows", down)
        for e in elements:
            if not isinstance(e, str):
                raise BadParameter("an element label must be a string, "
                                   f"got {e!r}")
        for row in down:  # a bool is an int to isinstance
            if not isinstance(row, int) or isinstance(row, bool):
                raise BadParameter("a down-set row must be an integer, "
                                   f"got {row!r}")
        self.n = n = len(elements)
        self.full = full = (1 << n) - 1
        self._index = {e: i for i, e in enumerate(elements)}
        if len(self._index) != n:
            raise DuplicateElement("duplicate element %r" % next(
                e for i, e in enumerate(elements) if e in elements[:i]))
        if len(down) != n:
            raise BadParameter(f"{n} elements need {n} down-set rows, "
                               f"got {len(down)}")
        for j, row in enumerate(down):
            if row & ~full or not row >> j & 1:
                raise BadParameter(f"the down-set row of {elements[j]!r} must "
                                   "hold its own bit and no bit outside")
        up = [0] * n
        for j, row in enumerate(down):
            for i in bits(row):
                if down[i] & ~row:
                    raise BadParameter(f"the down-set row of {elements[j]!r}"
                                       " is not transitive")
                if i != j and down[i] >> j & 1:
                    raise CycleDetected(f"{elements[i]!r} and {elements[j]!r}"
                                        " lie below each other")
                up[i] |= 1 << j
        self.up = tuple(up)
        self._comp = tuple(down[i] | up[i] for i in range(n))
        covers = []
        for j in range(n):
            below = down[j] & ~(1 << j)
            for i in bits(below):
                between = below & self.up[i] & ~(1 << i)
                if not between:
                    covers.append((i, j))
        self.covers = tuple(sorted(covers))
        lengths = [0] * n
        for j in sorted(range(n), key=lambda j: down[j].bit_count()):
            strict = down[j] & ~(1 << j)
            lengths[j] = max((lengths[i] + 1 for i in bits(strict)), default=0)
        self._dimension = max(lengths, default=-1)
        self._maximal = sum(1 << i for i in range(n) if up[i] == 1 << i)
        self._minimal = sum(1 << i for i in range(n) if down[i] == 1 << i)
        self._down_sets: dict[int, int] = {}
        self._up_sets: dict[int, int] = {}
        self._floors: dict[int, int] = {}
        self._labels: dict[int, tuple[str, ...]] = {}
        self._meeting: dict[int, object] = {}
        self._bytes = [None, None, None]

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self.down == other.down)

    def __hash__(self):
        return hash((self.elements, self.down))

    def __repr__(self):
        rels = ", ".join(f"{self.elements[i]}<{self.elements[j]}"
                         for i, j in self.covers)
        return f"Poset({list(self.elements)!r}, [{rels}])"

    # -- element and subset handling

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElement(f"unknown element {element!r}") from None

    def subset(self, elements: Iterable[str]) -> int:
        """Bitmask of the given element identifiers."""
        mask = 0
        for e in elements:
            mask |= 1 << self.index(e)
        return mask

    def labels(self, mask: int) -> tuple[str, ...]:
        """Identifiers of the subset ``mask``, in element-index order."""
        out = self._labels.get(mask)
        if out is None:
            elements = self.elements
            out = self._labels[mask] = tuple(
                [elements[i] for i in bits(self.check_subset(mask))])
        return out

    def check_subset(self, mask: int) -> int:
        if mask & ~self.full:
            raise UnknownElement(f"mask {mask:#x} has bits outside the poset")
        return mask

    def le(self, i: int, j: int) -> bool:
        """Order test on element indices: i <= j."""
        return bool(self.down[j] >> i & 1)

    # -- family and cofamily operators

    def down_set(self, mask: int) -> int:
        """Elements below some member of ``mask`` (the generated family)."""
        out = self._down_sets.get(mask)
        return self._miss(0, self._down_sets, mask) if out is None else out

    def up_set(self, mask: int) -> int:
        """Elements above some member of ``mask`` (the generated cofamily)."""
        out = self._up_sets.get(mask)
        return self._miss(1, self._up_sets, mask) if out is None else out

    def below_all(self, mask: int) -> int:
        """Elements below every member of ``mask``; ``full`` for 0."""
        out = self._floors.get(mask)
        return self._miss(2, self._floors, mask) if out is None else out

    def _miss(self, op: int, memo: dict[int, int], mask: int) -> int:
        """Validate ``mask``, gather the entry of operator ``op`` (0
        ``down_set``, 1 ``up_set``, 2 ``below_all``) from its byte tables,
        built here on its first miss, and store it in ``memo``.  The tables
        of ``below_all`` hold complemented ``down`` rows, so its entry is
        ``full`` minus the gathered union."""
        if mask & ~self.full:
            self.check_subset(mask)
        flip = self.full if op == 2 else 0
        tables = self._bytes[op]
        if tables is None:
            rows = self.up if op == 1 else self.down
            tables = self._bytes[op] = _union_bytes([r ^ flip for r in rows])
        out, rest = 0, mask
        for table in tables:
            out |= table[rest & 0xFF]
            rest >>= 8
        out = memo[mask] = out ^ flip
        return out

    def is_upward_closed(self, mask: int) -> bool:
        return self.up_set(mask) == mask

    def maximal_elements(self) -> int:
        """Elements with no other element above them."""
        return self._maximal

    def minimal_elements(self) -> int:
        """Elements with no other element below them."""
        return self._minimal

    # -- chains

    def is_chain(self, mask: int) -> bool:
        """True when the members of ``mask`` are pairwise comparable."""
        if mask & ~self.full:
            self.check_subset(mask)
        comp = self._comp
        while mask:
            low = mask & -mask
            mask ^= low
            if mask & ~comp[low.bit_length() - 1]:
                return False
        return True

    def chains(self) -> Iterator[int]:
        """Enumerate every chain exactly once, as bitmasks.

        One loop over a stack of partial walks ``(chain, candidates)``, the
        candidates being higher-indexed elements comparable with the whole
        chain.  An entry yields its chain grown by its lowest candidate and
        pushes the grown walk above its remaining siblings, so the order is
        the lexicographic order of the sorted index sequences.  No generator
        is nested, so a walk leaves no reference cycle behind.
        """
        comp = self._comp
        stack = [(0, self.full)]
        while stack:
            chain, allowed = stack.pop()
            if allowed:
                low = allowed & -allowed
                rest = allowed ^ low
                yield chain | low
                stack.append((chain, rest))
                stack.append((chain | low, rest & comp[low.bit_length() - 1]))

    def dimension(self) -> int:
        """Largest chain cardinality minus one; -1 for the empty poset."""
        return self._dimension


def set_text(P: Poset, mask: int) -> str:
    """The subset ``mask`` written ``{a, b}``, in element-index order."""
    return "{%s}" % ", ".join(P.labels(mask))


def tuple_text(P: Poset, parts: Iterable[int]) -> str:
    """The subset tuple ``parts`` written ``({a}, {b, c})``."""
    return "(%s)" % ", ".join(set_text(P, part) for part in parts)


def build_poset(elements: Iterable[str],
                relations: Iterable[tuple[str, str]]) -> Poset:
    """Build a poset from identifiers and strict relations ``a < b``.

    The stored order is the reflexive-transitive closure of the relations,
    from one Warshall pass over the bitmask rows; an element that then
    reaches itself lies on a cycle, and CycleDetected names the first.  A
    strict relation ``a < a`` leaves no trace in the reflexive rows, so this
    check stays here; the ``Poset`` constructor rejects repeated labels.
    """
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    below = [0] * n
    for a, b in relations:
        for e in (a, b):
            if e not in index:
                raise UnknownElement(f"unknown element {e!r} in relation")
        below[index[b]] |= 1 << index[a]
    for k in range(n):
        for j in range(n):
            if below[j] >> k & 1:
                below[j] |= below[k]
    for j in range(n):
        if below[j] >> j & 1:
            raise CycleDetected(
                f"element {elements[j]!r} lies on an order cycle")
    down = tuple(below[j] | (1 << j) for j in range(n))
    return Poset(elements, down)

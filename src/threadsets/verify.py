"""Exhaustive and randomized verification of the theorem shadows.

Each suite checks one family of identities over a poset and a generated
tuple corpus: operator laws of the reduction calculus, the thread-set
monoid decomposition, the bucket form of the isomorphism conjecture, and
classifier soundness.  One sampler per suite run draws the tuples and the
associativity triples: each space is enumerated when it fits the budget
and sampled with a reported seed otherwise, so every report is
reproducible from its inputs and seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from itertools import chain, product
from typing import Callable, Iterator

from . import catalog as _catalog
from .classify import (CLASSIFIED_SHAPES, ZERO, NormalForm, classify_family,
                       form_instances, shape_of)
from .errors import BadParameter, BudgetExceeded, Inconsistent, ShapeMismatch
from .families import (EMPTY_FAMILY, ChainFamily, chains_meeting, compose,
                       minimize, principal, singleton_tuple, thread_sets,
                       threads)
from .poset import Poset, bits
from .serialize import poset_to_dict, tuple_to_lists
from .tuples import (ZERO_TUPLE, SubsetTuple, canonical, collapse,
                     is_collapsed, is_concatenated, is_downward_concatenated,
                     is_upward_concatenated, prune_downward,
                     prune_to_threads_direct, prune_upward, restrict)

FAILURE_CAP = 50  # recorded per report; the failure count is always exact
SAMPLES = 2048  # cases drawn from a space that exceeds the budget


@dataclass(frozen=True)
class Bounds:
    """Corpus bounds.

    Tuples have lengths 1..``max_k``.  A case space (the tuples, or the
    monoid suite's associativity triples) is enumerated when it has at most
    ``budget`` cases; otherwise ``SAMPLES`` cases are drawn from it with
    ``seed``, or ``BudgetExceeded`` is raised when ``exhaustive`` is set.
    """

    max_k: int = 2
    budget: int = 1 << 20
    exhaustive: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("max_k", "budget", "seed"):
            value = getattr(self, name)  # a bool is an int to isinstance
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadParameter(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise BadParameter(f"{name} must be a positive integer, "
                                   f"got {value!r}")
        if not isinstance(self.exhaustive, bool):
            raise BadParameter("exhaustive must be a boolean, "
                               f"got {self.exhaustive!r}")


class VerificationReport:
    """One suite run: its case stream and failures while the suite runs,
    then its report.

    A failure is recorded as the dict that ``to_dict`` emits: ``property``,
    ``inputs``, ``expected`` and ``actual``.
    """

    def __init__(self, suite: str, P: Poset, bounds: Bounds, name: str = ""):
        self.suite = suite
        self.P: Poset | None = P
        self.poset: dict | None = None  # poset_to_dict(P), set by finish
        self.bounds = bounds
        self.poset_name = name or f"poset:{','.join(P.elements) or '<empty>'}"
        self.mode = "exhaustive"
        self.cases = 0
        self.failure_count = 0
        self.failures: list[dict] = []
        self.seed: int | None = None
        self.details: dict = {}
        self.case: SubsetTuple = ()
        self.start = time.perf_counter()
        self.elapsed = 0.0

    def fail(self, prop: str, expected, actual,
             inputs: dict | None = None) -> None:
        """Count a failure and record the first FAILURE_CAP of them.

        ``inputs`` defaults to the current corpus case, labeled only when
        the failure is recorded.
        """
        self.failure_count += 1
        if len(self.failures) < FAILURE_CAP:
            if inputs is None:
                inputs = {"tuple": tuple_to_lists(self.P, self.case)}
            self.failures.append({"property": prop, "inputs": inputs,
                                  "expected": repr(expected),
                                  "actual": repr(actual)})

    def check(self, prop: str, expected, actual,
              inputs: dict | None = None) -> None:
        if expected != actual:
            self.fail(prop, expected, actual, inputs)

    def draw(self, lengths: range,
             what: str) -> tuple[int, Iterator[SubsetTuple]]:
        """The number of cases and the cases: every tuple with a length in
        ``lengths`` when they fit the budget, else ``SAMPLES`` of them drawn
        with the seed.  Forced exhaustive mode raises ``BudgetExceeded``
        instead of drawing."""
        n, b = self.P.n, self.bounds
        space = sum((1 << n) ** k for k in lengths)
        if space <= b.budget:
            return space, _all_tuples(n, lengths)
        if b.exhaustive:
            raise BudgetExceeded(f"exhaustive mode forced on {space} {what} "
                                 f"with budget {b.budget}")
        self.seed = b.seed
        rng = random.Random(b.seed)
        return SAMPLES, (_decode_tuple(rng.randrange(space), n, lengths)
                         for _ in range(SAMPLES))

    def corpus(self) -> Iterator[SubsetTuple]:
        """The tuple corpus, each tuple kept as the current case; ``mode``
        says whether it was sampled."""
        count, cases = self.draw(range(1, self.bounds.max_k + 1), "tuples")
        self.mode = "exhaustive" if self.seed is None else "sampled"
        self.cases += count
        for t in cases:
            self.case = t
            yield t

    def finish(self) -> VerificationReport:
        """The report: the wall time and the poset's dict are recorded and
        the poset is dropped, since a kept report would keep its memo
        tables alive."""
        self.elapsed = time.perf_counter() - self.start
        self.poset, self.P = poset_to_dict(self.P), None
        return self

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_dict(self) -> dict:
        # elapsed is deliberately omitted: reports must be byte-identical
        # for identical inputs and seed
        return {
            "suite": self.suite,
            "poset_name": self.poset_name,
            "poset": self.poset,
            "mode": self.mode,
            "cases": self.cases,
            "seed": self.seed,
            "passed": self.passed,
            "failure_count": self.failure_count,
            "failures": self.failures,
            "details": self.details,
        }

    def to_text(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.failure_count})"
        head = (f"[{status}] {self.suite} on {self.poset_name}: "
                f"{self.cases} cases, {self.mode}, {self.elapsed:.2f}s")
        lines = [head]
        for f in self.failures:
            lines.append(f"  {f['property']}: expected {f['expected']}, "
                         f"got {f['actual']} on {f['inputs']}")
        if self.failure_count > len(self.failures):
            lines.append(f"  ... {self.failure_count - len(self.failures)}"
                         " further failures not shown")
        return "\n".join(lines)


def _all_tuples(n: int, lengths: range) -> Iterator[SubsetTuple]:
    block = range(1 << n)
    return chain.from_iterable(product(block, repeat=k) for k in lengths)


def _decode_tuple(index: int, n: int, lengths: range) -> SubsetTuple:
    """Tuple number ``index`` of those with a length in ``lengths``: shorter
    tuples first, the first part in the lowest digit base ``2**n``."""
    block = 1 << n
    for k in lengths:
        if index < block ** k:
            break
        index -= block ** k
    parts = []
    for _ in range(k):
        index, low = divmod(index, block)
        parts.append(low)
    return tuple(parts)


def _collapse_results_all_orders(
        parts: SubsetTuple) -> frozenset[SubsetTuple]:
    """Collapsed tuples reachable by every removal order (confluence probe)."""
    seen: set[SubsetTuple] = set()
    results: set[SubsetTuple] = set()
    stack = [parts]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        moves = []
        for i in range(len(t) - 1):
            a, b = t[i], t[i + 1]
            if a | b == b:
                moves.append(t[:i + 1] + t[i + 2:])
            if b | a == a:
                moves.append(t[:i] + t[i + 1:])
        if moves:
            stack.extend(moves)
        else:
            results.add(t)
    return frozenset(results)


def verify_operator_laws(P: Poset, bounds: Bounds = Bounds(),
                         name: str = "") -> VerificationReport:
    """Idempotence, commutation and confluence of the reduction operators."""
    s = VerificationReport("operator-laws", P, bounds, name)
    for t in s.corpus():
        upward = prune_upward(P, t)
        downward = prune_downward(P, t)
        s.check("prune_upward_idempotent", upward, prune_upward(P, upward))
        s.check("prune_upward_concatenates", True,
                is_upward_concatenated(P, upward))
        s.check("prune_downward_idempotent", downward,
                prune_downward(P, downward))
        s.check("prune_downward_concatenates", True,
                is_downward_concatenated(P, downward))
        both = prune_downward(P, upward)
        s.check("prune_order_commutes", both, prune_upward(P, downward))
        s.check("thread_prune_matches_direct", both,
                prune_to_threads_direct(P, t))
        s.check("thread_prune_idempotent", both,
                prune_downward(P, prune_upward(P, both)))
        collapsed = collapse(t)
        s.check("collapse_idempotent", collapsed, collapse(collapsed))
        s.check("collapse_collapses", True, is_collapsed(collapsed))
        s.check("collapse_confluent", frozenset((collapsed,)),
                _collapse_results_all_orders(t))
        if is_upward_concatenated(P, t):
            s.check("collapse_preserves_upward", True,
                    is_upward_concatenated(P, collapsed))
        if is_downward_concatenated(P, t):
            s.check("collapse_preserves_downward", True,
                    is_downward_concatenated(P, collapsed))
        reduced = collapse(both)
        s.check("canonical_idempotent", reduced, canonical(P, reduced))
        s.check("canonical_shape", True,
                reduced == ZERO_TUPLE
                or (is_collapsed(reduced) and is_concatenated(P, reduced)))
    return s.finish()


def verify_thread_monoid(P: Poset, bounds: Bounds = Bounds(),
                         name: str = "") -> VerificationReport:
    """Thread-set decomposition, composition laws, reduction shadows, and
    the chains, principal families and zones that tuples of them name.

    ``P.chains()`` is checked only when its 2^n bound fits the budget."""
    s = VerificationReport("monoid", P, bounds, name)
    chain_set = None
    if 1 << P.n <= bounds.budget:  # P has fewer than 2^n chains
        chains = list(P.chains())
        chain_set = set(chains)
        s.check("chains_are_the_chain_subsets", len(chain_set), len(chains),
                {"enumeration": "Poset.chains"})
    for t in s.corpus():
        F = thread_sets(P, t)
        # threads() is the reference: minimal supports of the enumerated
        # threads, computed without compose
        enumerated = minimize({th.support for th in threads(P, t)})
        s.check("thread_sets_decompose", enumerated, F)
        for j in range(1, len(t)):
            s.check("thread_sets_of_concatenation", F,
                    compose(P, thread_sets(P, t[:j]), thread_sets(P, t[j:])))
        reduced = canonical(P, t)
        s.check("canonical_preserves_thread_sets", F, thread_sets(P, reduced))
        s.check("no_thread_iff_zero", F.is_empty(), reduced == ZERO_TUPLE)
        if len(t) == 1:
            a = t[0]
            is_chain = a != 0 and P.is_chain(a)
            if chain_set is not None:
                s.check("chains_are_the_chain_subsets", is_chain,
                        a in chain_set)
            if is_chain:
                s.check("singleton_tuple_is_principal", principal(P, a),
                        thread_sets(P, singleton_tuple(P, a)))
        elif P.is_upward_closed(t[-1]):
            s.check("restrict_is_appending_the_zone", reduced,
                    canonical(P, restrict(P, t[:-1], t[-1])))
        if len(t) == 2:
            a, b = t
            s.check("head_restricts_to_upset", F,
                    thread_sets(P, (a & P.up_set(b), b)))
            s.check("tail_restricts_to_downset", F,
                    thread_sets(P, (a, b & P.down_set(a))))
    _associativity(s)
    return s.finish()


def _associativity(s: VerificationReport) -> None:
    """``compose`` is associative on the families ``chains_meeting(P, a)``.

    The triples ``(a, b, c)`` are drawn as tuples of length 3.  Families
    are interned as ints: ``family[i]`` is the family with id ``i``,
    ``gen[a]`` the id of ``chains_meeting(P, a)``, made on first use, and
    ``products[x][y]`` the id of ``compose`` of families ``x`` and ``y``,
    so each distinct pair is composed once and the triple loop hashes and
    compares ints only.  Failures map the ids back to families.
    """
    P = s.P
    total, triples = s.draw(range(3, 4), "triples")
    ids: dict[ChainFamily, int] = {}
    family: list[ChainFamily] = []
    products: list[dict[int, int]] = []

    def intern(F: ChainFamily) -> int:
        i = ids.get(F)
        if i is None:
            i = ids[F] = len(family)
            family.append(F)
            products.append({})
        return i

    def composed(x: int, y: int) -> int:
        z = products[x][y] = intern(compose(P, family[x], family[y]))
        return z

    gen: dict[int, int] = {}
    for a, bb, c in triples:
        x = gen.get(a)
        if x is None:
            x = gen[a] = intern(chains_meeting(P, a))
        y = gen.get(bb)
        if y is None:
            y = gen[bb] = intern(chains_meeting(P, bb))
        z = gen.get(c)
        if z is None:
            z = gen[c] = intern(chains_meeting(P, c))
        xy = products[x].get(y)
        if xy is None:
            xy = composed(x, y)
        left = products[xy].get(z)
        if left is None:
            left = composed(xy, z)
        yz = products[y].get(z)
        if yz is None:
            yz = composed(y, z)
        right = products[x].get(yz)
        if right is None:
            right = composed(x, yz)
        if left != right:
            s.fail("compose_associative", family[left], family[right],
                   {"subsets": tuple_to_lists(P, (a, bb, c))})
    s.cases += total
    s.details["associativity_triples"] = total


def verify_conjecture(P: Poset, bounds: Bounds = Bounds(),
                      name: str = "") -> VerificationReport:
    """Bucket tuples by thread sets; equal thread sets must mean equal form.

    On shape-supported posets every bucket must classify to a single normal
    form; on other finite posets the bucket partition is still computed and
    the invariance of thread sets under canonical reduction is checked.
    """
    s = VerificationReport("conjecture", P, bounds, name)
    shape = shape_of(P)
    supported = shape in CLASSIFIED_SHAPES
    buckets: dict[ChainFamily, tuple[NormalForm, SubsetTuple]] = {}
    sizes: dict[ChainFamily, int] = {}
    for t in s.corpus():
        F = thread_sets(P, t)
        s.check("canonical_preserves_thread_sets", F,
                thread_sets(P, canonical(P, t)))
        sizes[F] = sizes.get(F, 0) + 1
        if not supported:
            continue
        try:
            nf = classify_family(P, F)
        except Inconsistent as exc:  # a counterexample to the theorem
            s.fail("family_realized", "a normal form", exc)
            continue
        held = buckets.get(F)
        if held is None:
            buckets[F] = (nf, t)
        elif held[0] != nf:
            s.fail("same_thread_sets_same_form", held[0], nf,
                   {"tuples": [tuple_to_lists(P, u) for u in (held[1], t)]})
    s.details["shape"] = shape
    s.details["buckets"] = len(sizes)
    histogram: dict[int, int] = {}
    for count in sizes.values():
        histogram[count] = histogram.get(count, 0) + 1
    s.details["bucket_size_histogram"] = dict(sorted(histogram.items()))
    return s.finish()


def verify_classifier(P: Poset, bounds: Bounds = Bounds(),
                      name: str = "") -> VerificationReport:
    """Round-trip every syntactic form instance through its thread sets.

    Each instance must classify back to itself with equal payloads, and
    all instances must have pairwise distinct thread-set families.
    """
    s = VerificationReport("classifier", P, bounds, name)
    seen: dict[ChainFamily, NormalForm] = {}
    for inst in form_instances(P):
        s.cases += 1
        defining = inst.as_tuple(P)
        F = thread_sets(P, defining)
        try:
            got = classify_family(P, F)
        except Inconsistent as exc:  # a counterexample to the theorem
            got = exc
        other = seen.setdefault(F, inst)
        if inst != got or other is not inst:  # label the inputs on failure
            inputs = {"form": inst.describe(P),
                      "tuple": tuple_to_lists(P, defining)}
            prop = ("family_realized" if isinstance(got, Inconsistent)
                    else "classifier_round_trip")
            s.check(prop, inst, got, inputs)
            if other is not inst:
                s.fail("forms_have_distinct_thread_sets", other, inst, inputs)
    s.cases += 1
    s.check("zero_from_empty_family", ZERO,
            classify_family(P, EMPTY_FAMILY), {"form": "Zero"})
    return s.finish()


_SUITES: dict[str, Callable[..., VerificationReport]] = {
    "operator-laws": verify_operator_laws,
    "monoid": verify_thread_monoid,
    "conjecture": verify_conjecture,
    "classifier": verify_classifier,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def all_posets(n: int) -> list[Poset]:
    """All labeled posets on exactly ``n`` elements, named p0..p(n-1)."""
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


def labeled_corpus(max_n: int = 4) -> list[tuple[str, Poset]]:
    """All labeled posets on 0..max_n elements, with stable names."""
    out = []
    for n in range(max_n + 1):
        for i, P in enumerate(all_posets(n)):
            out.append((f"labeled-{n}-{i}", P))
    return out


def catalog_corpus() -> list[tuple[str, Poset]]:
    picks = [("chain", (3,)), ("diamond", (2,)), ("diamond", (3,)),
             ("star", (3,)), ("star", (4,)), ("chromatic", (4,)),
             ("circle", (4,)), ("zariski_xy", (2, 2)), ("torus2", (2,))]
    entries = [_catalog.catalog(name, *params) for name, params in picks]
    return [(entry.label, entry.poset) for entry in entries]


def default_corpus() -> list[tuple[str, Poset]]:
    return labeled_corpus(4) + catalog_corpus()


def deepened(bounds: Bounds, P: Poset) -> Bounds:
    """Bounds used on the default corpus: small posets get deeper tuples."""
    if P.n <= 3 and bounds.max_k < 3:
        return replace(bounds, max_k=3)
    return bounds


def run_suite(suite: str, posets: list[tuple[str, Poset]] | None = None,
              bounds: Bounds = Bounds()) -> list[VerificationReport]:
    """Run one suite (or ``all``) over the given or default corpus.

    Explicit posets are checked at exactly the given bounds; on the
    default corpus, posets with at most 3 elements are deepened to k <= 3.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; known: {SUITE_NAMES}")
    adapt = posets is None
    if posets is None:
        posets = default_corpus()
    suites = list(_SUITES) if suite == "all" else [suite]
    reports = []
    for which in suites:
        for name, P in posets:
            if which == "classifier" and shape_of(P) not in CLASSIFIED_SHAPES:
                continue
            effective = deepened(bounds, P) if adapt else bounds
            reports.append(_SUITES[which](P, effective, name=name))
    if not reports:  # a run that checked nothing must not read as a pass
        raise ShapeMismatch(f"no poset to run {suite} on; the classifier "
                            "suite needs one of the shapes "
                            + ", ".join(CLASSIFIED_SHAPES))
    return reports

"""Exhaustive and randomized verification of the theorem shadows.

Each suite checks one family of identities over a poset and a generated
tuple corpus: operator laws of the reduction calculus, the thread-set
monoid decomposition, the bucket form of the isomorphism conjecture, and
classifier soundness.  Each suite run is one ``VerificationReport``: its
sampler draws the tuples, the associativity triples and the pairs of
chains, each space enumerated when it fits the budget and sampled with a
reported seed otherwise, so every report is reproducible from its inputs
and seed; and its tables intern the run's chain families as ints, so each
tuple's thread sets are computed once, each pair of families composed
once and each family classified once.  The collapse table: ``collapse`` never
reads the poset, so the operator-laws reports of one ``run_suite`` call
share a table mapping each tuple on which its laws held to its
``collapse``; a tuple in it skips them, so a failing tuple fails in every
report that holds it.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, product
from math import isqrt
from typing import Callable, Iterator

from . import catalog as _catalog
from .classify import (CLASSIFIED_SHAPES, ZERO, NormalForm, classify_family,
                       form_instances, shape_of)
from .errors import BadParameter, BudgetExceeded, Inconsistent, ShapeMismatch
from .families import (EMPTY_FAMILY, ChainFamily, compose, minimize,
                       principal, singleton_tuple, thread_sets)
from .poset import Poset, bits
from .serialize import poset_to_dict, tuple_to_lists
from .tuples import (ZERO_TUPLE, SubsetTuple, canonical, collapse,
                     is_collapsed, is_concatenated, is_downward_concatenated,
                     is_upward_concatenated, prune_downward, prune_to_threads,
                     prune_to_threads_direct, prune_upward, restrict, threads)

FAILURE_CAP = 50  # recorded per report; the failure count is always exact
SAMPLES = 2048  # cases drawn from a space that exceeds the budget
PAIRED = isqrt(SAMPLES)  # chains whose pairs are drawn, as cases are
# The longest tuples a run may ask for.  No check is exponential in the
# tuple length k: the cost left is the monoid suite's
# thread_sets_of_concatenation, which takes the thread sets of both slices
# at each of the k - 1 cuts of a tuple, k^2 part checks in all.  With this
# cap lifted, verify all on diamond(3) or zariski_xy(2, 2), 2048 sampled
# tuples, took 0.5 s at max_k = 12, 1.9-2.3 s at 48 and 3.9-4.9 s at 96,
# and operator-laws on a 3-element chain 0.2 s at 12 and 0.8 s at 96
# (CPython 3.11, a shared 2-core machine).
MAX_K = 12


@dataclass(frozen=True)
class Bounds:
    """Corpus bounds.

    Tuples have lengths 1..``max_k``, and ``max_k`` is at most ``MAX_K``,
    since a tuple of k parts costs the monoid suite k^2 part checks.
    A case space (the tuples, or the monoid suite's associativity triples
    or pairs of chains) is enumerated when it has at most ``budget``
    cases; otherwise ``SAMPLES`` cases are drawn from it with ``seed``
    (the pairs of ``PAIRED`` chains, for pairs of chains), or
    ``BudgetExceeded`` is raised when ``exhaustive`` is set.
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
        if self.max_k > MAX_K:
            raise BadParameter(f"max_k must be at most {MAX_K}, "
                               f"got {self.max_k!r}")
        if not isinstance(self.exhaustive, bool):
            raise BadParameter("exhaustive must be a boolean, "
                               f"got {self.exhaustive!r}")


class VerificationReport:
    """One suite run: its case stream, chain families and failures while
    the suite runs, then its report.

    A failure is recorded as the dict that ``to_dict`` emits: ``property``,
    ``inputs``, ``expected`` and ``actual``.  Every failure is counted per
    property, also past the first ``FAILURE_CAP`` recorded, and
    ``failure_count`` is their sum.

    The run's chain families are interned as ints: ``family[i]`` is the
    family with id ``i``, ``ids`` maps each family to its id, and
    ``products[x][y]`` is the id of ``compose`` of families ``x`` and
    ``y``.  ``product`` composes each distinct pair of ids once, and
    ``products_of`` reads a row of them.  ``of`` computes each tuple's
    thread sets once.  ``form`` classifies each id once and keeps in
    ``forms[x]`` its ``classify_family`` or the ``Inconsistent`` that it
    raised.  They go through this module's ``compose``, ``thread_sets`` and
    ``classify_family``, so a check compares ints where it would compare
    families; ``same`` records the two families of unequal ids.
    ``finish`` empties the tables.
    """

    def __init__(self, suite: str, P: Poset, bounds: Bounds, name: str = ""):
        self.suite = suite
        self.P: Poset | None = P
        self.poset: dict | None = None  # poset_to_dict(P), set by finish
        self.bounds = bounds
        self.poset_name = name or f"poset:{','.join(P.elements) or '<empty>'}"
        self.mode = "exhaustive"
        self.cases = 0
        self.failures_by_property: Counter = Counter()
        self.failures: list[dict] = []
        self.seed: int | None = None
        self.details: dict = {}
        self.case: SubsetTuple = ()
        self.ids: dict[ChainFamily, int] = {}
        self.family: list[ChainFamily] = []
        self.products: list[dict[int, int]] = []
        self.forms: dict[int, NormalForm | None | Inconsistent] = {}
        self._tuples: dict[SubsetTuple, int] = {}
        self.start = time.perf_counter()
        self.elapsed = 0.0

    def fail(self, prop: str, expected, actual,
             inputs: dict | None = None) -> None:
        """Count a failure and record the first FAILURE_CAP of them.

        ``inputs`` defaults to the current corpus case, labeled only when
        the failure is recorded.
        """
        self.failures_by_property[prop] += 1
        if len(self.failures) < FAILURE_CAP:
            if inputs is None:
                inputs = {"tuple": tuple_to_lists(self.P, self.case)}
            self.failures.append({"property": prop, "inputs": inputs,
                                  "expected": repr(expected),
                                  "actual": repr(actual)})

    def check(self, prop: str, expected, actual,
              inputs: dict | None = None) -> bool:
        """Fail ``prop`` when ``expected != actual``; whether it held."""
        if expected != actual:
            self.fail(prop, expected, actual, inputs)
            return False
        return True

    def intern(self, F: ChainFamily) -> int:
        i = self.ids.get(F)
        if i is None:
            i = self.ids[F] = len(self.family)
            self.family.append(F)
            self.products.append({})
        return i

    def of(self, t: SubsetTuple) -> int:
        i = self._tuples.get(t)
        if i is None:
            i = self._tuples[t] = self.intern(thread_sets(self.P, t))
        return i

    def product(self, x: int, y: int) -> int:
        z = self.products[x].get(y)
        if z is None:
            z = self.products[x][y] = self.intern(
                compose(self.P, self.family[x], self.family[y]))
        return z

    def products_of(self, x: int, ys: list[int]) -> list[int]:
        """``[self.product(x, y) for y in ys]``, in that order, reading the
        products already in the table without a call."""
        known = self.products[x]
        return [known[y] if y in known else self.product(x, y) for y in ys]

    def form(self, x: int) -> NormalForm | None | Inconsistent:
        """``classify_family`` of family ``x``, or the ``Inconsistent`` that
        it raised, kept without its traceback."""
        if x not in self.forms:
            try:
                self.forms[x] = classify_family(self.P, self.family[x])
            except Inconsistent as exc:  # a counterexample to the theorem
                self.forms[x] = exc.with_traceback(None)
        return self.forms[x]

    def same(self, prop: str, x: int, y: int,
             inputs: dict | None = None) -> None:
        """Fail ``prop`` with the families of ids ``x`` and ``y`` when they
        differ."""
        if x != y:
            self.fail(prop, self.family[x], self.family[y], inputs)

    def draw(self, lengths: range,
             what: str) -> tuple[int, Iterator[SubsetTuple], bool]:
        """The number of cases, the cases and whether they were sampled:
        every tuple with a length in ``lengths`` when they fit the budget,
        else ``SAMPLES`` of them drawn with the seed.  Forced exhaustive
        mode raises ``BudgetExceeded`` instead of drawing."""
        n = self.P.n
        space = sum((1 << n) ** k for k in lengths)
        rng = self.sampler(space, what)
        if rng is None:
            return space, _all_tuples(n, lengths), False
        return SAMPLES, (_decode_tuple(rng.randrange(space), n, lengths)
                         for _ in range(SAMPLES)), True

    def sampler(self, space: int, what: str) -> random.Random | None:
        """None when a space of ``space`` cases fits the budget, else the
        generator, seeded and recorded, to draw ``SAMPLES`` of them with;
        forced exhaustive mode raises ``BudgetExceeded`` instead."""
        b = self.bounds
        if space <= b.budget:
            return None
        if b.exhaustive:
            raise BudgetExceeded(f"exhaustive mode forced on {space} {what} "
                                 f"with budget {b.budget}")
        self.seed = b.seed
        return random.Random(b.seed)

    def corpus(self) -> Iterator[SubsetTuple]:
        """The tuple corpus, each tuple kept as the current case; ``mode``
        says whether it was sampled."""
        count, cases, sampled = self.draw(range(1, self.bounds.max_k + 1),
                                          "tuples")
        self.mode = "sampled" if sampled else "exhaustive"
        self.cases += count
        for t in cases:
            self.case = t
            yield t

    def finish(self) -> VerificationReport:
        """The report: the wall time and the poset's dict are recorded, and
        the poset and the family tables are dropped, since a kept report
        would keep them and the poset's memo tables alive."""
        self.elapsed = time.perf_counter() - self.start
        self.poset, self.P = poset_to_dict(self.P), None
        for table in (self.ids, self.family, self.products, self.forms,
                      self._tuples):
            table.clear()
        return self

    @property
    def failure_count(self) -> int:
        return sum(self.failures_by_property.values())

    @property
    def passed(self) -> bool:
        return not self.failures_by_property

    def to_dict(self) -> dict:
        # elapsed is deliberately omitted: reports must be byte-identical
        # for identical inputs and seed; only a failed report counts per
        # property, so passing reports keep their bytes
        by_property = {} if self.passed else {"failures_by_property": dict(
            sorted(self.failures_by_property.items()))}
        return {
            "suite": self.suite,
            "poset_name": self.poset_name,
            "poset": self.poset,
            "mode": self.mode,
            "cases": self.cases,
            "seed": self.seed,
            "passed": self.passed,
            "failure_count": self.failure_count,
            **by_property,
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


def _collapse_by_removals(t: SubsetTuple) -> SubsetTuple:
    """``collapse`` by its rule, one removal at a time: drop the larger part
    of the leftmost comparable adjacent pair until no such pair is left.
    The rule is confluent (``tuples.collapse``), so this one order gives
    the tuple of every order."""
    parts = list(t)
    while True:
        for i in range(len(parts) - 1):
            a, b = parts[i], parts[i + 1]
            if a | b in (a, b):
                del parts[i + (a | b == b)]  # the right one when equal
                break
        else:
            return tuple(parts)


def verify_operator_laws(P: Poset, bounds: Bounds = Bounds(),
                         name: str = "") -> VerificationReport:
    """Idempotence, commutation and confluence of the reduction operators.

    The library's ``prune_to_threads`` is checked against the other prune
    order and against ``prune_to_threads_direct``, the thread walk,
    ``collapse`` against ``_collapse_by_removals``, its rule, and
    ``canonical``, a two-pass kernel of its own, against the composite
    ``collapse(prune_to_threads(t))``.  A direct call starts a fresh
    collapse table (module docstring)."""
    return _operator_laws(P, bounds, name, {})


def _operator_laws(P: Poset, bounds: Bounds, name: str,
                   lawful: dict[SubsetTuple, SubsetTuple]
                   ) -> VerificationReport:
    """``verify_operator_laws`` reading and filling ``lawful``, the collapse
    table of the module docstring."""
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
        both = prune_to_threads(P, t)
        s.check("prune_order_commutes", both, prune_upward(P, downward))
        s.check("thread_prune_matches_direct", both,
                prune_to_threads_direct(P, t))
        s.check("thread_prune_idempotent", both, prune_to_threads(P, both))
        collapsed = lawful.get(t)
        if collapsed is None:
            collapsed = collapse(t)
            # `&`, not `and`: all three checks run, in this order
            if (s.check("collapse_idempotent", collapsed, collapse(collapsed))
                    & s.check("collapse_collapses", True,
                              is_collapsed(collapsed))
                    & s.check("collapse_confluent", collapsed,
                              _collapse_by_removals(t))):
                lawful[t] = collapsed
        if is_upward_concatenated(P, t):
            s.check("collapse_preserves_upward", True,
                    is_upward_concatenated(P, collapsed))
        if is_downward_concatenated(P, t):
            s.check("collapse_preserves_downward", True,
                    is_downward_concatenated(P, collapsed))
        reduced = collapse(both)
        s.check("canonical_is_collapsed_thread_prune", reduced,
                canonical(P, t))
        s.check("canonical_idempotent", reduced, canonical(P, reduced))
        s.check("canonical_shape", True,
                reduced == ZERO_TUPLE
                or (is_collapsed(reduced) and is_concatenated(P, reduced)))
    return s.finish()


def verify_thread_monoid(P: Poset, bounds: Bounds = Bounds(),
                         name: str = "") -> VerificationReport:
    """Thread-set decomposition, composition laws, reduction shadows, and
    the chains, principal families and zones that tuples of them name.
    Both prunes and ``canonical`` keep every tuple's thread sets: each of
    them is checked against the family of the enumerated threads, since
    ``thread_sets`` itself folds over the canonical form, and two folds of
    one form would agree whether or not the reduction kept the family.

    Every family is read from the report's tables: each tuple's thread
    sets are computed once, whether it is a corpus tuple or a slice, a
    reduction or a restriction of one, and each pair of families is
    composed once.  ``P.chains()`` is checked only when its 2^n bound fits
    the budget, and then ``compose`` on the pairs of principal families of
    its chains, or of ``PAIRED`` of its chains drawn with the seed when its
    pairs exceed the budget."""
    s = VerificationReport("monoid", P, bounds, name)
    of, times, same, family = s.of, s.product, s.same, s.family
    chain_set = None
    if 1 << P.n <= bounds.budget:  # P has fewer than 2^n chains
        chains = list(P.chains())
        chain_set = set(chains)
        s.check("chains_are_the_chain_subsets", len(chain_set), len(chains),
                {"enumeration": "Poset.chains"})
        # the cut lemma on generators: the principal families of C and D
        # compose to the one of C | D when D lies below all of C, else to
        # the empty family
        paired = chains
        rng = s.sampler(len(chains) ** 2, "chain pairs")
        if rng is not None:
            drawn = rng.sample(range(len(chains)), min(len(chains), PAIRED))
            paired = [chains[i] for i in sorted(drawn)]
        principals = [s.intern(ChainFamily((C,))) for C in paired]
        for C, x in zip(paired, principals):
            floor = P.full
            for i in bits(C):
                floor &= P.down[i]
            for D, y in zip(paired, principals):
                cut = (ChainFamily((C | D,)) if D & ~floor == 0
                       else EMPTY_FAMILY)
                got = family[times(x, y)]
                if got != cut:
                    s.fail("compose_matches_cuts", cut, got,
                           {"chains": tuple_to_lists(P, (C, D))})
    for t in s.corpus():
        x = of(t)
        F = family[x]
        # the thread walk is the reference of the fold and of the
        # reductions: minimal supports of the enumerated threads, computed
        # without compose or canonical
        e = s.intern(minimize({support for _, support in threads(P, t)}))
        same("thread_sets_decompose", e, x)
        for j in range(1, len(t)):
            same("thread_sets_of_concatenation", x,
                 times(of(t[:j]), of(t[j:])))
        reduced = canonical(P, t)
        same("canonical_preserves_thread_sets", e, of(reduced))
        s.check("no_thread_iff_zero", F.is_empty(), reduced == ZERO_TUPLE)
        if len(t) == 1:
            a = t[0]
            is_chain = a != 0 and P.is_chain(a)
            if chain_set is not None:
                s.check("chains_are_the_chain_subsets", is_chain,
                        a in chain_set)
            if is_chain:
                s.check("singleton_tuple_is_principal", principal(P, a),
                        family[of(singleton_tuple(P, a))])
        elif P.is_upward_closed(t[-1]):
            s.check("restrict_is_appending_the_zone", reduced,
                    canonical(P, restrict(P, t[:-1], t[-1])))
        same("prune_upward_keeps_thread_sets", e, of(prune_upward(P, t)))
        same("prune_downward_keeps_thread_sets", e, of(prune_downward(P, t)))
    _associativity(s)
    return s.finish()


def _associativity(s: VerificationReport) -> None:
    """``compose`` is associative on the generators, the thread sets
    ``s.of((a,))`` of the 1-tuples, which are ``chains_meeting(P, a)``.

    The triples ``(a, b, c)`` are drawn as tuples of length 3, and every
    product is read from the report, so each distinct pair of families is
    composed once and the loops compare ints only.  An enumerated space is
    checked a row at a time: for each ``(a, b)`` in order, the row of
    ``(ab)c`` over every ``c`` is compared with the row of ``a(bc)``.  The
    row of a family, its products with every generator, is kept by id, so
    ``(ab)c`` and ``bc`` are read from rows, and a row is read with
    ``products_of``, which composes only the products not yet in the
    table.  A sampled draw is checked one triple at a time.  Either way
    failures come in triple order, and record the two families.
    """
    P, of, times, products_of = s.P, s.of, s.product, s.products_of
    total, triples, sampled = s.draw(range(3, 4), "triples")

    def fail(a: int, b: int, c: int, left: int, right: int) -> None:
        s.same("compose_associative", left, right,
               {"subsets": tuple_to_lists(P, (a, b, c))})

    if sampled:
        for a, b, c in triples:
            x, y, z = of((a,)), of((b,)), of((c,))
            left, right = times(times(x, y), z), times(x, times(y, z))
            if left != right:
                fail(a, b, c, left, right)
    else:
        column = [of((c,)) for c in range(1 << P.n)]
        rows: dict[int, list[int]] = {}

        def row(x: int) -> list[int]:
            r = rows.get(x)
            if r is None:
                r = rows[x] = products_of(x, column)
            return r

        for a, x in enumerate(column):
            for b, y in enumerate(column):
                left = row(times(x, y))
                right = products_of(x, row(y))
                if left != right:
                    for c, (u, v) in enumerate(zip(left, right)):
                        if u != v:
                            fail(a, b, c, u, v)
    s.cases += total
    s.details["associativity_triples"] = total


def verify_conjecture(P: Poset, bounds: Bounds = Bounds(),
                      name: str = "") -> VerificationReport:
    """Bucket tuples by thread sets; every bucket must have a normal form.

    Buckets are keyed by family id, and each family is classified once, so
    the tuples of a bucket share its form by construction.  On
    shape-supported posets each tuple whose family classifies to no form
    fails ``family_realized``; on other finite posets the bucket partition
    is still computed.  Everywhere the invariance of thread sets under
    canonical reduction is checked, and a canonical form that is itself a
    corpus tuple is not computed again.  Since ``thread_sets`` folds over
    the canonical form, this check re-reduces: it compares the folds over
    ``canonical(t)`` and ``canonical(canonical(t))``, so it catches a
    reduction that is not idempotent on its thread sets, while the monoid
    suite checks the preservation itself against the thread walk.
    """
    s = VerificationReport("conjecture", P, bounds, name)
    shape = shape_of(P)
    supported = shape in CLASSIFIED_SHAPES
    of, same = s.of, s.same
    sizes: Counter[int] = Counter()
    for t in s.corpus():
        x = of(t)
        same("canonical_preserves_thread_sets", x, of(canonical(P, t)))
        sizes[x] += 1
        if supported:
            nf = s.form(x)
            if isinstance(nf, Inconsistent):  # a counterexample to the theorem
                s.fail("family_realized", "a normal form", nf)
    s.details["shape"] = shape
    s.details["buckets"] = len(sizes)
    s.details["bucket_size_histogram"] = dict(
        sorted(Counter(sizes.values()).items()))
    return s.finish()


# The number of instances of each form over a stratum of m elements, keyed
# by dimension, since each classified shape has a dimension of its own.
# They follow from the side conditions alone: choosing for each element
# the payload sets that hold it, the pairs A ⊊ B number 3^m - 2^m and the
# triples with B ⊊ A ∩ C number 5^m - 4^m.
_FORM_COUNTS: dict[int, dict[str, Callable[[int], int]]] = {
    0: {"D0Smash": lambda m: 2 ** m - 1},
    1: {
        "D1_Lambda": lambda m: 2 ** m - 1,
        "D1_TopSmash": lambda m: 2 ** m,
        "D1_Mixed": lambda m: 3 ** m - 2 ** m,
    },
    2: {
        "D2_Form1": lambda m: 2 ** m - 1,
        "D2_Form2": lambda m: 2 ** m,
        "D2_Form3": lambda m: 2 ** m,
        "D2_Form4": lambda m: 2 ** m,
        "D2_Form5": lambda m: 3 ** m - 2 ** m,
        "D2_Form6": lambda m: 3 ** m - 2 ** m,
        "D2_Form7": lambda m: 4 ** m,
        "D2_Form8": lambda m: 3 ** m - 2 ** m,
        "D2_Form9": lambda m: 3 ** m - 2 ** m,
        "D2_Form10": lambda m: 5 ** m - 2 * 3 ** m + 2 ** m,
        "D2_Form11": lambda m: 5 ** m - 4 ** m,
    },
}


def verify_classifier(P: Poset, bounds: Bounds = Bounds(),
                      name: str = "") -> VerificationReport:
    """Round-trip every syntactic form instance through its thread sets.

    Each instance must classify back to itself with equal payloads, and
    all instances must have pairwise distinct thread-set families.  The
    instances of each form must number as ``_FORM_COUNTS`` says; that
    check adds no case.
    """
    s = VerificationReport("classifier", P, bounds, name)
    instances = form_instances(P)
    # the stratum is all but the top and bottom: one extreme per dimension
    dim = P.dimension()
    m = P.n - dim
    s.check("form_counts_match_formula",
            {tag: count(m) for tag, count in _FORM_COUNTS[dim].items()},
            dict(Counter(inst.tag for inst in instances)),
            {"stratum_size": m})
    seen: dict[int, int] = {}  # family id -> index of its first instance
    for i, inst in enumerate(instances):
        s.cases += 1
        defining = inst.as_tuple(P)
        x = s.of(defining)
        got = s.form(x)
        first = seen.setdefault(x, i)
        if inst != got or first != i:  # label the inputs on failure
            inputs = {"form": inst.describe(P),
                      "tuple": tuple_to_lists(P, defining)}
            prop = ("family_realized" if isinstance(got, Inconsistent)
                    else "classifier_round_trip")
            s.check(prop, inst, got, inputs)
            if first != i:
                s.fail("forms_have_distinct_thread_sets", instances[first],
                       inst, inputs)
    s.cases += 1
    s.check("zero_from_empty_family", ZERO, s.form(s.intern(EMPTY_FAMILY)),
            {"form": "Zero"})
    return s.finish()


_SUITES: dict[str, Callable[..., VerificationReport]] = {
    "operator-laws": verify_operator_laws,
    "monoid": verify_thread_monoid,
    "conjecture": verify_conjecture,
    "classifier": verify_classifier,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def all_posets(n: int) -> list[Poset]:
    """All labeled posets on exactly ``n`` elements, named p0..p(n-1).

    They are grown one element at a time from the empty poset: restricting
    a poset on p0..p(m) to p0..p(m-1) leaves the elements below p(m) an
    order ideal D and those above it an order filter U, disjoint and with
    every member of D below every member of U.  So each poset on m + 1
    elements comes from exactly one such triple, and the layers cost time
    in proportion to their size (Brinkmann & McKay, "Posets on up to 16
    points", *Order* 19, 2002).  The posets come in the order of
    ``_relation_mask``.
    """
    layer: list[tuple[int, ...]] = [()]
    for _ in range(n):
        layer = [grown for down in layer for grown in _extensions(down)]
    names = tuple(f"p{i}" for i in range(n))
    return [Poset(names, down) for down in sorted(layer, key=_relation_mask)]


def _extensions(down: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The down-set rows of every poset that adds one element, above an
    order ideal and below an order filter, to the poset with rows ``down``."""
    m = len(down)
    up = [0] * m
    for j, row in enumerate(down):
        for i in bits(row):
            up[i] |= 1 << j
    subsets = range(1 << m)
    ideals = [s for s in subsets if all(not down[i] & ~s for i in bits(s))]
    filters = [s for s in subsets if all(not up[i] & ~s for i in bits(s))]
    new = 1 << m
    for ideal in ideals:
        allowed = (new - 1) & ~ideal  # above every member of the ideal
        for i in bits(ideal):
            allowed &= up[i]
        for upper in filters:
            if not upper & ~allowed:
                yield tuple(row | new if upper >> j & 1 else row
                            for j, row in enumerate(down)) + (ideal | new,)


def _relation_mask(down: tuple[int, ...]) -> int:
    """Bit b set when ``p_i < p_j`` for the b-th pair ``(i, j)``, i != j, in
    row-major order: the order in which ``all_posets`` lists posets."""
    n = len(down)
    return sum(1 << (i * (n - 1) + j - (j > i))
               for j, row in enumerate(down) for i in bits(row) if i != j)


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
    The operator-laws reports of one call share one collapse table (module
    docstring).
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; known: {SUITE_NAMES}")
    adapt = posets is None
    if posets is None:
        posets = default_corpus()
    elif not posets:
        raise BadParameter(f"no poset to run {suite} on")
    suites = list(_SUITES) if suite == "all" else [suite]
    lawful: dict[SubsetTuple, SubsetTuple] = {}  # shared by operator-laws
    reports = []
    for which in suites:
        for name, P in posets:
            if which == "classifier" and shape_of(P) not in CLASSIFIED_SHAPES:
                continue
            effective = deepened(bounds, P) if adapt else bounds
            if which == "operator-laws":
                reports.append(_operator_laws(P, effective, name, lawful))
            else:
                reports.append(_SUITES[which](P, effective, name=name))
    if not reports:  # a run that checked nothing must not read as a pass
        raise ShapeMismatch(f"no poset to run {suite} on; the classifier "
                            "suite needs one of the shapes "
                            + ", ".join(CLASSIFIED_SHAPES))
    return reports

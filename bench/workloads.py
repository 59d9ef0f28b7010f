"""The three workloads: input generation, one timed pass, output checks.

Every workload is driven by one client in one process, one operation at
a time (a closed loop).  Inputs come only from the seed.  A pass runs the
workload's fixed operation set once; the program's functions are looked
up through their modules at call time, so an installed tracer sees every
call and an uninstalled one sees none.  Checks run after the timed region.

An exception escaping a library call or ``cli.main`` is caught here and
counted as a failed operation; the pass goes on.  A failure listed in a
workload's ``KNOWN_DEFECTS`` still counts as failed but does not make the
run incorrect; any other failed check does.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle


@dataclass
class PassResult:
    start: float
    end: float
    op_starts: list[float]
    op_seconds: list[float]
    outputs: list


@dataclass
class Verdict:
    """Per-operation problems of one pass (None: the operation is correct)."""

    problems: list
    known: list  # per operation: name of the known defect it shows, or None
    notes: dict = field(default_factory=dict)
    incorrect: list = field(default_factory=list)  # run-level problems

    @property
    def failed(self) -> int:
        return sum(p is not None for p in self.problems)

    @property
    def correct(self) -> bool:
        return not self.incorrect and all(
            p is None or k is not None for p, k in zip(self.problems, self.known))


@dataclass(frozen=True)
class Raised:
    """An exception that escaped the program during an operation."""

    name: str
    message: str


def load_pins() -> dict:
    """Pinned output digests; see README.md for how they are made."""
    path = Path(__file__).with_name("pinned.json")
    return json.loads(path.read_text(encoding="utf-8"))


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def random_mask(rng: random.Random, n: int, size: int) -> int:
    return sum(1 << i for i in rng.sample(range(n), size))


def thread_count(P, parts: tuple) -> int:
    """Number of threads of a tuple (descending sequences, one per part)."""
    ways = {a: 1 for a in oracle.bits(parts[0])}
    for part in parts[1:]:
        ways = {b: sum(w for a, w in ways.items() if P.down[a] >> b & 1)
                for b in oracle.bits(part)}
    return sum(ways.values())


def multichains(P, k: int) -> int:
    """Number of descending sequences of length ``k`` in the poset."""
    return thread_count(P, (P.full,) * k)


def with_duplicated_part(parts: tuple) -> tuple:
    """Repeat the middle part next to itself: the thread sets do not change."""
    i = len(parts) // 2
    return parts[:i + 1] + parts[i:]


# -- verify-all

class VerifyAll:
    """The four suites over the default corpus, one ``run_suite`` call each."""

    name = "verify-all"
    SUITES = ("operator-laws", "monoid", "conjecture", "classifier")
    REPORTS = {"operator-laws": 252, "monoid": 252, "conjecture": 252,
               "classifier": 36}
    CASES = {"operator-laws": 96645, "monoid": 1411150, "conjecture": 96645,
             "classifier": 1804}
    KNOWN_DEFECTS: dict = {}

    def generate(self, ts, seed: int, workdir: Path) -> dict:
        corpus = ts.verify.default_corpus()
        return {"bounds": ts.verify.Bounds(seed=seed), "seed": seed,
                "corpus": [(name, P.elements, P.down) for name, P in corpus]}

    def fingerprint(self, inputs: dict) -> str:
        return sha256_json([inputs["seed"], inputs["corpus"]])

    def op_count(self, inputs: dict) -> int:
        return len(self.SUITES)

    def run_pass(self, ts, inputs: dict, tracer=None) -> PassResult:
        bounds = inputs["bounds"]
        op_starts, op_seconds, outputs = [], [], []
        start = perf_counter()
        for suite in self.SUITES:
            began = perf_counter()
            try:
                reports = ts.verify.run_suite(suite, None, bounds)
            except Exception as exc:  # counted as a failed operation
                reports = Raised(type(exc).__name__, str(exc))
            op_seconds.append(perf_counter() - began)
            op_starts.append(began)
            outputs.append((suite, reports))
        return PassResult(start, perf_counter(), op_starts, op_seconds, outputs)

    def check(self, inputs: dict, result: PassResult) -> Verdict:
        seed = inputs["seed"]
        verdict = Verdict([], [])
        dicts = []
        for suite, reports in result.outputs:
            verdict.known.append(None)
            if isinstance(reports, Raised):
                verdict.problems.append(f"{suite} raised {reports.name}")
                continue
            masked = [dict(d, seed=None if d["seed"] is None else "SEED")
                      for d in (r.to_dict() for r in reports)]
            dicts += masked
            cases = sum(r.cases for r in reports)
            failing = [r.poset_name for r in reports if not r.passed]
            seeds = {r.seed for r in reports} - {None, seed}
            if len(reports) != self.REPORTS[suite]:
                problem = f"{suite}: {len(reports)} reports, expected {self.REPORTS[suite]}"
            elif cases != self.CASES[suite]:
                problem = f"{suite}: {cases} cases, expected {self.CASES[suite]}"
            elif failing:
                problem = f"{suite} failed on {len(failing)} posets, first {failing[0]}"
            elif seeds:
                problem = f"{suite} reports seeds {sorted(seeds)}, not {seed}"
            else:
                problem = None
            verdict.problems.append(problem)
        # every report's to_dict() in order, with the seed field masked
        digest = sha256_json(dicts)
        pinned = load_pins()[self.name]["reports_sha256"]
        verdict.notes["reports_sha256"] = digest
        if digest != pinned:
            verdict.incorrect.append(f"report digest {digest} != pinned {pinned}")
        verdict.notes["associativity_triples"] = sum(
            r.details.get("associativity_triples", 0)
            for suite, reports in result.outputs if suite == "monoid"
            and not isinstance(reports, Raised) for r in reports)
        verdict.notes["suite_cases"] = {
            suite: sum(r.cases for r in reports)
            for suite, reports in result.outputs if not isinstance(reports, Raised)}
        return verdict


# -- query-mix

class QueryMix:
    """Single library queries on named spectra, stratified over every cell.

    Each (spectrum, k, density, kind) cell gets ``PER_CELL`` queries, so the
    mix of costs, and with it the latency percentiles, does not depend on
    the seed; the seed picks the subsets and the order.
    """

    name = "query-mix"
    SPECTRA = (("chain", (15,)), ("chromatic", (8,)), ("torus2", (3,)),
               ("zariski_xy", (3, 3)), ("diamond", (5,)), ("star", (6,)),
               ("circle", (6,)))
    KS = range(2, 8)
    DENSITIES = (0.3, 0.5, 0.8)
    KINDS = ("thread_sets", "canonical", "normal_form", "eq")
    PER_CELL = 4
    MANY_THREADS = 100
    BAND = 1.1
    DRAWS = 200
    KNOWN_DEFECTS: dict = {}

    def __init__(self):
        # outputs repeat from pass to pass: judge each distinct one once
        self.judged: dict = {}

    def generate(self, ts, seed: int, workdir: Path) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        posets = {}
        for name, params in self.SPECTRA:
            label = f"{name}{params}"
            posets[label] = ts.catalog.catalog(name, *params).poset
        ops = []
        for label, P in posets.items():
            for k in self.KS:
                for density in self.DENSITIES:
                    size = max(1, round(density * P.n))
                    plain, dup = self._expected(P, k, size)
                    for kind in self.KINDS:
                        for j in range(self.PER_CELL):
                            # for eq, alternately a tuple with equal thread
                            # sets (one more part) and an independent one
                            if kind == "eq" and j % 2 == 0:
                                parts = self._draw(rng, P, k, size, plain, dup)
                                other = with_duplicated_part(parts)
                            else:
                                parts = self._draw(rng, P, k, size, plain)
                                other = (self._draw(rng, P, k, size, plain)
                                         if kind == "eq" else None)
                            ops.append((kind, label, parts, other))
        rng.shuffle(ops)
        return {"seed": seed, "posets": posets, "ops": ops}

    @staticmethod
    def _expected(P, k: int, size: int) -> tuple[float, float]:
        """Mean thread counts over random draws of a cell.

        For a tuple of ``k`` independent random ``size``-subsets, and for
        the same tuple with its middle part repeated, whose two copies hold
        one element with chance ``q`` and two distinct ones with ``q2``.
        """
        q = size / P.n
        q2 = size * (size - 1) / (P.n * (P.n - 1)) if P.n > 1 else 0.0
        same, longer = multichains(P, k), multichains(P, k + 1)
        return same * q ** k, q ** (k - 1) * (same * q + (longer - same) * q2)

    @classmethod
    def _draw(cls, rng: random.Random, P, k: int, size: int, expected: float,
              expected_dup: float | None = None) -> tuple:
        """A tuple of ``k`` random ``size``-subsets.

        Where threads are many, their number sets the cost of a query and
        varies several-fold between draws, so the stream's tail would depend
        on the seed.  There the draw is repeated until the thread count (and
        that of the repeated-part variant, when given) lies within ``BAND``
        of its mean over all draws of the cell; after ``DRAWS`` draws the
        closest is kept.
        """
        best = None
        for _ in range(cls.DRAWS):
            parts = tuple(random_mask(rng, P.n, size) for _ in range(k))
            if expected < cls.MANY_THREADS:
                return parts
            off = abs(math.log(max(thread_count(P, parts), 1) / expected))
            if expected_dup is not None:
                count = thread_count(P, with_duplicated_part(parts))
                off = max(off, abs(math.log(max(count, 1) / expected_dup)))
            if off <= math.log(cls.BAND):
                return parts
            if best is None or off < best[0]:
                best = (off, parts)
        return best[1]

    def fingerprint(self, inputs: dict) -> str:
        return sha256_json([[label, P.elements, P.down]
                            for label, P in inputs["posets"].items()]
                           + inputs["ops"])

    def op_count(self, inputs: dict) -> int:
        return len(inputs["ops"])

    def run_pass(self, ts, inputs: dict, tracer=None) -> PassResult:
        posets, families, tuples, classify = (inputs["posets"], ts.families,
                                              ts.tuples, ts.classify)
        op_starts, op_seconds, outputs = [], [], []
        start = perf_counter()
        for i, (kind, label, parts, other) in enumerate(inputs["ops"]):
            P = posets[label]
            if tracer is not None:
                tracer.op = i
            began = perf_counter()
            try:
                if kind == "thread_sets":
                    out = families.thread_sets(P, parts)
                elif kind == "canonical":
                    out = tuples.canonical(P, parts)
                elif kind == "normal_form":
                    out = classify.normal_form(P, parts)
                else:
                    out = (families.thread_sets(P, parts)
                           == families.thread_sets(P, other))
            except Exception as exc:  # counted as a failed operation
                out = Raised(type(exc).__name__, str(exc))
            op_seconds.append(perf_counter() - began)
            op_starts.append(began)
            outputs.append(out)
        return PassResult(start, perf_counter(), op_starts, op_seconds, outputs)

    @staticmethod
    def plain(kind: str, out):
        """JSON-ready form of an answer, for comparison and the digest."""
        if isinstance(out, Raised):
            return ["raised", out.name]
        if kind == "thread_sets":
            return sorted(out.generators)
        if kind == "normal_form":
            return [out.tag, list(out.payload)]
        if kind == "canonical":
            return list(out)
        return out

    def check(self, inputs: dict, result: PassResult) -> Verdict:
        orders = {label: oracle.Order(P) for label, P in inputs["posets"].items()}
        verdict = Verdict([], [])
        answers = []
        for i, ((kind, label, parts, other), out) in enumerate(
                zip(inputs["ops"], result.outputs)):
            got = self.plain(kind, out)
            answers.append(got)
            key = (i, json.dumps(got))
            if key not in self.judged:
                self.judged[key] = self._problem(orders[label], kind, parts,
                                                 other, got)
            verdict.problems.append(self.judged[key])
            verdict.known.append(None)
        digest = sha256_json(answers)
        verdict.notes["answers_sha256"] = digest
        pinned = load_pins()[self.name].get(str(inputs["seed"]))
        verdict.notes["digest"] = ("unpinned seed" if pinned is None else
                                   "matches pin" if pinned == digest else
                                   "DIFFERS from pin")
        if pinned is not None and pinned != digest:
            verdict.incorrect.append(f"answer digest {digest} != pinned {pinned}")
        return verdict

    @staticmethod
    def _problem(O, kind, parts, other, got):
        if isinstance(got, list) and got[:1] == ["raised"]:
            return f"{kind} raised {got[1]}"
        if kind == "thread_sets":
            want = sorted(oracle.thread_supports(O, parts))
        elif kind == "canonical":
            want = list(oracle.canonical(O, parts))
        elif kind == "eq":
            want = (oracle.thread_supports(O, parts)
                    == oracle.thread_supports(O, other))
        else:
            return oracle.form_problem(O, parts, got[0], tuple(got[1]))
        return None if got == want else f"{kind}: expected {want}, got {got}"


# -- cli-batch

#: Malformed documents: kind -> (the malformed file, expected error code).
MALFORMED = {
    "nested-list-part": ("tuple", "ParseError"),
    "unknown-element": ("tuple", "UnknownElement"),
    "tuple-not-array": ("tuple", "ParseError"),
    "empty-tuple": ("tuple", "ParseError"),
    "repeated-element": ("tuple", "ParseError"),
    "truncated-json": ("tuple", "ParseError"),
    "order-cycle": ("poset", "CycleDetected"),
    "bad-relation": ("poset", "ParseError"),
}


def malformed_text(kind: str, first: str) -> str:
    return {
        "nested-list-part": json.dumps([[[first]]]),
        "unknown-element": json.dumps([[first], ["no-such-prime"]]),
        "tuple-not-array": json.dumps({"parts": [[first]]}),
        "empty-tuple": json.dumps([]),
        "repeated-element": json.dumps([[first, first]]),
        "truncated-json": '[["%s"], [' % first,
        "order-cycle": json.dumps({"elements": ["x", "y"],
                                   "relations": ["x < y", "y < x"]}),
        "bad-relation": json.dumps({"elements": ["x", "y"],
                                    "relations": ["x <"]}),
    }[kind]


class CliBatch:
    """In-process ``cli.main`` calls with ``--format json`` on written files."""

    name = "cli-batch"
    SPECTRA = (("star", (3,)), ("diamond", (3,)), ("circle", (4,)),
               ("chain", (3,)), ("torus2", (2,)), ("zariski_xy", (2, 2)))
    COMMANDS = ("reduce", "threads", "tset", "classify", "eq")
    VALID_PER_CELL = 66
    MALFORMED_PER_KIND = 10
    POOL = 16
    MAX_K = 3
    KNOWN_DEFECTS = {
        "nested-list-part": ("TypeError",
                             "a tuple part holding a list escapes main as "
                             "TypeError instead of exiting 2 (ROADMAP 5)"),
    }

    def __init__(self):
        # outputs repeat from pass to pass: judge each distinct one once
        self.judged: dict = {}

    def generate(self, ts, seed: int, workdir: Path) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        posets, poset_files = {}, {}
        for name, params in self.SPECTRA:
            label = f"{name}{params}"
            P = ts.catalog.catalog(name, *params).poset
            posets[label] = P
            poset_files[label] = self._write(workdir / f"poset-{name}.json", {
                "elements": list(P.elements),
                "relations": [f"{P.elements[i]} < {P.elements[j]}"
                              for i, j in P.covers]})
        # a pool of tuples per spectrum, each written once with the variant
        # that repeats its middle part (equal thread sets)
        pools, files = {}, {}
        for label, P in posets.items():
            pools[label] = [self._random_tuple(rng, P.n) for _ in range(self.POOL)]
            for j, t in enumerate(pools[label]):
                for variant, parts in (("", t), ("-dup", with_duplicated_part(t))):
                    files[label, parts] = self._write(
                        workdir / f"tuple-{label}-{j}{variant}.json",
                        [[P.elements[a] for a in oracle.bits(part)] for part in parts])
        labels = list(posets)
        plans = [(cmd, label, None) for cmd in self.COMMANDS for label in labels
                 for _ in range(self.VALID_PER_CELL)]
        plans += [(self.COMMANDS[j % len(self.COMMANDS)], rng.choice(labels), kind)
                  for kind in MALFORMED for j in range(self.MALFORMED_PER_KIND)]
        rng.shuffle(plans)
        ops, written = [], set()
        for command, label, bad in plans:
            P, pool = posets[label], pools[label]
            tuples = [rng.choice(pool)]
            if command == "eq":
                tuples.append(with_duplicated_part(tuples[0]) if rng.random() < 0.5
                              else rng.choice(pool))
            paths = [files[label, t] for t in tuples]
            poset_file = poset_files[label]
            if bad is not None:
                path = workdir / f"bad-{bad}-{label}.json"
                if path not in written:
                    self._write(path, malformed_text(bad, P.elements[0]))
                    written.add(path)
                if MALFORMED[bad][0] == "tuple":
                    paths[0] = str(path)
                else:
                    poset_file = str(path)
            argv = [command, "--poset", poset_file]
            for path in paths:
                argv += ["--tuple", path]
            ops.append({"argv": argv + ["--format", "json"], "label": label,
                        "tuples": [list(t) for t in tuples], "malformed": bad})
        return {"seed": seed, "posets": posets, "ops": ops, "workdir": workdir}

    @staticmethod
    def _random_tuple(rng: random.Random, n: int) -> tuple:
        k = rng.randint(1, CliBatch.MAX_K)
        return tuple(random_mask(rng, n, rng.randint(1, n - 1)) for _ in range(k))

    @staticmethod
    def _write(path: Path, payload) -> str:
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text, encoding="utf-8")
        return str(path)

    def fingerprint(self, inputs: dict) -> str:
        root = str(inputs["workdir"])
        docs = []
        for op in inputs["ops"]:
            files = [a for a in op["argv"] if a.startswith(root)]
            docs.append([op["argv"][0], op["malformed"], op["tuples"],
                         [Path(f).read_text(encoding="utf-8") for f in files]])
        return sha256_json(docs)

    def op_count(self, inputs: dict) -> int:
        return len(inputs["ops"])

    def run_pass(self, ts, inputs: dict, tracer=None) -> PassResult:
        cli = ts.cli
        op_starts, op_seconds, outputs = [], [], []
        start = perf_counter()
        for i, op in enumerate(inputs["ops"]):
            if tracer is not None:
                tracer.op = i
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                began = perf_counter()
                try:
                    code = cli.main(op["argv"])
                except Exception as exc:  # counted as a failed operation
                    code = Raised(type(exc).__name__, str(exc))
                op_seconds.append(perf_counter() - began)
            op_starts.append(began)
            outputs.append((code, out.getvalue()))
        return PassResult(start, perf_counter(), op_starts, op_seconds, outputs)

    def check(self, inputs: dict, result: PassResult) -> Verdict:
        orders = {label: oracle.Order(P) for label, P in inputs["posets"].items()}
        verdict = Verdict([], [])
        for i, (op, (code, text)) in enumerate(zip(inputs["ops"], result.outputs)):
            key = (i, code, text)
            if key not in self.judged:
                self.judged[key] = self._problem(orders[op["label"]], op, code, text)
            problem = self.judged[key]
            verdict.problems.append(problem)
            known = self.KNOWN_DEFECTS.get(op["malformed"])
            verdict.known.append(
                op["malformed"] if problem is not None and known is not None
                and isinstance(code, Raised) and code.name == known[0] else None)
        return verdict

    def _problem(self, O, op, code, text):
        command = op["argv"][0]
        if isinstance(code, Raised):
            return f"{command} raised {code.name}: {code.message}"
        try:
            body = json.loads(text)
        except ValueError:
            return f"{command} printed no JSON document"
        if op["malformed"] is not None:
            error = body.get("error") if isinstance(body, dict) else None
            if code != 2 or not isinstance(error, dict) \
                    or error.get("code") != MALFORMED[op["malformed"]][1] \
                    or not isinstance(error.get("message"), str):
                return f"{command} on {op['malformed']}: exit {code}, body {body}"
            return None
        tuples = [tuple(t) for t in op["tuples"]]
        if command == "classify":
            problem = _classify_problem(O, tuples[0], body) if code == 0 \
                else f"exit {code}, body {body}"
            return None if problem is None else f"classify: {problem}"
        want_code, want = _expected(O, command, tuples)
        if (code, body) != (want_code, want):
            return f"{command}: expected exit {want_code} {want}, got exit {code} {body}"
        return None


def _expected(O, command: str, tuples: list):
    """Exit code and JSON body of a well-formed reduce/threads/tset/eq call."""
    def lists(parts):
        return [O.labels(p) for p in parts]

    t = tuples[0]
    if command == "reduce":
        return 0, {"input": lists(t),
                   "prune_upward": lists(oracle.reach_from_above(O, t)),
                   "prune_downward": lists(oracle.reach_from_below(O, t)),
                   "prune_to_threads": lists(oracle.on_threads(O, t)),
                   "collapse": lists(oracle.collapse(t)),
                   "canonical": lists(oracle.canonical(O, t))}
    if command == "threads":
        return 0, {"threads": [[O.elements[i] for i in seq]
                               for seq in oracle.threads(O, t)]}
    if command == "tset":
        return 0, {"generators": [O.labels(g) for g in oracle.sorted_chains(
            oracle.thread_supports(O, t))]}
    F, G = (oracle.thread_supports(O, x) for x in tuples)
    if F == G:
        return 0, {"equal": True}
    witness = min(F ^ G, key=lambda m: (m.bit_count(), O.labels(m)))
    side = "first" if oracle.member(F, witness) else "second"
    return 1, {"equal": False, "witness": O.labels(witness),
               "witness_only_in": side}


def _classify_problem(O, parts: tuple, body) -> str | None:
    """Read the form's masks back from the document, then judge them."""
    if not isinstance(body, dict) or body.get("form") not in (
            set(oracle.FORM_KEYS) | {"Zero", "Unresolved"}):
        return f"not a normal form document: {body}"
    tag = body["form"]
    try:
        if tag == "Unresolved":
            payload = tuple(O.mask(part) for part in body["canonical"])
            rebuilt = {"form": tag, "canonical": [O.labels(p) for p in payload]}
        else:
            keys = oracle.FORM_KEYS.get(tag, ())
            payload = tuple(O.mask(body[k]) for k in keys)
            rebuilt = {"form": tag, **{k: O.labels(m) for k, m in zip(keys, payload)}}
    except (KeyError, TypeError, ValueError):
        return f"unreadable normal form document: {body}"
    if rebuilt != body:
        return f"document {body} is not in element order or has extra fields"
    return oracle.form_problem(O, parts, tag, payload)


WORKLOADS = {w.name: w for w in (VerifyAll, QueryMix, CliBatch)}

"""Benchmark of the threadsets engine.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Runs one workload (``verify-all``, ``query-mix`` or ``cli-batch``, see
README.md) against the package in ``src/`` of the checkout this file sits
in.  It repeats set-up and passes over the workload's fixed operation set
for ``--seconds`` (at least one pass), checks every output after the timed
region, and prints each metric by name with its unit.  Times are
calibrated against the machine's speed (``speed.py``); the raw times are
recorded beside them.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics under ``--trace 0`` and the per-layer metrics under
``--trace 1``.

``--trace 1`` makes the same untraced passes, then wraps the layer
functions (``tracer.py``), repeats set-up once and runs one traced pass,
and unwraps them again; the ratio of the traced to the untraced pass
wall time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracer as tracing
from speed import REFERENCE_SECONDS, Speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "threadsets"
MODULES = ("poset", "tuples", "families", "classify", "catalog", "serialize",
           "verify", "cli")
SETUP_REPEATS = 5


def import_package() -> SimpleNamespace:
    """Import the package afresh, so that import time is measured each time."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if SRC not in Path(package.__file__).resolve().parents:
        raise SystemExit(f"error: imported {package.__file__}, not the "
                         f"sources under {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in MODULES})


def commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Set-up and pass timings of one run, raw and calibrated."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.speed = Speed()
        self.setups: list[tuple[float, float]] = []  # (raw, calibrated)
        self.passes: list[tuple[float, float]] = []  # wall (raw, calibrated)
        self.op_seconds: list[list[float]] = []  # calibrated, per pass
        self.verdicts = []

    def set_up(self):
        """Import afresh, generate the inputs and write the files; timed."""
        began = perf_counter()
        ts = import_package()
        inputs = self.workload.generate(ts, self.seed, self.workdir)
        end = perf_counter()
        self.setups.append(self.times(began, end))
        return ts, inputs

    def times(self, start: float, end: float) -> tuple[float, float]:
        """Raw and calibrated time of work done between two instants."""
        return (end - start - self.speed.sampled(start, end),
                self.speed.calibrated(start, end))

    def run_pass(self, ts, inputs, tracer=None):
        """One pass, checked; its wall time, calibrated op times and verdict."""
        gc.collect()
        result = self.workload.run_pass(ts, inputs, tracer)
        verdict = self.workload.check(inputs, result)
        ops = [self.times(s, s + d)[1]
               for s, d in zip(result.op_starts, result.op_seconds)]
        return self.times(result.start, result.end), ops, verdict

    def measure(self, seconds: float):
        """Set up and run passes until ``seconds`` are used.

        Set-up is repeated before every pass, so that its samples, like
        those of the passes, spread over the whole run, and then until there
        are ``SETUP_REPEATS`` samples.  A pass is not started when the last
        one shows it would overrun.  Outputs are checked after each pass and
        dropped.  Returns the modules and inputs of the last set-up.
        """
        start = perf_counter()
        with self.speed:
            while True:
                ts, inputs = self.set_up()
                wall, ops, verdict = self.run_pass(ts, inputs)
                self.passes.append(wall)
                self.op_seconds.append(ops)
                self.verdicts.append(verdict)
                if perf_counter() - start + wall[0] > seconds:
                    break
            while len(self.setups) < SETUP_REPEATS:
                ts, inputs = self.set_up()
        return ts, inputs

    def end_to_end(self) -> tuple[dict, dict]:
        """Calibrated end-to-end metrics, and the raw figures behind them."""
        # per operation the median over passes, then percentiles over operations
        per_op = [statistics.median(ops) for ops in zip(*self.op_seconds)]
        metrics = {
            "setup_s": (statistics.median(c for _, c in self.setups), "s"),
            "wall_s": (statistics.median(c for _, c in self.passes), "s"),
            "op_p50_ms": (1e3 * percentile(per_op, 50), "ms"),
            "op_p99_ms": (1e3 * percentile(per_op, 99), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        raw = {"setup_s": statistics.median(r for r, _ in self.setups),
               "wall_s": statistics.median(r for r, _ in self.passes),
               "kernel_ms": 1e3 * statistics.median(self.speed.seconds),
               "kernel_samples": len(self.speed.seconds)}
        return metrics, raw


def per_layer(run: Run, tracer, traced_wall: tuple) -> dict:
    """Counts and calibrated self times of the traced pass.

    Kernel samples taken inside a span count as its children, so no self
    time holds them; self times are scaled by the pass's mean calibration
    factor.  ``verify.<suite>.wall_s`` are medians of the untraced passes.
    """
    weight = traced_wall[1] / traced_wall[0]
    verdict = run.verdicts[0]
    out = {}
    for name, (calls, self_s) in tracer.stats.items():
        if name.startswith("verify."):
            continue
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s * weight, "s")
    out["families.threads.yielded"] = (tracer.threads_yielded, "count")
    out["families.minimize.kept_ratio"] = (
        tracer.minimize_kept / tracer.minimize_offered
        if tracer.minimize_offered else 0.0, "ratio")
    triples = verdict.notes.get("associativity_triples", 0)
    out["verify.assoc_cache.hit_ratio"] = (
        1 - tracer.compose_in_associativity / (4 * triples) if triples else 0.0,
        "ratio")
    cases = verdict.notes.get("suite_cases", {})
    for i, suite in enumerate(WORKLOADS["verify-all"].SUITES):
        out[f"verify.{suite}.wall_s"] = (
            statistics.median(ops[i] for ops in run.op_seconds)
            if run.workload.name == "verify-all" else 0.0, "s")
        out[f"verify.{suite}.cases"] = (cases.get(suite, 0), "count")
    out["verify.self_s"] = ((tracer.stats["verify.run_suite"][1]
                             + tracer.stats["verify._associativity"][1]) * weight,
                            "s")
    out["trace.overhead_ratio"] = (
        traced_wall[1] / statistics.median(c for _, c in run.passes), "ratio")
    return out


def write_spans(tracer, path: Path) -> None:
    """One span per line: [operation, name, parent line or null, start, end]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Input files are rewritten in place by every set-up and kept: on the
    # disk the benchmark was written on, deleting files slowed the file
    # writes of the next second or so several-fold.
    workdir = OUT / args.workload
    return measure(args, Run(WORKLOADS[args.workload](), args.seed, workdir))


def measure(args, run: Run) -> int:
    workload = run.workload
    ts, inputs = run.measure(args.seconds)
    ops = workload.op_count(inputs)
    record = {"workload": workload.name, "seed": args.seed,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "commit": commit(), "setups": len(run.setups),
              "passes": len(run.passes), "ops_per_pass": ops,
              "calibration": f"times scaled to a {1e3 * REFERENCE_SECONDS:g} ms "
                             "reference kernel (speed.py)",
              "notes": run.verdicts[0].notes}

    if args.trace:
        tracer = tracing.Tracer(PACKAGE, keep_spans=workload.name != "verify-all")
        tracer.install()
        run.speed.listener = tracer.absorb
        try:
            traced_inputs = workload.generate(ts, args.seed, run.workdir)
            with run.speed:
                traced_wall, _, verdict = run.run_pass(ts, traced_inputs, tracer)
        finally:
            run.speed.listener = None
            tracer.uninstall()
        metrics = per_layer(run, tracer, traced_wall)
        run.verdicts.append(verdict)
        if tracer.keep_spans:
            path = OUT / f"spans-{workload.name}.jsonl"
            write_spans(tracer, path)
            record["spans"] = {"file": str(path.relative_to(ROOT)),
                               "kept": len(tracer.spans),
                               "dropped": tracer.spans_dropped}
    else:
        metrics, record["raw"] = run.end_to_end()
        record["op_samples"] = {"ops": ops, "beyond_p99": ops - int(0.99 * ops),
                                "per_op": f"median over {len(run.passes)} passes"}

    verdicts = run.verdicts
    attempted = sum(len(v.problems) for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    record["failed_ratio"] = {"value": failed / attempted, "failed": failed,
                              "attempted": attempted}
    record["known_defects"] = {kind: why for kind, (_, why)
                               in workload.KNOWN_DEFECTS.items()}
    problems = sorted({p for v in verdicts for p, k in zip(v.problems, v.known)
                       if p is not None and k is None}
                      | {p for v in verdicts for p in v.incorrect})
    record["problems"] = problems[:20]
    record["problem_count"] = len(problems)

    print(f"threadsets benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6f} "
          f"({failed} of {attempted} operations)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": all(v.correct for v in verdicts),
                      "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

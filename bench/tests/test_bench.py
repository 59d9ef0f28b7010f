"""Self-tests of the benchmark: seeded inputs, tracer hygiene, checks.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from speed import REFERENCE_SECONDS, Speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, QueryMix, Raised  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def ts():
    return run.import_package()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(ts, name, tmp_path):
    workload = WORKLOADS[name]()
    prints = [workload.fingerprint(workload.generate(ts, seed, tmp_path / str(i)))
              for i, seed in enumerate((7, 7, 8))]
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]


def small_query_mix(ts, tmp_path, count=40):
    workload = QueryMix()
    inputs = workload.generate(ts, 3, tmp_path)
    inputs["ops"] = inputs["ops"][:count]
    return workload, inputs


def test_untraced_run_calls_the_original_functions(ts, tmp_path):
    tracer = Tracer()
    bindings = tracer.bindings()
    # compose is reached through two modules, down_set through the class
    owners = {(getattr(o, "__name__", o), a) for o, a, _ in bindings}
    assert ("threadsets.verify", "compose") in owners
    assert ("threadsets.families", "compose") in owners
    assert ("Poset", "down_set") in owners

    tracer.install()
    try:
        assert all(getattr(o, a) is not f for o, a, f in bindings)
        assert ts.verify.compose.__wrapped__ is ts.families.compose.__wrapped__
    finally:
        tracer.uninstall()
    assert all(vars(o)[a] is f for o, a, f in bindings)

    workload, inputs = small_query_mix(ts, tmp_path)
    before = {name: list(stat) for name, stat in tracer.stats.items()}
    workload.run_pass(ts, inputs)
    assert tracer.stats == before


def test_traced_pass_counts_layers_and_keeps_answers(ts, tmp_path):
    workload, inputs = small_query_mix(ts, tmp_path)
    plain = workload.run_pass(ts, inputs)
    tracer = Tracer(keep_spans=True)
    tracer.install()
    try:
        traced = workload.run_pass(ts, inputs, tracer)
    finally:
        tracer.uninstall()
    kinds = [op[0] for op in inputs["ops"]]
    assert [workload.plain(k, o) for k, o in zip(kinds, traced.outputs)] == \
        [workload.plain(k, o) for k, o in zip(kinds, plain.outputs)]
    expected_tset = kinds.count("thread_sets") + 2 * kinds.count("eq")
    assert tracer.stats["families.thread_sets"][0] >= expected_tset
    assert tracer.threads_yielded > 0
    assert tracer.stats["tuples.canonical"][0] >= kinds.count("canonical")
    assert all(stat[1] >= 0 for stat in tracer.stats.values())
    assert {span[0] for span in tracer.spans} <= set(range(len(kinds)))
    assert all(end >= start for _, _, _, start, end in tracer.spans)


def test_checks_catch_wrong_answers(ts, tmp_path):
    workload, inputs = small_query_mix(ts, tmp_path)
    result = workload.run_pass(ts, inputs)
    assert workload.check(inputs, result).failed == 0
    kinds = [op[0] for op in inputs["ops"]]
    j = kinds.index("thread_sets")
    P = inputs["posets"][inputs["ops"][j][1]]
    # the whole poset is never a minimal thread set of these tuples
    result.outputs[j] = ts.families.ChainFamily(
        result.outputs[j].generators | {P.full})
    result.outputs[j + 1] = Raised("TypeError", "boom")
    verdict = QueryMix().check(inputs, result)
    assert verdict.problems[j] is not None
    assert verdict.problems[j + 1] is not None
    assert verdict.failed == 2 and not verdict.correct


def test_malformed_cli_documents_expect_exit_2(ts, tmp_path):
    workload = WORKLOADS["cli-batch"]()
    inputs = workload.generate(ts, 1, tmp_path / "cli")
    inputs["ops"] = [op for op in inputs["ops"]
                     if op["malformed"] not in (None, "nested-list-part")][:16]
    result = workload.run_pass(ts, inputs)
    assert workload.check(inputs, result).problems == [None] * len(inputs["ops"])
    result.outputs[0] = (0, result.outputs[0][1])
    assert workload.check(inputs, result).problems[0] is not None


def test_calibration_scales_each_piece_by_the_samples_around_it():
    speed = Speed()
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.seconds = [0.001, 0.002, 0.004, 0.002, 0.009]
    ref = REFERENCE_SECONDS
    # between samples 1 and 2: median of samples 0..3
    assert speed.calibrated(1.5, 1.6) == pytest.approx(0.1 * ref / 0.002)
    assert speed.calibrated(-1.0, -0.5) == pytest.approx(0.5 * ref / 0.0015)
    # pieces 0.5..1.0, 1.002..2.0 and 2.004..2.5, samples taken out
    assert speed.calibrated(0.5, 2.5) == pytest.approx(
        ref * (0.5 / 0.002 + 0.998 / 0.002 + 0.496 / 0.003))
    assert speed.sampled(0.5, 2.5) == pytest.approx(0.006)

"""Every seeded mutant of ``tools/mutants.py`` still applies to the source,
and the committed ``MUTANTS.json`` is the runner's table.

The runner itself is not part of the test suite, since each mutant costs a
full ``verify all``; this only checks that each patch's old text occurs
exactly once, so that an edit of the library cannot silently retire a
mutant, that the committed table lists the runner's rows, so that a row
cannot be added without re-running the table, and, on one sleeping child,
that a run past its time limit is killed as ``timeout``.
"""

from __future__ import annotations

import importlib.util
import json
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _runner():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNNER = _runner()


def test_mutant_names_are_distinct():
    names = [m.name for m in RUNNER.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", RUNNER.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_exactly_once(mutant):
    assert RUNNER.SRC == ROOT / "src"
    assert RUNNER.occurrences(mutant) == 1
    assert mutant.old != mutant.new


def test_failing_properties_read_the_exact_counts():
    reports = [{"failures_by_property": {"a": 60, "b": 2}},
               {"passed": True},
               {"failures_by_property": {"b": 3}}]
    assert RUNNER.failing_properties(reports) == {
        "a": {"reports": 1, "failures": 60},
        "b": {"reports": 2, "failures": 5}}


def test_a_mutant_past_its_limit_is_killed_as_timeout(tmp_path, monkeypatch):
    # one child that sleeps far past a tiny limit: the runner kills it and
    # records the verdict timeout with no exit code
    package = tmp_path / "src" / "threadsets"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "__main__.py").write_text("pass\n", encoding="utf-8")
    monkeypatch.setattr(RUNNER, "SRC", tmp_path / "src")
    sleeper = RUNNER.Mutant("sleeper", "threadsets/__main__.py", "pass\n",
                            "import time\ntime.sleep(60)\n", "never ends")
    start = time.monotonic()
    row = RUNNER._row(sleeper, unmutated="", limit=0.5)
    assert time.monotonic() - start < 30
    assert (row["verdict"], row["exit"], row["failing"]) == ("timeout", None,
                                                             {})


def test_committed_table_lists_the_runner_rows():
    committed = json.loads((ROOT / "MUTANTS.json").read_text(encoding="utf-8"))
    rows = committed["mutants"]
    assert [(r["name"], r["file"], r["reason"]) for r in rows] == [
        (m.name, m.file, m.reason) for m in RUNNER.MUTANTS]
    assert committed["verdicts"] == Counter(r["verdict"] for r in rows)

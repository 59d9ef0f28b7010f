"""The bench tracer still finds every layer function it names.

``bench/tracer.py`` names the traced functions by module and attribute, so
renaming or deleting one of them breaks the bench's per-layer metrics.  The
tracer's source is compiled into a fresh module, so that nothing is written
under ``bench/``.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module() -> types.ModuleType:
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracer_mod = _tracer_module()
    for module in tracer_mod.LAYERS:
        importlib.import_module(f"threadsets.{module}")
    tracer = tracer_mod.Tracer("threadsets")
    targets = tracer.targets()
    assert [span for span, _, _ in targets] == tracer_mod.span_names()
    originals = {id(vars(owner)[attr]) for _, owner, attr in targets}
    assert all(callable(vars(owner)[attr]) for _, owner, attr in targets)
    # every traced definition is reached through at least its own binding
    assert {id(original) for _, _, original in tracer.bindings()} == originals

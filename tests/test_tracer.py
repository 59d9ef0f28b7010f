"""The bench tracer still finds every layer function it names.

``bench/tracer.py`` names the traced functions by module and attribute, so
renaming or deleting one of them breaks the bench's per-layer metrics.  The
tracer's source is compiled into a fresh module, so that nothing is written
under ``bench/``.
"""

from __future__ import annotations

import importlib
import inspect
import types
from pathlib import Path

from threadsets import families

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module() -> types.ModuleType:
    """The tracer, with every module it traces imported."""
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    for layer in module.LAYERS:
        importlib.import_module(f"threadsets.{layer}")
    return module


def test_every_traced_name_resolves():
    tracer_mod = _tracer_module()
    tracer = tracer_mod.Tracer("threadsets")
    targets = tracer.targets()
    assert [span for span, _, _ in targets] == tracer_mod.span_names()
    originals = {id(vars(owner)[attr]) for _, owner, attr in targets}
    assert all(callable(vars(owner)[attr]) for _, owner, attr in targets)
    # every traced definition is reached through at least its own binding
    assert {id(original) for _, _, original in tracer.bindings()} == originals


def test_threads_is_a_generator_function(diamond):
    # the tracer counts yielded threads only for generator functions, so a
    # wrapper returning a generator would zero families.threads.yielded
    assert inspect.isgeneratorfunction(families.threads)
    t = (diamond.full, diamond.full)
    expected = sum(1 for _ in families.threads(diamond, t))
    tracer = _tracer_module().Tracer("threadsets")
    tracer.install()
    try:
        assert sum(1 for _ in families.threads(diamond, t)) == expected
    finally:
        tracer.uninstall()
    assert tracer.threads_yielded == expected > 0

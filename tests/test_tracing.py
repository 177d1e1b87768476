"""The benchmark tracer's patch list still names attributes of qdimer.

perfbench/tracing.py wraps functions on the module attributes that callers
look up; a cleanup that removes one of them (for example an import that only
the tracer needs) breaks `perfbench/run.py --trace 1` and nothing else.
"""

import importlib.util
import sys
from pathlib import Path

import qdimer
import qdimer.cli  # noqa: F401  (the tracer reads qdimer.cli as an attribute)


def _tracing(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve(monkeypatch):
    patches = _tracing(monkeypatch).PATCHES
    assert patches
    missing = [(mod, attr) for mod, attr, *_ in patches
               if not callable(getattr(getattr(qdimer, mod, None), attr, None))]
    assert not missing

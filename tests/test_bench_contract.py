"""The benchmark's per-layer tracer wraps library functions by module and
attribute name; every one of those names must stay resolvable."""

import importlib.util
import sys
from pathlib import Path

import mck.cli  # noqa: F401  (imports every module the tracer wraps)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    for module, attr, metric in wrapped:
        assert module in sys.modules, metric
        assert callable(getattr(sys.modules[module], attr, None)), metric

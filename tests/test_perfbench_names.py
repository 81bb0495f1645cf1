"""The benchmark's traced mode wraps package functions by name; every name
it lists must still resolve, or the traced run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module,attr", tracing.TRACED, ids=lambda v: str(v))
def test_traced_name_resolves(module, attr):
    assert module in tracing.MODULES
    owner = importlib.import_module(f"heiscurves.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

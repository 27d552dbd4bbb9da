"""The benchmark's traced function names resolve on the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


@pytest.mark.parametrize("module, function", _targets())
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"stochqg.{module}"), function))

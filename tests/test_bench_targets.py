"""The benchmark's traced function names resolve, and a traced run reports them."""

import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_traced_bench_run_smoke():
    # A short traced sim64_diag run.  It must still see every stepper layer
    # through the traced names, and each step's report must keep the
    # per-step transform, lift and norm counts at their shared minimum.  The
    # Jacobian transforms each of its 5 level blocks on its own, and blocking
    # adds no transform work: the FFT volume is that of whole-field passes.
    root = LAYERS.parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", "sim64_diag",
         "--seed", "1", "--seconds", "2", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    per_layer = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in per_layer if m["name"] not in metrics] == []
    assert metrics["integrator.step.calls"] == 64
    assert metrics["spectral.inverse_transform.calls"] == 8 * 64 * 5
    assert metrics["spectral.forward_transform.calls"] == 2 * 64 * 5
    assert metrics["spectral.fft_mb_computed"] == pytest.approx(1405.7472, rel=1e-9)
    assert metrics["operators.to_modes.calls"] <= 4 * 64 + 4
    assert metrics["forcing.setup_lift.calls"] == 0  # no dense lift is built inside a step
    assert metrics["operators.inner_h.calls"] <= 2 * 64 + 2
    assert metrics["operators.norms.calls"] == 0  # the run reads its norms through modal_norms

"""The benchmark's own self-tests, run as part of the test suite.

``perfbench/selftest.py`` patches named bindings of the library and
asserts exact call counts of a traced run, so a refactor that drops a
patched name or changes how many Gram matrices an updating step builds
fails here, not only when the benchmark runs.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("workload_class", ["McDense", "McSparse"])
def test_traced_ensemble_chunk_checks_clean(monkeypatch, tmp_path, workload_class):
    # The traced benchmark wraps the ensemble engine's bindings in smap.sim;
    # one chunk under the tracer must still pass its check and call make_cv
    # through the wrapper, and every wrapper must be gone afterwards.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    workload = getattr(workloads, workload_class)(1, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        steps, output = workload.run(0)
    assert steps > 0
    assert workload.check(output)[1] == 0
    assert tracer.calls["make_cv"] > 0
    assert tracing.unpatched()

"""The benchmark's own self-tests, run as part of the test suite.

``perfbench/selftest.py`` patches named bindings of the library and
asserts exact call counts of a traced run, so a refactor that drops a
patched name or changes how many Gram matrices an updating step builds
fails here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr

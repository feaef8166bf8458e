#!/usr/bin/env python3
"""Apply one-line mutants to a copy of the package and print the tests that kill each.

    python3 tools/mutants.py [--rev REV]

Each mutant in ``CATALOGUE`` replaces one literal text, which must occur
exactly once, in one file under ``src/smap``.  The tree under test is the
working tree, or REV exported with ``git archive``; its ``src/``, ``tests/``
and ``pyproject.toml`` are copied into a temporary directory.  There the
unmutated copy runs first, then each mutant in turn.  Each run is one
pytest process over Tier-1 without ``tests/test_golden.py`` and
``tests/test_benchmark_contract.py``, which pin bytes and the benchmark's
self-test rather than meaning, so only semantic checks count.  Mutants run one after another; no process pool is started.

Prints, per mutant, the tests that fail on it (that kill it), or SURVIVED,
and a mutant whose old text is not in the tree as not applicable; then the
kill count and each survivor.  Exits 1 if the unmutated copy fails a test.
Writes nothing in the repository; the temporary directory is removed on
exit.  A run takes about 40 s per mutant on 2 vCPU, so this stays out of
Tier-1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EXCLUDED = ("tests/test_golden.py", "tests/test_benchmark_contract.py")
TIMEOUT_S = 900  # a mutant that makes the suite hang counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/smap
    old: str
    new: str


CATALOGUE = (
    # the seven of the first mutation probe
    Mutant("preserve-rtol-1e-6", "robustness.py",
           "PRESERVE_RTOL = 1e-12", "PRESERVE_RTOL = 1e-6"),
    Mutant("checker-gram-without-small-delta", "robustness.py",
           "sols = solve_spd(gram(window.X), rhs, delta)",
           "sols = solve_spd(gram(window.X), rhs, delta if delta >= 1e-6 else 0.0)"),
    Mutant("cholesky-lead-misplaced", "linalg.py", "y[:j] = lead", "y[-j:] = lead"),
    Mutant("gate-at-the-threshold", "filters.py",
           "return abs(e0) > gamma_bar", "return abs(e0) >= gamma_bar"),
    Mutant("rhs-absolute", "robustness.py",
           "rhs = 2.0 * float(cv @ sols[:, 1])", "rhs = 2.0 * abs(float(cv @ sols[:, 1]))"),
    Mutant("padded-lag-mask-off-by-one", "sim.py",
           "cv = np.where(lag <= k, cv, 0.0)", "cv = np.where(lag < k, cv, 0.0)"),
    Mutant("ratio-denominator-without-w0", "robustness.py",
           "denominator = float(w_tilde_0_sq) + n_sum", "denominator = n_sum"),
    # one boundary flip per entry of errors.RANGES
    Mutant("range-gamma-bar-takes-0", "errors.py",
           '"gamma_bar": (lambda v: 0.0 < v', '"gamma_bar": (lambda v: 0.0 <= v'),
    Mutant("range-delta-refuses-0", "errors.py",
           '"delta": (lambda v: 0.0 <= v', '"delta": (lambda v: 0.0 < v'),
    Mutant("range-ap-step-refuses-1", "errors.py",
           '"ap_step": (lambda v: 0.0 < v <= 1.0', '"ap_step": (lambda v: 0.0 < v < 1.0'),
    Mutant("range-noise-variance-takes-0", "errors.py",
           '"noise_variance": (lambda v: 0.0 < v', '"noise_variance": (lambda v: 0.0 <= v'),
    Mutant("range-ar-coefficient-takes-1", "errors.py",
           "(lambda v: abs(v) < 1.0", "(lambda v: abs(v) <= 1.0"),
    Mutant("range-scale-refuses-0", "errors.py",
           '"scale": (lambda v: 0.0 <= v', '"scale": (lambda v: 0.0 < v'),
)


def copy_tree(rev: str | None, dest: Path) -> None:
    """Copy ``src/``, ``tests/`` and ``pyproject.toml`` of REV, or of the working tree, to ``dest``."""
    parts = ("src", "tests", "pyproject.toml")
    if rev is None:
        skip = shutil.ignore_patterns("__pycache__")
        for part in parts:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, dest / part, ignore=skip)
            else:
                shutil.copy2(source, dest / part)
        return
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *parts],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def failing_tests(tree: Path) -> tuple[list[str], str]:
    """Run the semantic tests in ``tree``; return the ids that fail and pytest's last line."""
    command = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", *(f"--ignore={path}" for path in EXCLUDED)]
    # no bytecode cache: a restored file may match a mutant's size and mtime to the second
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ["(the suite timed out)"], f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.splitlines()
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in lines if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode not in (0, 1) and not failed:  # collection or usage error
        failed = [f"(pytest exited {done.returncode})"]
    return failed, lines[-1] if lines else done.stderr.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="test this revision instead of the working tree")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="smap-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(args.rev, tree)
        failed, last = failing_tests(tree)
        print(f"unmutated: {last}", flush=True)
        if failed:
            print("the unmutated copy fails; no mutant can be judged:", *failed, sep="\n    ")
            return 1
        killed, survived, skipped = [], [], []
        for mutant in CATALOGUE:
            path = tree / "src" / "smap" / mutant.path
            original = path.read_text(encoding="utf-8")
            count = original.count(mutant.old)
            if count != 1:
                print(f"{mutant.name}: not applicable ({count} matches in {mutant.path})")
                skipped.append(mutant.name)
                continue
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                failed, last = failing_tests(tree)
            finally:
                path.write_text(original, encoding="utf-8")
            if failed:
                killed.append(mutant.name)
                print(f"{mutant.name}: killed by {len(failed)} ({last})", *failed,
                      sep="\n    ", flush=True)
            else:
                survived.append(mutant.name)
                print(f"{mutant.name}: SURVIVED ({last})", flush=True)
    print(f"killed {len(killed)} of {len(killed) + len(survived)} applicable mutants"
          + (f"; {len(skipped)} not applicable" if skipped else ""))
    if survived:
        print("survivors: " + ", ".join(survived))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare the seeded outputs of this working tree with those of a revision.

    python3 tools/diff_outputs.py REV

Runs each command in COMMANDS against REV's src/, exported into a temporary
directory, and against the working tree's, with the same --out-dir names, under
``-W error::RuntimeWarning`` as the test suite runs, so a command that starts to
warn differs.  Then compares trace.csv, summary.txt, mse.csv and each command's
stdout, stderr and exit status with ``diff -r``, so a command that fails is
compared too, and exits nonzero on any difference.  The commands are those whose
digests tests/test_golden.py pins, the first chunk of each perfbench workload at
seed 1, a few whose tables span several of the blocks the writer formats at a
time, and some the library rejects: plans that name one configuration under two
spellings, a value outside each parameter's range, strategies that --cv does not
offer, and configurations with two faults each, which show which is blamed first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import trees

COMMANDS = (
    "run --iters 2000 --seed 4",
    "run --iters 2000 --reuse 5 --taps 12 --seed 3",
    "run --iters 2000 --cv sccv --seed 3",
    "run --iters 2000 --cv noise --noise-scale 0.5 --seed 5",
    "run --iters 2000 --cv noise --noise-scale 2 --seed 5",
    "run --iters 1000 --mu 0.5",
    "run --iters 1000 --ar=-0.9 --seed 2",
    "run --iters 500 --ar=0 --taps 1 --reuse 0 --seed 6",
    "mc --iters 300 --runs 5 --reuse 4 --algos smap:fixed,smap:sccv,ap:0.5",
    "run --iters 3000 --seed 5 --cv noise --noise-scale 0.5",
    "run --iters 500 --taps 4 --reuse 0",
    "mc --iters 300 --runs 70 --algos smap:fixed,smap:sccv,smap:noise,ap:0.9",
    "mc --iters 300 --runs 4 --taps 20 --reuse 8 --algos smap:fixed,smap:sccv,ap:0.5",
    "mc --iters 300 --runs 4 --ar=-0.5 --taps 64 --algos smap:fixed,ap:0.5",
    "verify --instances 200",
    "mc --iters 2000 --runs 8 --algos smap:sccv,smap:zero,smap:fixed,smap:noise --seed 7",
    "mc --iters 1000 --runs 9 --reuse 1 --taps 3 --algos smap:sccv,smap:fixed --seed 11",
    "mc --iters 1000 --runs 9 --reuse 0 --algos smap:sccv,smap:fixed --seed 12",
    "mc --iters 777 --runs 130 --algos smap:sccv --seed 13",
    "mc --delta 0 --taps 16 --reuse 9 --iters 130 --runs 3 --seed 25 --algos smap:sccv",
    "mc --delta 0 --taps 16 --reuse 9 --iters 130 --runs 3 --seed 25 --algos ap:0.9",
    "run --taps 0",
    "mc --runs 0",
    "verify --taps 0",
    "verify --max-reuse 20",
    "run --run-index -1",
    "run --noise-scale nan",
    "mc --noise-scale inf --algos smap:fixed,smap:noise",
    "run --mu 0.05 --iters 120 --taps 13 --reuse 8 --delta 1e-3 --seed 18",
    "verify --instances 0",
    "run --snr-db 3070 --iters 200",
    "mc --noise-var 1e307 --snr-db 0 --iters 200 --runs 3 --algos smap:fixed",
    "run --delta 0 --taps 16 --reuse 9 --iters 300 --seed 25 --cv sccv",
    "run --iters 2000 --cv zero --seed 8",
    "run --mu 0.9 --iters 500 --reuse 4 --delta 0 --seed 9",
    "run --iters 1 --seed 2",
    "run --iters 0",
    "run --gamma-bar inf",
    "run --gamma-bar 0",
    "run --snr-db nan",
    "run --delta -1",
    "run --noise-var inf",
    "run --iters 10000 --seed 1000000",
    "run --iters 1000000000000000000000000000000",
    "mc --iters 1000 --runs 8 --algos smap:sccv --seed 1000000",
    "mc --iters 1000 --runs 2 --algos smap:fixed,ap:0.9 --seed 1000000",
    "verify --instances 1000 --seed 1000000",
    "run --mu 0.5 --iters 5000 --reuse 0 --seed 8",
    "mc --iters 5000 --runs 2 --algos smap:fixed,ap:0.9 --seed 3",
    "run --iters 5000 --cv sccv --seed 3",
    "mc --iters 10 --runs 1000000000000000000000000000000",
    "verify --taps 1000000000000000000000000000000",
    "mc --iters 300 --runs 3 --algos smap,smap:fixed",
    "mc --iters 300 --runs 3 --algos ap:0.5,ap:.5",
    "mc --iters 300 --runs 3 --cv sccv --algos smap,smap:fixed",
    "run --mu 0",
    "run --mu 1.5",
    "run --ar 1",
    "run --noise-var 0",
    "run --gamma-bar nan",
    "mc --noise-scale -1 --algos smap:noise",
    "mc --algos smap:custom",
    "mc --algos smap:bogus",
    "run --taps 3 --reuse 5 --gamma-bar 0 --iters 10",
    "run --mu 2 --snr-db nan --iters 10",
    "run --snr-db inf --iters 10",
    "run --snr-db=-inf --iters 10",
    "mc --snr-db nan --iters 10 --runs 1 --algos smap:fixed",
)


def run_all(src: Path, out: Path) -> None:
    """Run every command against the package under ``src``, with outputs under ``out``;
    ``cmdN.stdout`` gets command N's stdout, then its stderr and exit status."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    for i, command in enumerate(COMMANDS, 1):
        out_dir = [] if command.startswith("verify") else ["--out-dir", f"cmd{i}"]
        child = trees.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "smap",
                           *command.split(), *out_dir],
                          cwd=out, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        (out / f"cmd{i}.stdout").write_bytes(
            f"$ smap {command}\n".encode() + child.stdout + child.stderr
            + f"exit status {child.returncode}\n".encode())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit("usage: tools/diff_outputs.py REV")
    rev = argv[1]
    with trees.workspace("smap-diff-") as tmp:
        trees.copy_tree(rev, tmp / "base", ("src",))
        run_all(tmp / "base" / "src", tmp / "out" / "base")
        run_all(trees.ROOT / "src", tmp / "out" / "worktree")
        status = trees.run(["diff", "-r", "base", "worktree"], cwd=tmp / "out").returncode
    if status == 0:
        print(f"no difference in {len(COMMANDS)} commands against {rev}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

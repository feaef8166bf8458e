"""Run every workload on several seeds and record the run-to-run spread.

Run from the root of a checkout::

    python3 perfbench/baseline.py --seeds 101-110 --out perfbench/baseline.json

Each run is ``perfbench/run.py`` with ``run_seconds`` from
``BENCHMARK.json``, one after another.  For each workload and end-to-end
metric the output holds the values, their median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, which is the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {
        "wall_s": time.monotonic() - start,
        "provenance": json.loads(lines[-3])["provenance"],
        "detail": json.loads(lines[-2])["detail"],
        "result": json.loads(lines[-1]),
        "stderr": proc.stderr,
    }


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metric_names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = [run_once(name, s, bench["run_seconds"], args.trace) for s in args.seeds]
        results = [r["result"] for r in runs]
        report["provenance"] = runs[0]["provenance"]
        report["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "incorrect_runs": [s for s, r in zip(args.seeds, results) if not r["correct"]],
            "run_wall_s": summarize([r["wall_s"] for r in runs]),
            "metrics": {
                m: summarize([r["metrics"][m]["value"] for r in results]) for m in metric_names
            },
            "unscaled_medians": {
                key: summarize([r["detail"]["unscaled"][key][1] for r in runs])
                for key in ("steps_per_s", "setup_s", "reference_kernel_s")
            }
            if not args.trace
            else None,
            "failure_log": [line for r in runs for line in r["stderr"].splitlines()],
        }
        row = report["workloads"][name]
        spreads = ", ".join(f"{m} {row['metrics'][m]['spread']:.4f}" for m in metric_names[:8])
        print(f"{name}: failed {row['failed']}/{row['attempted']}; spreads {spreads}", flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

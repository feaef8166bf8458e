#!/usr/bin/env python3
"""Benchmark a revision against this working tree, in alternating pairs.

    python3 tools/ab_bench.py REV WORKLOAD [PAIRS] [SEED]

Runs this working tree's perfbench/ from a temporary directory next to REV's
src/ (the parent side) and next to a copy of the working tree's src/ (the change
side), so both sides run the same harness from the same kind of directory:
``perfbench/run.py --workload WORKLOAD --seed SEED --seconds 20`` on both sides
PAIRS times (default 10; SEED defaults to 1), alternating which side runs first.
Prints each pair's end-to-end metrics, then per metric each side's median and
quartiles, the pairs the change won and ``compare``'s verdict, with the direction
each metric improves in taken from BENCHMARK.json.  Writes nothing under the
repository.  Each run takes about 25 s, so ten pairs take about nine minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from typing import NamedTuple

import trees

SIDES = ("parent", "change")


class Comparison(NamedTuple):
    quartiles: dict[str, list[float]]  # per side: lower quartile, median, upper quartile
    won: int  # pairs the change won; ties count for neither side
    gap: float  # change median minus parent median
    spread: float  # the parent's interquartile range
    verdict: str  # "GAIN", "LOSS", "too few pairs for a verdict" or ""


def compare(runs: dict[str, list[dict]], better: dict[str, str]) -> dict[str, Comparison]:
    """Compare, per metric in ``better`` ("higher" or "lower" is better), the result objects
    of ``perfbench/run.py`` that ``runs[side]`` lists by pair.  A GAIN holds when the change wins
    at least nine tenths of at least ten pairs, ties counting for neither side, and the medians
    differ by more than the parent's interquartile range; a LOSS is the same the other way.
    No metric gains while a change run is not correct or the change's median ``pass_frac`` is
    below the parent's: a change that fails more operations has no gain to claim."""
    passing = {side: statistics.median(r["metrics"]["pass_frac"]["value"] for r in runs[side])
               for side in SIDES}
    failing = passing["change"] < passing["parent"] or not all(r["correct"] for r in runs["change"])
    comparisons = {}
    for name, direction in better.items():
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
        sign = 1.0 if direction == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        q = {side: statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
             for side, v in zip(SIDES, (parent, change))}
        gap = q["change"][1] - q["parent"][1]
        spread = q["parent"][2] - q["parent"][0]
        if len(parent) < 10:
            verdict = "too few pairs for a verdict"
        elif won >= 0.9 * len(parent) and sign * gap > spread:
            verdict = "no GAIN: the change fails more operations" if failing else "GAIN"
        elif lost >= 0.9 * len(parent) and -sign * gap > spread:
            verdict = "LOSS"
        else:
            verdict = ""
        comparisons[name] = Comparison(q, won, gap, spread, verdict)
    return comparisons


def report(rev: str, workload: str, runs: dict[str, list[dict]], better: dict[str, str]) -> None:
    """Print every pair's metrics from ``perfbench/run.py``'s result objects, then
    ``compare``'s line per metric."""
    pairs = len(runs["parent"])
    print(f"{workload}: parent {rev} against the working tree, {pairs} pairs")
    print("pair  " + "  ".join(f"{name:>24}" for name in better) + "  correct")
    for i in range(pairs):
        for side in SIDES:
            r = runs[side][i]
            values = "  ".join(f"{r['metrics'][name]['value']:>24.6g}" for name in better)
            print(f"{i + 1:>2} {side[0]}  {values}  {r['correct']}")
    for name, c in compare(runs, better).items():
        print(
            f"{name} ({better[name]} is better): "
            + "  ".join(f"{side} median {qs[1]:.6g} [{qs[0]:.6g}, {qs[2]:.6g}]"
                        for side, qs in c.quartiles.items())
            + f"  change won {c.won}/{pairs}"
            + f"  median gap {c.gap:+.6g} ({c.gap / (c.quartiles['parent'][1] or 1.0):+.1%})"
            + f" vs parent IQR {c.spread:.6g}"
            + (f"  {c.verdict}" if c.verdict else "")
        )


def main(argv: list[str]) -> int:
    if not 3 <= len(argv) <= 5:
        sys.exit("usage: tools/ab_bench.py REV WORKLOAD [PAIRS] [SEED]")
    rev, workload, pairs, seed = argv[1:] + ["10", "1"][len(argv) - 3:]
    better = {m["name"]: m["better"]
              for m in json.loads((trees.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = {side: [] for side in SIDES}
    with trees.workspace("smap-ab-") as tmp:
        trees.copy_tree(rev, tmp / "parent", ("src",))
        trees.copy_tree(None, tmp / "parent", ("perfbench",))
        trees.copy_tree(None, tmp / "change", ("src", "perfbench"))
        for i in range(int(pairs)):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                child = trees.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
                     "--seconds", "20", "--trace", "0"], cwd=tmp / side, stdout=subprocess.PIPE)
                if child.returncode:
                    return child.returncode
                runs[side].append(json.loads(child.stdout.splitlines()[-1]))
            print(f"pair {i + 1}/{pairs} done", file=sys.stderr)
    report(rev, workload, runs, better)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env bash
# Benchmark a revision against this working tree, in alternating pairs.
#
#   tools/ab_bench.sh REV WORKLOAD [PAIRS] [SEED]
#
# Copies this working tree's perfbench/ into a temporary directory twice:
# once next to REV's src/ (the parent side) and once next to a copy of
# the working tree's src/ (the change side), so both sides run the same
# harness from the same kind of directory.  Then runs
# `perfbench/run.py --workload WORKLOAD --seed SEED --seconds 20` on both
# sides PAIRS times (default 10; SEED defaults to 1), alternating which
# side runs first.  Prints each pair's end-to-end metrics, each side's
# median and quartiles, and how many pairs the change won per metric,
# ties counting for neither side, with the direction each metric
# improves in taken from BENCHMARK.json.  A gain holds when the change
# wins at least nine tenths of at least ten pairs and the medians differ
# by more than the distance between the parent's quartiles; a loss is the
# same with the sides swapped.  Each metric's line ends in GAIN or LOSS
# when one holds, and below ten pairs in "too few pairs for a verdict".
#
# Reads perfbench/ and BENCHMARK.json and writes nothing under the
# repository; the temporary directory, with every run's raw output under
# out/, is removed on exit, also when the script is stopped by TERM or INT,
# which first stop the run in progress.  Each run takes about 25 s, so ten
# pairs take about nine minutes.
set -euo pipefail

usage="usage: tools/ab_bench.sh REV WORKLOAD [PAIRS] [SEED]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seed=${4:-1}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
# Each child runs as a background job in a process group of its own (set -m) and
# is waited for, so a TERM or INT ends the wait at once; the exit trap then stops
# that group, the child and whatever it started, before it removes the directory.
set -m
job=
stop() {
    if [[ -n $job ]]; then
        kill -TERM -- "-$job" 2>/dev/null || true
        wait "$job" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap stop EXIT
trap 'exit 143' TERM
trap 'exit 130' INT

# in_job CMD...: run CMD as that job, and wait for it
in_job() {
    "$@" &
    job=$!
    wait "$job"
    job=
}
mkdir -p "$tmp/parent" "$tmp/change" "$tmp/out"
git -C "$root" archive "$rev" src | tar -x -C "$tmp/parent"
cp -R "$root/src" "$tmp/change/src"
for side in parent change; do
    cp -R "$root/perfbench" "$tmp/$side/perfbench"
done

# run SIDE I: one benchmark run; its last stdout line is the result object
run() {
    (cd "$tmp/$1" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 0) > "$tmp/out/$1.$2.stdout"
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        in_job run parent "$i"; in_job run change "$i"
    else
        in_job run change "$i"; in_job run parent "$i"
    fi
    echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$tmp/out" "$pairs" "$root/BENCHMARK.json" "$rev" "$workload" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

out, pairs, spec, rev, workload = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3], *sys.argv[4:]
better = {m["name"]: m["better"] for m in json.loads(Path(spec).read_text())["end_to_end"]}


def result(side, i):
    return json.loads((out / f"{side}.{i}.stdout").read_text().splitlines()[-1])


runs = {side: [result(side, i) for i in range(pairs)] for side in ("parent", "change")}
print(f"{workload}: parent {rev} against the working tree, {pairs} pairs")
print("pair  " + "  ".join(f"{name:>24}" for name in better) + "  correct")
for i in range(pairs):
    for side in ("parent", "change"):
        r = runs[side][i]
        values = "  ".join(f"{r['metrics'][name]['value']:>24.6g}" for name in better)
        print(f"{i + 1:>2} {side[0]}  {values}  {r['correct']}")
for name, direction in better.items():
    values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
    sign = 1.0 if direction == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    losses = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
    q = {side: statistics.quantiles(v, n=4) if len(v) > 1 else v * 3 for side, v in values.items()}
    gap = statistics.median(values["change"]) - statistics.median(values["parent"])
    spread = q["parent"][2] - q["parent"][0]
    if pairs < 10:
        verdict = "  too few pairs for a verdict"
    elif wins >= 0.9 * pairs and sign * gap > spread:
        verdict = "  GAIN"
    elif losses >= 0.9 * pairs and -sign * gap > spread:
        verdict = "  LOSS"
    else:
        verdict = ""
    print(
        f"{name} ({direction} is better): "
        + "  ".join(f"{side} median {qs[1]:.6g} [{qs[0]:.6g}, {qs[2]:.6g}]" for side, qs in q.items())
        + f"  change won {wins}/{pairs}"
        + f"  median gap {gap:+.6g} ({gap / (q['parent'][1] or 1.0):+.1%}) vs parent IQR {spread:.6g}"
        + verdict
    )
EOF

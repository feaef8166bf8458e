#!/usr/bin/env bash
# Compare the seeded outputs of this working tree with those of a revision.
#
#   tools/diff_outputs.sh REV
#
# Exports REV into a temporary directory, runs the same smap commands in both
# trees with the same --out-dir names, and compares trace.csv, summary.txt,
# mse.csv and each command's stdout, stderr and exit status with diff -r, so a
# command that fails is compared too.  Each command runs under -W
# error::RuntimeWarning, as the test suite does, so a command that starts to
# warn shows up as a difference.  Exits nonzero on any difference.  The
# directory is removed on exit, also when the script is stopped by TERM or
# INT, which first stop the command in progress.  The commands are those whose
# digests tests/test_golden.py pins, a few more (among them the first chunk of
# each perfbench workload, and three whose tables span several of the blocks
# the writer formats at a time, one of them with blocks that open on quiet
# rows), and some the library rejects, whose usage errors are then compared
# too, among them plans that name one configuration under two spellings, a
# value outside each parameter's range, strategies that --cv does not offer,
# and two configurations with two faults each, which show which field is
# blamed first.
set -euo pipefail

rev=${1:?usage: tools/diff_outputs.sh REV}
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
mkdir "$tmp/base"
git -C "$root" archive "$rev" src | tar -x -C "$tmp/base"

commands=(
    "run --iters 2000 --seed 4"
    "run --iters 2000 --reuse 5 --taps 12 --seed 3"
    "run --iters 2000 --cv sccv --seed 3"
    "run --iters 2000 --cv noise --noise-scale 0.5 --seed 5"
    "run --iters 2000 --cv noise --noise-scale 2 --seed 5"
    "run --iters 1000 --mu 0.5"
    "run --iters 1000 --ar=-0.9 --seed 2"
    "run --iters 500 --ar=0 --taps 1 --reuse 0 --seed 6"
    "mc --iters 300 --runs 5 --reuse 4 --algos smap:fixed,smap:sccv,ap:0.5"
    "run --iters 3000 --seed 5 --cv noise --noise-scale 0.5"
    "run --iters 500 --taps 4 --reuse 0"
    "mc --iters 300 --runs 70 --algos smap:fixed,smap:sccv,smap:noise,ap:0.9"
    "mc --iters 300 --runs 4 --taps 20 --reuse 8 --algos smap:fixed,smap:sccv,ap:0.5"
    "mc --iters 300 --runs 4 --ar=-0.5 --taps 64 --algos smap:fixed,ap:0.5"
    "verify --instances 200"
    "mc --iters 2000 --runs 8 --algos smap:sccv,smap:zero,smap:fixed,smap:noise --seed 7"
    "mc --iters 1000 --runs 9 --reuse 1 --taps 3 --algos smap:sccv,smap:fixed --seed 11"
    "mc --iters 1000 --runs 9 --reuse 0 --algos smap:sccv,smap:fixed --seed 12"
    "mc --iters 777 --runs 130 --algos smap:sccv --seed 13"
    "mc --delta 0 --taps 16 --reuse 9 --iters 130 --runs 3 --seed 25 --algos smap:sccv"
    "mc --delta 0 --taps 16 --reuse 9 --iters 130 --runs 3 --seed 25 --algos ap:0.9"
    "run --taps 0"
    "mc --runs 0"
    "verify --taps 0"
    "verify --max-reuse 20"
    "run --run-index -1"
    "run --noise-scale nan"
    "mc --noise-scale inf --algos smap:fixed,smap:noise"
    "run --mu 0.05 --iters 120 --taps 13 --reuse 8 --delta 1e-3 --seed 18"
    "verify --instances 0"
    "run --snr-db 3070 --iters 200"
    "mc --noise-var 1e307 --snr-db 0 --iters 200 --runs 3 --algos smap:fixed"
    "run --delta 0 --taps 16 --reuse 9 --iters 300 --seed 25 --cv sccv"
    "run --iters 2000 --cv zero --seed 8"
    "run --mu 0.9 --iters 500 --reuse 4 --delta 0 --seed 9"
    "run --iters 1 --seed 2"
    "run --iters 0"
    "run --gamma-bar inf"
    "run --gamma-bar 0"
    "run --snr-db nan"
    "run --delta -1"
    "run --noise-var inf"
    "run --iters 10000 --seed 1000000"
    "run --iters 1000000000000000000000000000000"
    "mc --iters 1000 --runs 8 --algos smap:sccv --seed 1000000"
    "mc --iters 1000 --runs 2 --algos smap:fixed,ap:0.9 --seed 1000000"
    "run --mu 0.5 --iters 5000 --reuse 0 --seed 8"
    "mc --iters 5000 --runs 2 --algos smap:fixed,ap:0.9 --seed 3"
    "run --iters 5000 --cv sccv --seed 3"
    "mc --iters 10 --runs 1000000000000000000000000000000"
    "verify --taps 1000000000000000000000000000000"
    "mc --iters 300 --runs 3 --algos smap,smap:fixed"
    "mc --iters 300 --runs 3 --algos ap:0.5,ap:.5"
    "mc --iters 300 --runs 3 --cv sccv --algos smap,smap:fixed"
    "run --mu 0"
    "run --mu 1.5"
    "run --ar 1"
    "run --noise-var 0"
    "run --gamma-bar nan"
    "mc --noise-scale -1 --algos smap:noise"
    "mc --algos smap:custom"
    "mc --algos smap:bogus"
    "run --taps 3 --reuse 5 --gamma-bar 0 --iters 10"
    "run --mu 2 --snr-db nan --iters 10"
    "run --snr-db inf --iters 10"
    "run --snr-db=-inf --iters 10"
    "mc --snr-db nan --iters 10 --runs 1 --algos smap:fixed"
)

# run_all TREE OUT: every command against TREE's sources, outputs under OUT;
# cmdN.stdout gets command N's stdout, then its stderr and exit status
run_all() {
    mkdir -p "$2"
    cd "$2"
    local i=0 cmd out status
    for cmd in "${commands[@]}"; do
        i=$((i + 1))
        echo "\$ smap $cmd" > "cmd$i.stdout"
        case $cmd in
            verify*) out=() ;;
            *) out=(--out-dir "cmd$i") ;;
        esac
        status=0
        PYTHONPATH="$1/src" python3 -W error::RuntimeWarning -m smap $cmd "${out[@]}" >> "cmd$i.stdout" 2> stderr || status=$?
        cat stderr >> "cmd$i.stdout"
        echo "exit status $status" >> "cmd$i.stdout"
    done
    rm -f stderr
}

in_job run_all "$tmp/base" "$tmp/out/base"
in_job run_all "$root" "$tmp/out/worktree"
cd "$tmp/out"
diff -r base worktree
echo "no difference in ${#commands[@]} commands against $rev"

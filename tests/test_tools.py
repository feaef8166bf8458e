"""The tools' own logic: the A/B verdict rule, the diff's command list, the child supervisor.

The tools run benchmarks and whole command lists, so these tests call their
functions on synthetic input rather than running them.
"""

import importlib
import json
import signal
import time
from pathlib import Path

import pytest

from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
BETTER = {m["name"]: m["better"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.fixture
def tools(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module


def results(values, names, pass_frac=1.0, correct=True):
    """``perfbench/run.py``'s result objects, one per value, that read it for each metric in
    ``names``; ``correct`` is one flag for all runs or a list of one per run."""
    flags = correct if isinstance(correct, list) else [correct] * len(values)
    return [{"metrics": {"pass_frac": {"value": pass_frac}} | {n: {"value": v} for n in names},
             "correct": flag} for v, flag in zip(values, flags)]


def compare(tools, parent, change, names=("steps_per_s", "setup_s"), **change_runs):
    """``ab_bench.compare`` on result objects that read the same pairs for each metric in
    ``names``; ``change_runs`` sets the change side's ``pass_frac`` and ``correct``."""
    runs = {"parent": results(parent, names), "change": results(change, names, **change_runs)}
    return tools("ab_bench").compare(runs, {name: BETTER[name] for name in names})


def verdicts(tools, parent, change, names=("steps_per_s", "setup_s")):
    return {name: c.verdict for name, c in compare(tools, parent, change, names).items()}


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.7, 99.3, 100.1]  # IQR about 1


def test_three_pairs_are_too_few_for_a_verdict(tools):
    assert set(verdicts(tools, PARENT[:3], [v + 50 for v in PARENT[:3]]).values()) == {
        "too few pairs for a verdict"}


def test_a_shift_beyond_the_iqr_is_a_gain_or_a_loss_by_direction(tools):
    assert (BETTER["steps_per_s"], BETTER["setup_s"]) == ("higher", "lower")
    change = [v + 5 for v in PARENT]
    assert verdicts(tools, PARENT, change) == {"steps_per_s": "GAIN", "setup_s": "LOSS"}
    assert verdicts(tools, change, PARENT) == {"steps_per_s": "LOSS", "setup_s": "GAIN"}
    comparison = compare(tools, PARENT, change, ("steps_per_s",))["steps_per_s"]
    assert (comparison.won, comparison.gap) == (10, 5.0)
    assert comparison.quartiles["change"] == [q + 5 for q in comparison.quartiles["parent"]]


def test_a_shift_inside_the_iqr_gives_no_verdict(tools):
    assert set(verdicts(tools, PARENT, [v + 0.2 for v in PARENT]).values()) == {""}


@pytest.mark.parametrize("wins, verdict", [(9, "GAIN"), (8, "")])
def test_nine_wins_in_ten_give_a_verdict_and_eight_none(tools, wins, verdict):
    change = [v + 5 if i < wins else v - 5 for i, v in enumerate(PARENT)]
    assert verdicts(tools, PARENT, change, ("steps_per_s",)) == {"steps_per_s": verdict}


def test_ties_count_for_neither_side(tools):
    change = [v + 5 if i < 8 else v for i, v in enumerate(PARENT)]
    # counted for either side, the two ties would make ten of ten, a GAIN or a LOSS
    assert [(c.won, c.verdict) for c in compare(tools, PARENT, change).values()] == [
        (8, ""), (0, "")]


@pytest.mark.parametrize("change_runs", [
    pytest.param({"pass_frac": 0.5, "correct": False}, id="every-run-failing"),
    pytest.param({"pass_frac": 0.99}, id="pass-frac-below-the-parents"),
    pytest.param({"correct": [True] * 9 + [False]}, id="one-run-not-correct"),
])
def test_a_change_that_fails_operations_gains_nothing(tools, change_runs):
    change = [v + 5 for v in PARENT]
    assert verdicts(tools, PARENT, change) == {"steps_per_s": "GAIN", "setup_s": "LOSS"}
    withheld = {name: c.verdict
                for name, c in compare(tools, PARENT, change, **change_runs).items()}
    assert withheld == {"steps_per_s": "no GAIN: the change fails more operations",
                        "setup_s": "LOSS"}


def test_diff_outputs_runs_every_golden_command_and_each_first_chunk_at_seed_1(
        tools, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    seed = workloads.chunk_seed(1, 0)
    first_chunks = [
        f"mc --iters {workloads.ITERATIONS} --runs {w.runs} --algos {','.join(w.labels)}"
        f" --seed {seed}" for w in (workloads.McDense, workloads.McSparse)
    ] + [f"run --iters {workloads.LONG_TRACE_ITERATIONS} --seed {seed}",
         f"verify --instances {workloads.VERIFY_INSTANCES} --seed {seed}"]
    assert first_chunks[-1] == "verify --instances 1000 --seed 1000000"
    commands = tools("diff_outputs").COMMANDS
    assert set(GOLDEN) | set(first_chunks) <= set(commands)
    assert len(set(commands)) == len(commands) == 69


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie has stopped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_the_supervisor_stops_the_childs_whole_group_on_system_exit(tools, tmp_path):
    trees = tools("trees")
    pids = tmp_path / "pids"

    def stop_once_started(signum, frame):  # the tools' handler, once both processes exist
        if pids.exists() and pids.read_text().endswith("\n"):
            signal.setitimer(signal.ITIMER_REAL, 0)
            trees.stop(signum, frame)

    previous = signal.signal(signal.SIGALRM, stop_once_started)
    signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
    try:
        with pytest.raises(SystemExit) as stopped:
            trees.run(["sh", "-c", "sleep 30 & echo $$ $! > pids; wait"], cwd=tmp_path)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert stopped.value.code == 128 + signal.SIGALRM
    child, grandchild = map(int, pids.read_text().split())
    deadline = time.monotonic() + 1.0  # SIGKILL is delivered, not waited for
    while running(grandchild) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running(child)
    assert not running(grandchild)

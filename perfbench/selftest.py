"""Self-tests for the benchmark's tracing and checks, on values that must be exact.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import importlib
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from smap import cli, sim  # noqa: E402


class CheckFailed(Exception):
    pass


def check(ok: bool, text: str) -> None:
    if not ok:
        raise CheckFailed(text)


def _traced_run(iterations: int = 300, seed: int = 5):
    tracer = tracing.Tracer()
    config = sim.ScenarioConfig(iterations=iterations, seed=seed)
    rng = sim.run_rng(seed, 0)
    with tracer.installed():
        trace = sim.run_single(config, sim.SMAP, rng)
    return tracer, trace


def _metric(tracer: tracing.Tracer, name: str) -> float:
    return tracing.layer_metrics(tracer, tracer.counts(), 1.0, 0.0, 0.0)[name][0]


def test_grams_per_update_is_two_on_smap_fixed():
    tracer, trace = _traced_run()
    updates = int(trace.update_flags.sum())
    check(updates > 0 and tracer.updates == updates, f"updates {tracer.updates} != {updates}")
    ratio = _metric(tracer, "linalg.grams_per_update")
    check(ratio == 2.0, f"grams per update {ratio} != 2.0")


def test_gate_fire_ratio_equals_update_rate():
    tracer, trace = _traced_run()
    ratio = _metric(tracer, "filters.gate_fire_ratio")
    check(ratio == trace.update_rate, f"gate fire ratio {ratio} != {trace.update_rate}")


def test_verify_counts_one_kkt_solve_and_two_grams_per_instance():
    tracer = tracing.Tracer()
    with tracer.installed():
        result = cli.verify_update_against_kkt(30, num_taps=10, max_reuse=2, seed=3)
    check(result.ok, "verification failed")
    check(tracer.calls["solve_constrained"] == 30, f"{tracer.calls['solve_constrained']} solves")
    check(tracer.calls["gram"] == 60, f"{tracer.calls['gram']} Gram builds")


def test_self_times_add_up_to_the_root_span():
    tracer, _ = _traced_run()
    total_self = sum(tracer.layer_self.values())
    root = tracer.inclusive["run_single"]
    check(abs(total_self - root) <= 1e-9 * root, f"self times {total_self} != root span {root}")


def test_wrappers_removed_after_tracing():
    originals = [
        getattr(importlib.import_module(module), attr) for module, attr, _, _ in tracing.PATCHES
    ]
    tracer, _ = _traced_run(50)
    restored = [
        getattr(importlib.import_module(module), attr) for module, attr, _, _ in tracing.PATCHES
    ]
    check(tracing.unpatched(), "a tracing wrapper is still installed")
    check(all(a is b for a, b in zip(originals, restored)), "an original was not restored")
    calls = dict(tracer.calls)
    sim.run_single(sim.ScenarioConfig(iterations=50), sim.SMAP, sim.run_rng(0, 0))
    check(dict(tracer.calls) == calls, "an untraced run was recorded")


def test_wrappers_removed_after_an_exception():
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            raise KeyError("boom")
    except KeyError:
        pass
    check(tracing.unpatched(), "a tracing wrapper survived an exception")


def test_long_trace_check_takes_off_only_the_tikhonov_term():
    # this seed's k=2 window is nearly singular: |y| is about 5e7
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        workload = workloads.LongTrace(0, out_dir)
        config, trace, bundle = workload._run(940322180000149, 200)
        rec = trace.local_records[2]
        raw = rec.identity_residual / max(1.0, rec.g2)
        check(rec.updated and raw > 1e-4, f"k=2 raw residual {raw:.3e} is not a cold-start case")
        y = workloads.replayed_moves(config, trace, 2)[2]
        leakage = config.delta * float(y @ y)
        gap = abs(rec.identity_residual - leakage) / workloads.identity_scale(rec)
        check(gap <= 1e-9, f"residual {rec.identity_residual:.6e} != leakage {leakage:.6e}")
        attempted, failed = workload.check((config, trace, bundle))
        check(failed == 0, f"{failed} of {attempted} checks of a clean run failed")
        records = list(trace.local_records)
        gap = 1e-7 * workloads.identity_scale(rec)
        records[2] = dataclasses.replace(rec, identity_residual=rec.identity_residual + gap)
        broken = dataclasses.replace(trace, local_records=tuple(records))
        check(workload.check((config, broken, bundle))[1] == 1, "a 1e-7 identity gap passed")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except CheckFailed as err:
                failures += 1
                print(f"FAIL {name}: {err}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

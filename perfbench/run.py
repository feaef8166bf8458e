"""smap benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc_dense --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs to be
installed.  Workloads (see ``workloads.py``): ``mc_dense``, ``mc_sparse``,
``long_trace`` and ``verify_kkt``.  Inputs depend only on ``--seed``.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``steps_per_s``: median over timed chunks of filter steps (verify
  instances on ``verify_kkt``) per wall second, scaled to a nominal host
  speed.  Each chunk is bracketed by passes of a fixed reference kernel
  (``hostspeed.py``) and its rate is multiplied by the kernel's measured
  time over its nominal time.  The host's speed drifts by 20-35 % between
  back-to-back runs; the scaling cancels that drift.  Unscaled quartiles
  are printed on the ``detail`` line.
* ``setup_s``: median over fresh interpreters, spawned between chunks
  throughout the run, of the seconds from process spawn to the first
  timed call (imports, workload construction, one warm-up pass).  Each
  probe is bracketed by reference-kernel passes too, and its time is
  divided by the same host-speed factor.
* ``peak_rss_mb``: peak resident memory of this process (``ru_maxrss``).
* ``pass_frac``: share of checked operations (see ``workloads.py``) that
  passed their correctness check and raised no ``SmapError``; it is
  ``1 - failed / attempted`` of the result line.

With ``--trace 1`` each chunk runs twice, untraced and traced in
alternating order, and the run reports the per-layer metrics of
``tracing.layer_metrics`` plus ``trace.overhead_frac``.

The last line of standard output is the result object; the lines before
it carry provenance and unscaled details.  A directory without
``src/smap`` exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_CHUNKS = 3
PROBE_TIMEOUT_S = 60

# Every workload is single-threaded; pin BLAS before numpy is imported so
# that the small solves never spin up a thread pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up, print the monotonic clock, and exit (used by setup_s)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(name: str, seed: int, out_dir: Path):
    """Everything before the first timed call: imports, workload, warm-up."""
    sys.path.insert(0, str(SRC))
    import smap

    if Path(smap.__file__).resolve().parent != (SRC / "smap").resolve():
        raise SystemExit(f"smap was imported from {smap.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name](seed, out_dir)
    workload.warm_up()
    return workload


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its first timed call."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - spawned


def run_probe(args, out_dir: Path) -> None:
    setup(args.workload, args.seed, out_dir)
    print(time.monotonic())  # CLOCK_MONOTONIC, shared with the parent


def timed_chunk(workload, i: int):
    """Run chunk ``i``; return ``(steps, wall, output)``, output None on SmapError."""
    from smap.errors import SmapError

    start = time.perf_counter()
    try:
        steps, output = workload.run(i)
    except SmapError as err:
        print(f"chunk {i}: {type(err).__name__}: {err}", file=sys.stderr)
        return 0, time.perf_counter() - start, None
    return steps, time.perf_counter() - start, output


class Checks:
    """Correctness tally over checked operations."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def add(self, output) -> None:
        if output is None:
            self.attempted += 1
            self.failed += 1
            return
        attempted, failed = self.workload.check(output)
        self.attempted += attempted
        self.failed += failed


def measure_untraced(workload, seconds: float, checks: Checks, probe):
    """Chunks bracketed by reference-kernel passes until ``seconds`` pass.

    ``SETUP_PROBES`` calls of ``probe`` are spread evenly over the run and
    bracketed the same way, so that setup samples and chunks see the same
    spells of host speed.  Returns the host-scaled chunk rates and setup
    seconds, plus their unscaled values and the reference times.
    """
    import hostspeed

    def scale(ref_before: float, ref_after: float) -> float:
        return 0.5 * (ref_before + ref_after) / hostspeed.NOMINAL_S

    rates, setups = [], []
    raw = {"steps_per_s": [], "setup_s": [], "reference_kernel_s": []}

    def take_probe(ref_before: float) -> float:
        seconds_to_ready = probe()
        ref_after = hostspeed.time_kernel()
        setups.append(seconds_to_ready / scale(ref_before, ref_after))
        raw["setup_s"].append(seconds_to_ready)
        return ref_after

    hostspeed.time_kernel()
    ref_before = hostspeed.time_kernel()
    start = time.perf_counter()
    probing = 0.0  # wall spent in probes, which does not count as measuring
    i = 0
    while i < MIN_CHUNKS or time.perf_counter() - probing < start + seconds:
        steps, wall, output = timed_chunk(workload, i)
        ref_after = hostspeed.time_kernel()
        checks.add(output)
        output = None
        if steps:
            rates.append(steps / wall * scale(ref_before, ref_after))
            raw["steps_per_s"].append(steps / wall)
            raw["reference_kernel_s"].append(0.5 * (ref_before + ref_after))
        measured = time.perf_counter() - probing - start
        if len(setups) < SETUP_PROBES and measured >= len(setups) * seconds / SETUP_PROBES:
            probe_start = time.perf_counter()
            ref_after = take_probe(ref_after)
            probing += time.perf_counter() - probe_start
        ref_before = ref_after
        i += 1
    while len(setups) < SETUP_PROBES:
        ref_before = take_probe(ref_before)
    return rates, setups, raw


def trace_bytes_per_step(workload, iterations: int = 2000) -> float:
    """Bytes a ``RunTrace`` retains per step, measured by tracemalloc."""
    import tracemalloc

    from smap import sim

    config = workload.trace_config(iterations)
    if config is None:
        return 0.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # the trace stays referenced while its allocations are counted
        trace = sim.run_single(config, sim.SMAP, sim.run_rng(config.seed, 0))  # noqa: F841
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / iterations


def measure_traced(workload, seconds: float, checks: Checks):
    """Each chunk untraced and traced, alternating which runs first."""
    import tracing

    tracer = tracing.Tracer()
    first = None
    ratios = []
    traced_wall = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_CHUNKS or time.perf_counter() < deadline:
        walls = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    steps, wall, output = timed_chunk(workload, i)
                traced_wall += wall
                if first is None:
                    first = tracer.counts()
            else:
                steps, wall, output = timed_chunk(workload, i)
            checks.add(output)
            output = None
            walls[traced] = wall
        ratios.append(walls[True] / walls[False])
        i += 1
    if not tracing.unpatched():
        raise RuntimeError("tracing wrappers were left installed")
    bytes_per_step = trace_bytes_per_step(workload)
    overhead = statistics.median(ratios) - 1.0
    return tracing.layer_metrics(tracer, first, traced_wall, bytes_per_step, overhead), len(ratios)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": git_sha(),
        "seed": seed,
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smap" / "__init__.py").is_file():
        print(f"error: no smap package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.setup_probe:
            run_probe(args, out_dir)
            return 0
        workload = setup(args.workload, args.seed, out_dir)
        checks = Checks(workload)
        if args.trace:
            layers, chunks = measure_traced(workload, args.seconds, checks)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
            detail = {"chunk_pairs": chunks}
        else:
            rates, setups, raw = measure_untraced(
                workload, args.seconds, checks, lambda: probe_setup(args)
            )
            if not rates:
                raise SystemExit("no chunk completed")
            metrics = {
                "steps_per_s": {"value": statistics.median(rates), "unit": "1/s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
                "pass_frac": {
                    "value": 1.0 - checks.failed / max(1, checks.attempted),
                    "unit": "frac",
                },
            }
            detail = {
                "chunks": len(rates),
                "steps_per_s_quartiles": quartiles(rates),
                "unscaled": {name: quartiles(values) for name, values in raw.items()},
                "unscaled_setup_samples_s": raw["setup_s"],
            }
        print(json.dumps({"provenance": provenance(args.seed)}))
        print(json.dumps({"detail": detail}))
        print(json.dumps({
            "correct": checks.failed == 0 and checks.attempted > 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

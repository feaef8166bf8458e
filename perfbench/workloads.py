"""The benchmark's workloads: inputs from the seed, timed chunks, checks.

Each workload splits its work into chunks.  ``run(i)`` performs chunk
``i`` through smap's public API; its inputs depend only on the workload
seed and ``i``.  ``check(output)`` verifies the chunk's output outside
the timed region and returns ``(attempted, failed)``.  A checked
operation is the smallest unit whose output is checked: one ensemble
per configuration, one verification sweep, and for ``long_trace`` each
updating step plus the run as a whole.  Why each workload exists is
recorded in ``BENCHMARK.json``.

Every call into smap goes through a module attribute (``sim.run_single``,
``cli.write_run_outputs``) so that the traced run sees the patched names.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from smap import cli, filters, linalg, sim
from smap.constraints import fixed_cv, make_cv, sc_cv

ITERATIONS = 1000  # default scenario: N=10, L=2, K=1000, 20 dB, AR 0.95
MC_DENSE_RUNS = 2  # per configuration, two configurations
MC_SPARSE_RUNS = 8
LONG_TRACE_ITERATIONS = 10_000
VERIFY_INSTANCES = 1000

# Acceptance tolerances and bands (tests/test_acceptance.py).
IDENTITY_RTOL = 1e-8
POSTERIOR_SLACK = 1e-8
RATE_BANDS = {"smap:fixed": (0.25, 0.45), "smap:sccv": (0.05, 0.18), "ap:0.9": (1.0, 1.0)}


def chunk_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


def _csv_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def warm_up(self) -> None:
        """Run every code path of a chunk once on a tiny input."""
        raise NotImplementedError

    def run(self, i: int) -> tuple[int, object]:
        """Perform chunk ``i``; return ``(steps, output)``."""
        raise NotImplementedError

    def check(self, output) -> tuple[int, int]:
        raise NotImplementedError

    def trace_config(self, iterations: int):
        """A config whose ``run_single`` trace this workload builds, or None."""
        return None


class MonteCarlo(Workload):
    """``smap mc``-shaped: ensembles per configuration, then ``mse.csv``."""

    labels: tuple[str, ...] = ()
    runs = 1

    def _configs(self, seed: int, iterations: int):
        for label in self.labels:
            name, _, arg = label.partition(":")
            if name == sim.AP:
                yield label, sim.AP, sim.ScenarioConfig(
                    iterations=iterations, ap_step=float(arg), seed=seed
                )
            else:
                strategy = fixed_cv() if arg == "fixed" else sc_cv()
                yield label, sim.SMAP, sim.ScenarioConfig(
                    iterations=iterations, cv_strategy=strategy, seed=seed
                )

    def _ensemble(self, seed: int, iterations: int, runs: int):
        results = [
            (label, config, algorithm, sim.run_monte_carlo(config, algorithm, runs))
            for label, algorithm, config in self._configs(seed, iterations)
        ]
        bundle = cli.write_mc_outputs(results, runs, self.out_dir)
        return results, bundle

    def warm_up(self) -> None:
        self._ensemble(self.seed, 50, 1)

    def trace_config(self, iterations: int):
        return next(self._configs(self.seed, iterations))[2]

    def run(self, i: int):
        output = self._ensemble(chunk_seed(self.seed, i), ITERATIONS, self.runs)
        return len(self.labels) * self.runs * ITERATIONS, output

    def check(self, output):
        results, bundle = output
        failed = 0
        for label, _, _, summary in results:
            lo, hi = RATE_BANDS[label]
            ok = (
                summary.runs == self.runs
                and summary.mse_curve.shape == (ITERATIONS,)
                and bool(np.all(np.isfinite(summary.mse_curve)))
                and lo <= summary.mean_update_rate <= hi
            )
            failed += not ok
        if _csv_lines(bundle.mse_csv_path) != ITERATIONS + 1:
            failed = len(results)
        return len(results), failed


class McDense(MonteCarlo):
    name = "mc_dense"
    labels = ("smap:fixed", "ap:0.9")
    runs = MC_DENSE_RUNS


class McSparse(MonteCarlo):
    name = "mc_sparse"
    labels = ("smap:sccv",)
    runs = MC_SPARSE_RUNS


class LongTrace(Workload):
    """``smap run``-shaped: one long run keeping per-step records, then ``trace.csv``."""

    name = "long_trace"

    def _run(self, seed: int, iterations: int):
        config = sim.ScenarioConfig(iterations=iterations, seed=seed)
        trace = sim.run_single(config, sim.SMAP, sim.run_rng(seed, 0))
        bundle = cli.write_run_outputs(trace, config, sim.SMAP, self.out_dir)
        return config, trace, bundle

    def warm_up(self) -> None:
        self._run(self.seed, 50)

    def trace_config(self, iterations: int):
        return sim.ScenarioConfig(iterations=iterations, seed=self.seed)

    def run(self, i: int):
        return LONG_TRACE_ITERATIONS, self._run(chunk_seed(self.seed, i), LONG_TRACE_ITERATIONS)

    def check(self, output):
        """One checked operation per updating step, plus one for the run.

        A step passes when its energy-identity residual relative to
        ``max(1, g2)`` is at most ``IDENTITY_RTOL`` and its in-band
        posterior excess at most ``POSTERIOR_SLACK``.  A step that misses
        either is replayed (see ``replayed_moves``) and passes when both
        hold once its Tikhonov term is taken off, with the residual then
        relative to ``identity_scale``: on the cold-start steps that get
        here the identity's terms can exceed ``g2`` a hundredfold, and its
        rounding error scales with them.
        """
        config, trace, bundle = output
        steps = failed = 0
        suspects = {}
        for rec, div in zip(trace.local_records, trace.divergence_records):
            if not rec.updated:
                continue
            steps += 1
            residual = rec.identity_residual / max(1.0, rec.g2)
            excess = div.max_abs_posterior - config.gamma_bar
            if not (residual <= IDENTITY_RTOL and excess <= POSTERIOR_SLACK):
                suspects[rec.k] = (rec, div)
        moves = replayed_moves(config, trace, max(suspects, default=-1))
        for k, (rec, div) in suspects.items():
            y = moves.get(k)
            if y is None:
                failed += 1
                print(f"long_trace seed {config.seed} k={k}: replay differs from the trace",
                      file=sys.stderr)
                continue
            leakage = config.delta * float(y @ y)
            residual = abs(rec.identity_residual - leakage) / identity_scale(rec)
            excess = (
                div.max_abs_posterior - config.gamma_bar
                - config.delta * float(np.max(np.abs(y)))
            )
            if not (residual <= IDENTITY_RTOL and excess <= POSTERIOR_SLACK):
                failed += 1
                print(
                    f"long_trace seed {config.seed} k={k}: identity residual "
                    f"{rec.identity_residual:.3e} against Tikhonov leakage {leakage:.3e} "
                    f"(relative gap {residual:.3e}), posterior excess {excess:.3e}",
                    file=sys.stderr,
                )
        run_ok = (
            steps > 0
            and bool(np.all(np.isfinite(trace.misalignment)))
            and _csv_lines(bundle.trace_csv_path) == config.iterations + 1
        )
        return steps + 1, failed + (not run_ok)


def identity_scale(rec) -> float:
    """Largest term of the energy identity ``g1 = g2 - rhs + lhs``, at least 1."""
    return max(1.0, rec.g1, rec.g2, abs(rec.lhs), abs(rec.rhs))


def replayed_moves(config, trace, last: int) -> dict[int, np.ndarray]:
    """The solve ``y`` of each updating step ``k <= last`` of an SM-AP run.

    ``y`` solves ``(X^T X + delta I) y = e - cv`` and the step adds
    ``X y`` to the coefficients.  With ``delta > 0`` the energy identity
    ``g1 = g2 - rhs + lhs`` that ``robustness.local_check`` evaluates
    holds up to exactly ``delta * |y|^2``, and each posterior error
    equals its constraint component plus ``delta * y_j``.  Both terms are
    far above the acceptance tolerances on the nearly singular windows of
    the first few steps, where ``|y|`` reaches 1e3 to 1e7.  The run is
    replayed from its seed through the public step functions; the replay
    stops, leaving later steps without an entry, where its gate or prior
    error departs from the trace.
    """
    moves: dict[int, np.ndarray] = {}
    if last < 0:
        return moves
    N, L, gamma_bar = config.num_taps, config.reuse, config.gamma_bar
    rng = sim.run_rng(config.seed, 0)
    w0 = sim.generate_system(N, rng)
    x, d, n = sim.generate_signals(config, w0, rng)
    # time t sits at index t + N + L of xpad and t + L of dpad, npad
    xpad = np.concatenate([np.zeros(N + L), x])
    dpad = np.concatenate([np.zeros(L), d])
    npad = np.concatenate([np.zeros(L), n])
    lag = np.arange(L + 1)
    state = filters.FilterState.zeros(N)
    for k in range(last + 1):
        X = np.stack([xpad[k - j + L + 1 : k - j + N + L + 1][::-1] for j in lag], axis=1)
        window = filters.DataWindow(X, dpad[k : k + L + 1][::-1], npad[k : k + L + 1][::-1])
        e = filters.error_vector(state, window)
        updated = filters.indicator(e[0], gamma_bar)
        if updated != bool(trace.update_flags[k]) or not np.isclose(
            e[0], trace.errors[k], rtol=1e-9, atol=0.0
        ):
            break
        if not updated:
            continue
        cv = make_cv(config.cv_strategy, e, window.n, gamma_bar, enforce_bound=False)
        cv = np.where(lag <= k, cv, 0.0)  # padded lags stay neutral, as in run_single
        y = linalg.solve_spd(linalg.gram(X), e - cv, config.delta)
        moves[k] = y
        state = filters.FilterState(state.w + X @ y)
    return moves


class VerifyKkt(Workload):
    """``smap verify``-shaped: random updating steps through both routes."""

    name = "verify_kkt"

    def _sweep(self, seed: int, instances: int):
        return cli.verify_update_against_kkt(instances, num_taps=10, max_reuse=2, seed=seed)

    def warm_up(self) -> None:
        self._sweep(self.seed, 10)

    def run(self, i: int):
        return VERIFY_INSTANCES, self._sweep(chunk_seed(self.seed, i), VERIFY_INSTANCES)

    def check(self, output):
        return 1, int(not (output.ok and output.instances == VERIFY_INSTANCES))


WORKLOADS = {w.name: w for w in (McDense, McSparse, LongTrace, VerifyKkt)}


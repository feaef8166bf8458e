"""Command-line front end.

Three subcommands: ``run`` traces a single experiment, ``mc`` averages a
Monte-Carlo ensemble, ``verify`` sweeps random updating steps through
two independent solution routes and compares them.  Results land as CSV
plus a plain-text summary; plotting stays external.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import filters, robustness
from .constrained_ls import ConstrainedLSProblem, solve_constrained
from .constraints import CUSTOM, KINDS, NOISE, ConstraintStrategy
from .errors import InvalidInputError, SmapError
from .filters import DataWindow, FilterState
from .sim import (
    AP,
    SMAP,
    MonteCarloSummary,
    RunTrace,
    ScenarioConfig,
    run_monte_carlo,
    run_rng,
    run_single,
    steady_state_db,
)

TRACE_HEADER = [
    "k", "e", "updated", "g1", "g2", "classification",
    "lhs", "rhs", "misalignment", "max_abs_posterior",
]

_CV_CHOICES = tuple(kind for kind in KINDS if kind != CUSTOM)
_VERIFY_TOL = 1e-8

# (flag, ScenarioConfig field, help) for the `run`/`mc` flags that set one
# field each.  Types and defaults come from the dataclass, and the summary
# echoes the fields under their flag names in this order.
_SCENARIO_FLAGS = (
    ("taps", "num_taps", "number of adaptive coefficients"),
    ("reuse", "reuse", "data-reuse factor L"),
    ("gamma-bar", "gamma_bar", "error-magnitude threshold"),
    ("delta", "delta", "Gram regularization"),
    ("noise-var", "noise_variance", "measurement-noise variance"),
    ("ar", "ar_coefficient", "input autoregression coefficient"),
    ("snr-db", "snr_db", "reference SNR target in dB"),
    ("iters", "iterations", "iterations per run"),
    ("seed", "seed", "master RNG seed"),
)
_FIELD_FLAGS = {name: flag for flag, name, _ in _SCENARIO_FLAGS}
_FIELD_TYPES = get_type_hints(ScenarioConfig)
_FIELD_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}

__all__ = [
    "TRACE_HEADER",
    "OutputBundle",
    "VerifyResult",
    "verify_update_against_kkt",
    "write_run_outputs",
    "write_mc_outputs",
    "build_parser",
    "main",
]


@dataclass(frozen=True, slots=True)
class OutputBundle:
    """Paths produced by one command invocation; unused slots stay None."""

    trace_csv_path: Optional[Path] = None
    mse_csv_path: Optional[Path] = None
    summary_text_path: Optional[Path] = None

    @property
    def paths(self) -> tuple[Path, ...]:
        return tuple(
            p
            for p in (self.trace_csv_path, self.mse_csv_path, self.summary_text_path)
            if p is not None
        )


@dataclass(frozen=True, slots=True)
class VerifyResult:
    """Worst-case gaps between the two solution routes."""

    instances: int
    max_update_gap: float
    max_posterior_gap: float
    max_identity_residual: float
    worst_index: int

    @property
    def ok(self) -> bool:
        return (
            self.max_update_gap <= _VERIFY_TOL
            and self.max_posterior_gap <= _VERIFY_TOL
            and self.max_identity_residual <= _VERIFY_TOL
        )


def _fmt(value: float) -> str:
    return repr(float(value))


def _atomic_write(path: Path, text: str) -> None:
    """Write the full text, then move it into place in one step."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _config_lines(config: ScenarioConfig, algorithm: str) -> list[str]:
    if algorithm == AP:
        lines = [f"algorithm: {algorithm}", f"mu: {_fmt(config.ap_step)}"]
    else:
        lines = [f"algorithm: {algorithm}", f"cv-strategy: {config.cv_strategy.kind}"]
    # repr of each value as its declared type: floats read as in _fmt, ints plainly
    lines += [
        f"{flag}: {_FIELD_TYPES[name](getattr(config, name))!r}"
        for flag, name, _ in _SCENARIO_FLAGS
    ]
    if algorithm != AP and config.cv_strategy.kind == NOISE:
        lines.append(f"noise-scale: {_fmt(config.cv_strategy.scale)}")
    return lines


def write_run_outputs(
    trace: RunTrace, config: ScenarioConfig, algorithm: str, out_dir: Path
) -> OutputBundle:
    """Write ``trace.csv`` and ``summary.txt`` for one run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for k in range(trace.errors.size):
        rec = trace.local_records[k]
        div = trace.divergence_records[k]
        rows.append([
            k,
            _fmt(trace.errors[k]),
            int(trace.update_flags[k]),
            _fmt(rec.g1),
            _fmt(rec.g2),
            rec.classification,
            _fmt(rec.lhs),
            _fmt(rec.rhs),
            _fmt(trace.misalignment[k + 1]),
            _fmt(div.max_abs_posterior),
        ])
    trace_path = out_dir / "trace.csv"
    _atomic_write(trace_path, _csv_text(TRACE_HEADER, rows))
    report = trace.global_report
    updates = int(trace.update_flags.sum())
    lines = ["command: run", *_config_lines(config, algorithm)]
    lines += [
        f"updates: {updates}",
        f"update-rate: {_fmt(trace.update_rate)}",
        f"robustness-violations: {report.condition_violations}",
        f"cv-relaxations: {trace.cv_relaxations}",
        f"global-energy-ratio: {_fmt(report.ratio)}",
        f"final-misalignment: {_fmt(trace.misalignment[-1])}",
        f"steady-state-mse-db: {_fmt(steady_state_db(trace.squared_error))}",
    ]
    summary_path = out_dir / "summary.txt"
    _atomic_write(summary_path, "\n".join(lines) + "\n")
    return OutputBundle(trace_csv_path=trace_path, summary_text_path=summary_path)


def write_mc_outputs(
    results: list[tuple[str, ScenarioConfig, str, MonteCarloSummary]],
    runs: int,
    out_dir: Path,
) -> OutputBundle:
    """Write ``mse.csv`` (one column per configuration) and ``summary.txt``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = [label for label, _, _, _ in results]
    iters = results[0][3].mse_curve.size
    rows = [
        [k] + [_fmt(summary.mse_curve[k]) for _, _, _, summary in results]
        for k in range(iters)
    ]
    mse_path = out_dir / "mse.csv"
    _atomic_write(mse_path, _csv_text(["k"] + labels, rows))
    lines = ["command: mc", f"runs: {runs}"]
    for label, config, algorithm, summary in results:
        lines.append("")
        lines.append(f"[{label}]")
        lines.extend(_config_lines(config, algorithm))
        lines += [
            f"mean-update-rate: {_fmt(summary.mean_update_rate)}",
            f"mean-robustness-violations: {_fmt(summary.mean_violation_count)}",
            f"mean-cv-relaxations: {_fmt(summary.mean_cv_relaxations)}",
            f"steady-state-mse-db: {_fmt(summary.steady_state_mse_db)}",
        ]
    summary_path = out_dir / "summary.txt"
    _atomic_write(summary_path, "\n".join(lines) + "\n")
    return OutputBundle(mse_csv_path=mse_path, summary_text_path=summary_path)


def verify_update_against_kkt(
    instances: int, num_taps: int, max_reuse: int, seed: int
) -> VerifyResult:
    """Drive random updating steps through both solution routes.

    Each instance draws a random system, data window and in-band
    constraint vector, takes one unregularized gated step, and compares
    the coefficients against the stacked-system route.  The posterior
    errors are compared against their target and the per-step energy
    identity is evaluated on the same step.
    """
    if instances < 0:
        raise InvalidInputError(f"instance count must be nonnegative, got {instances}")
    if not 0 <= max_reuse < num_taps:
        raise InvalidInputError(
            f"largest reuse factor must lie in [0, {num_taps - 1}], got {max_reuse}"
        )
    rng = np.random.default_rng(seed)
    max_update = 0.0
    max_post = 0.0
    max_resid = 0.0
    worst_gap = -1.0
    worst_index = -1
    produced = 0
    while produced < instances:
        reuse = produced % (max_reuse + 1)
        X = rng.standard_normal((num_taps, reuse + 1))
        w_prev = rng.standard_normal(num_taps)
        w_true = rng.standard_normal(num_taps)
        noise = rng.normal(0.0, 0.1, reuse + 1)
        d = X.T @ w_true + noise
        e0 = float(d[0] - X[:, 0] @ w_prev)
        if e0 == 0.0:
            continue
        gamma_bar = 0.5 * abs(e0)  # guarantees the gate fires
        cv = rng.uniform(-gamma_bar, gamma_bar, reuse + 1)
        window = DataWindow(X, d, noise)
        state = FilterState(w_prev)
        new_state, outcome = filters.smap_update(state, window, cv, gamma_bar, 0.0)
        w_kkt = solve_constrained(ConstrainedLSProblem(X, d, w_prev, cv))
        update_gap = float(np.max(np.abs(new_state.w - w_kkt)))
        post_gap = float(np.max(np.abs(outcome.posterior_errors - cv)))
        record = robustness.local_check(w_true, state, new_state, window, cv, True, 0.0)
        resid = record.identity_residual / max(1.0, record.g2)
        max_update = max(max_update, update_gap)
        max_post = max(max_post, post_gap)
        max_resid = max(max_resid, resid)
        combined = max(update_gap, post_gap, resid)
        if combined > worst_gap:
            worst_gap = combined
            worst_index = produced
        produced += 1
    return VerifyResult(instances, max_update, max_post, max_resid, worst_index)


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    for flag, name, help_text in _SCENARIO_FLAGS:
        sub.add_argument(f"--{flag}", dest=name, type=_FIELD_TYPES[name],
                         default=_FIELD_DEFAULTS[name], help=help_text)
    sub.add_argument("--cv", choices=_CV_CHOICES, default="fixed",
                     help="constraint-vector strategy")
    sub.add_argument("--noise-scale", type=float, default=1.0,
                     help="multiplier for the noise strategy")
    sub.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    sub.add_argument("--config", type=Path, default=None,
                     help="key=value file supplying flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smap",
        description="Set-membership affine projection experiments with energy-conservation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="trace a single run")
    _add_scenario_flags(run_p)
    run_p.add_argument("--mu", type=float, default=None,
                       help="run the plain projection baseline with this step size (ignores --cv)")
    run_p.set_defaults(func=cmd_run, subparser=run_p)

    mc_p = sub.add_parser("mc", help="average a Monte-Carlo ensemble")
    _add_scenario_flags(mc_p)
    mc_p.add_argument("--runs", type=int, default=100, help="independent runs per configuration")
    mc_p.add_argument("--algos", type=str, default="smap:fixed,smap:sccv,smap:noise",
                      help="comma-separated configurations, e.g. smap:sccv, ap:0.9, "
                           "or smap for the --cv strategy")
    mc_p.set_defaults(func=cmd_mc, subparser=mc_p)

    verify_p = sub.add_parser("verify", help="cross-check the update against the stacked solver")
    verify_p.add_argument("--instances", type=int, default=1000, help="random instances to sweep")
    verify_p.add_argument("--taps", type=int, default=10, help="number of adaptive coefficients")
    verify_p.add_argument("--max-reuse", type=int, default=2, help="largest reuse factor to cycle")
    verify_p.add_argument("--seed", type=int, default=0, help="sweep RNG seed")
    verify_p.add_argument("--config", type=Path, default=None,
                          help="key=value file supplying flag defaults")
    verify_p.set_defaults(func=cmd_verify, subparser=verify_p)
    return parser


def _config_tokens(path: Path) -> list[str]:
    """Turn each ``key = value`` line of a configuration file into ``--key=value``."""
    tokens = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        tokens.append(f"--{key.strip()}={value.strip()}")
    return tokens


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        **{name: getattr(args, name) for _, name, _ in _SCENARIO_FLAGS},
        cv_strategy=ConstraintStrategy(args.cv, args.noise_scale),
        ap_step=getattr(args, "mu", None),
    )


def cmd_run(args: argparse.Namespace) -> int:
    algorithm = AP if args.mu is not None else SMAP
    config = _scenario_from_args(args)
    trace = run_single(config, algorithm, run_rng(config.seed, 0))
    bundle = write_run_outputs(trace, config, algorithm, args.out_dir)
    updates = int(trace.update_flags.sum())
    print(f"updates: {updates}/{config.iterations} (rate {trace.update_rate:.4f})")
    print(f"robustness violations: {trace.global_report.condition_violations}")
    if trace.cv_relaxations:
        print(f"constraint relaxations: {trace.cv_relaxations}")
    print(f"global energy ratio: {trace.global_report.ratio:.6f}")
    print("wrote " + ", ".join(str(p) for p in bundle.paths))
    return 0


def _parse_algo_token(token: str, base: ScenarioConfig) -> tuple[str, ScenarioConfig]:
    name, _, arg = token.partition(":")
    if name == SMAP:
        if not arg:  # a bare token takes --cv and --noise-scale
            return SMAP, base
        return SMAP, replace(base, cv_strategy=ConstraintStrategy(arg, base.cv_strategy.scale))
    if name == AP:
        try:
            mu = float(arg)
        except ValueError:
            raise InvalidInputError(f"bad step size in {token!r}") from None
        return AP, replace(base, ap_step=mu)
    raise InvalidInputError(f"unknown algorithm in {token!r}")


def cmd_mc(args: argparse.Namespace) -> int:
    tokens = [t.strip() for t in args.algos.split(",") if t.strip()]
    if not tokens:
        raise InvalidInputError("--algos must name at least one configuration")
    if len(set(tokens)) != len(tokens):
        raise InvalidInputError("--algos lists a configuration twice")
    base = _scenario_from_args(args)
    # every token is checked before the first ensemble runs
    plan = [(token, *_parse_algo_token(token, base)) for token in tokens]
    results = []
    for token, algorithm, config in plan:
        summary = run_monte_carlo(config, algorithm, args.runs)
        results.append((token, config, algorithm, summary))
        print(
            f"{token}: update-rate {summary.mean_update_rate:.4f}  "
            f"violations {summary.mean_violation_count:.2f}  "
            f"steady-state {summary.steady_state_mse_db:.2f} dB"
        )
    bundle = write_mc_outputs(results, args.runs, args.out_dir)
    print("wrote " + ", ".join(str(p) for p in bundle.paths))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    result = verify_update_against_kkt(args.instances, args.taps, args.max_reuse, args.seed)
    print(f"instances: {result.instances}")
    print(f"max coefficient gap:      {result.max_update_gap:.3e}")
    print(f"max posterior-target gap: {result.max_posterior_gap:.3e}")
    print(f"max identity residual:    {result.max_identity_residual:.3e} (relative)")
    if result.ok:
        print("verification passed")
        return 0
    print(
        f"verification FAILED at instance {result.worst_index} (seed {args.seed})",
        file=sys.stderr,
    )
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            tokens = _config_tokens(args.config)
        except (OSError, ValueError) as err:
            args.subparser.error(str(err))
        # argv[0] is the subcommand.  File values go right after it so that
        # every command-line flag, abbreviated or not, comes later and wins.
        # The command line alone parsed cleanly, so anything left is the file's.
        args, unknown = parser.parse_known_args(argv[:1] + tokens + argv[1:])
        if unknown:
            args.subparser.error(f"{args.config}: unknown keys: {' '.join(unknown)}")
    try:
        return args.func(args)
    except InvalidInputError as err:
        flag = _FIELD_FLAGS.get(err.field)
        args.subparser.error(f"argument --{flag}: {err}" if flag else str(err))
    except SmapError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

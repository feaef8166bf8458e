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
from functools import partial
from itertools import chain, count
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import filters, robustness
from .constrained_ls import ConstrainedLSProblem, solve_constrained
from .constraints import CUSTOM, KINDS, NOISE, ConstraintStrategy
from .errors import InvalidInputError, SmapError, fits_array, integer, require
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
_BLOCK_ROWS = 2048  # table rows formatted and written at a time

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
        paths = (self.trace_csv_path, self.mse_csv_path, self.summary_text_path)
        return tuple(p for p in paths if p is not None)


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


def _column(values) -> list[str]:
    """``_fmt`` of every value, formatted as one column."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _atomic_write(path: Path, chunks) -> None:
    """Write the text chunks in turn, then move the file into place in one step."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _check_out_dir(out_dir: Path) -> None:
    """Reject an ``out_dir`` that names a file, a dangling link, or a path under one;
    create nothing."""
    existing = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
    require(
        existing.is_dir(), "out_dir",
        f"cannot write into {str(out_dir)!r}: {str(existing)!r} is not a directory",
    )


def _write_outputs(
    out_dir: Path, table: str, header: list[str], size: int, rows, lines
) -> tuple[Path, Path]:
    """Write ``table`` and ``summary.txt`` into ``out_dir``; return both paths.  The
    header goes through ``csv``, as a label can need quoting.  ``rows(start, stop)``
    gives the table's rows ``start`` to ``stop - 1`` as formatted numbers, which need
    no quoting; they are asked for ``_BLOCK_ROWS`` at a time and joined by commas as
    they are written, so the text in memory is one block's, whatever ``size`` is."""
    out_dir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    blocks = (rows(i, min(i + _BLOCK_ROWS, size)) for i in range(0, size, _BLOCK_ROWS))
    text = (",".join(row) + "\n" for row in chain.from_iterable(blocks))
    table_path, summary_path = out_dir / table, out_dir / "summary.txt"
    _atomic_write(table_path, chain([buf.getvalue()], text))
    _atomic_write(summary_path, ["\n".join(lines) + "\n"])
    return table_path, summary_path


def _config_lines(config: ScenarioConfig, algorithm: str) -> list[str]:
    if algorithm == AP:
        lines = [f"algorithm: {algorithm}", f"mu: {config.ap_step!r}"]
    else:
        lines = [f"algorithm: {algorithm}", f"cv-strategy: {config.cv_strategy.kind}"]
    lines += [f"{flag}: {getattr(config, name)!r}" for flag, name, _ in _SCENARIO_FLAGS]
    if algorithm != AP and config.cv_strategy.kind == NOISE:
        lines.append(f"noise-scale: {config.cv_strategy.scale!r}")
    return lines


def write_run_outputs(
    trace: RunTrace, config: ScenarioConfig, algorithm: str, out_dir: Path, run_index: int = 0
) -> OutputBundle:
    """Write ``trace.csv`` and ``summary.txt`` for one run, run ``run_index`` of its seed."""
    report = trace.global_report
    updates = int(trace.update_flags.sum())
    lines = ["command: run", *_config_lines(config, algorithm)]
    if run_index:
        lines.append(f"run-index: {run_index}")
    lines += [
        f"updates: {updates}",
        f"update-rate: {_fmt(trace.update_rate)}",
        f"robustness-violations: {report.condition_violations}",
        f"cv-relaxations: {trace.cv_relaxations}",
        f"global-energy-ratio: {_fmt(report.ratio)}",
        f"final-misalignment: {_fmt(trace.misalignment[-1])}",
        f"steady-state-mse-db: {_fmt(steady_state_db(trace.errors, square=True))}",
    ]
    trace_path, summary_path = _write_outputs(
        out_dir, "trace.csv", TRACE_HEADER, trace.errors.size, partial(_run_rows, trace), lines
    )
    return OutputBundle(trace_csv_path=trace_path, summary_text_path=summary_path)


def _run_rows(trace: RunTrace, start: int, stop: int):
    """Yield rows ``start`` to ``stop - 1`` of ``trace.csv``.  A quiet step's record
    holds the unchanged misalignment in both sums and zeros in both terms (see
    ``local_check``), so only the updating steps' records are read.  Every row's
    misalignment after its step is read from ``trace.misalignment``."""
    steps = slice(start, stop)
    flags = trace.update_flags[steps]
    moved = [trace.local_records[k] for k in (np.flatnonzero(flags) + start).tolist()]
    terms = [(rec.g1, rec.g2, rec.lhs, rec.rhs) for rec in moved]
    updates = zip(*map(_column, np.reshape(terms, (-1, 4)).T), [r.classification for r in moved])
    errors, posterior = _column(trace.errors[steps]), _column(trace.max_abs_posterior[steps])
    after = _column(trace.misalignment[start + 1 : stop + 1])  # each step's misalignment after it
    for k, e, updated, mis, post in zip(count(start), errors, flags.tolist(), after, posterior):
        if updated:
            g1, g2, lhs, rhs, label = next(updates)
            yield str(k), e, "1", g1, g2, label, lhs, rhs, mis, post
        else:
            yield str(k), e, "0", mis, mis, robustness.NO_UPDATE, "0.0", "0.0", mis, post


def write_mc_outputs(
    results: list[tuple[str, ScenarioConfig, str, MonteCarloSummary]],
    runs: int,
    out_dir: Path,
) -> OutputBundle:
    """Write ``mse.csv`` (one column per configuration) and ``summary.txt``."""
    lengths = {s.mse_curve.size for *_, s in results}
    require(
        len(lengths) == 1, "results",
        f"results must hold one or more curves of one length, got lengths {sorted(lengths)}",
    )
    curves = [s.mse_curve for *_, s in results]
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
    header = ["k"] + [label for label, *_ in results]
    mse_path, summary_path = _write_outputs(
        out_dir, "mse.csv", header, lengths.pop(), partial(_mse_rows, curves), lines
    )
    return OutputBundle(mse_csv_path=mse_path, summary_text_path=summary_path)


def _mse_rows(curves: list[np.ndarray], start: int, stop: int):
    """Rows ``start`` to ``stop - 1`` of ``mse.csv``: the step, then each curve's point."""
    return zip(map(str, range(start, stop)), *(_column(c[start:stop]) for c in curves))


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
    instances = integer(instances, "instances", 1)
    fits_array(3 * instances, "instances", f"the gaps of {instances} instances")
    num_taps = integer(num_taps, "num_taps", 1)
    max_reuse = integer(max_reuse, "max_reuse")
    require(
        max_reuse < num_taps, "max_reuse",
        f"largest reuse factor must lie in [0, {num_taps - 1}], got {max_reuse}",
    )
    size = num_taps * (max_reuse + 1)  # the widest window's values
    fits_array(size, "num_taps", f"the widest window's {size} values")
    rng = np.random.default_rng(integer(seed, "seed"))
    gaps = []  # (coefficient gap, posterior gap, relative residual) per instance
    while len(gaps) < instances:
        reuse = len(gaps) % (max_reuse + 1)
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
        update_gap = float(np.abs(new_state.w - w_kkt).max())
        post_gap = float(np.abs(outcome.posterior_errors - cv).max())
        record = robustness.local_check(w_true, state, new_state, window, cv, True, 0.0)
        gaps.append((update_gap, post_gap, record.identity_residual / max(1.0, record.g2)))
    gaps = np.array(gaps)
    worst = gaps.max(axis=1).argmax()  # the first instance with the largest gap
    return VerifyResult(instances, *gaps.max(axis=0).tolist(), int(worst))


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    for flag, name, help_text in _SCENARIO_FLAGS:
        sub.add_argument(f"--{flag}", dest=name, type=_FIELD_TYPES[name],
                         default=_FIELD_DEFAULTS[name], help=help_text)
    sub.add_argument("--cv", choices=_CV_CHOICES, default="fixed",
                     help="constraint-vector strategy")
    sub.add_argument("--noise-scale", dest="scale", metavar="NOISE_SCALE", type=float,
                     default=1.0, help="multiplier for the noise strategy")
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
    run_p.add_argument("--mu", dest="ap_step", metavar="MU", type=float, default=None,
                       help="run the plain projection baseline with this step size (ignores --cv)")
    run_p.add_argument("--run-index", type=int, default=0, metavar="I",
                       help="draw run I of an mc ensemble with the same flags, to replay it")
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
    verify_p.add_argument("--taps", dest="num_taps", metavar="TAPS", type=int, default=10,
                          help="number of adaptive coefficients")
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
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key and "config".startswith(key):  # the command line's --config would win
            raise ValueError(f"{path}:{lineno}: configuration files do not nest, got {line!r}")
        tokens.append(f"--{key}={value}")
    return tokens


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        **{name: getattr(args, name) for _, name, _ in _SCENARIO_FLAGS},
        cv_strategy=ConstraintStrategy(args.cv, args.scale),
        ap_step=getattr(args, "ap_step", None),
    )


def cmd_run(args: argparse.Namespace) -> int:
    algorithm = AP if args.ap_step is not None else SMAP
    config = _scenario_from_args(args)
    _check_out_dir(args.out_dir)  # before the run, which a bad --out-dir would waste
    trace = run_single(config, algorithm, run_rng(config.seed, args.run_index))
    bundle = write_run_outputs(trace, config, algorithm, args.out_dir, args.run_index)
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
    try:
        if name == SMAP:  # a bare token names the --cv kind
            kind = arg or base.cv_strategy.kind
            require(kind in _CV_CHOICES, "algos",
                    f"invalid choice: {kind!r} (choose from {', '.join(map(repr, _CV_CHOICES))})")
            return SMAP, replace(base, cv_strategy=ConstraintStrategy(kind, base.cv_strategy.scale))
        if name == AP:
            return AP, replace(base, ap_step=float(arg))
    except ValueError as err:  # the library's rejection, or a step size that is no number
        raise InvalidInputError(f"{token!r}: {err}", field="algos") from None
    raise InvalidInputError(f"unknown algorithm in {token!r}", field="algos")


def cmd_mc(args: argparse.Namespace) -> int:
    tokens = [t.strip() for t in args.algos.split(",") if t.strip()]
    require(tokens, "algos", "names no configuration")
    base = _scenario_from_args(args)
    # every token is checked before the first ensemble runs, and keyed by what it runs
    plan = {_parse_algo_token(token, base): token for token in tokens}
    require(len(plan) == len(tokens), "algos", "lists a configuration twice")
    _check_out_dir(args.out_dir)
    results = []
    for (algorithm, config), token in plan.items():
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
    result = verify_update_against_kkt(args.instances, args.num_taps, args.max_reuse, args.seed)
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
        # each flag's dest is the library's name for the value it sets
        action = next((a for a in args.subparser._actions if a.dest == err.field), None)
        args.subparser.error(str(argparse.ArgumentError(action, str(err))))
    except SmapError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

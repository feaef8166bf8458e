"""Outside-in layer tracing: time calls into each smap module from here.

Spans are recorded by wrapping public functions at the place where the
caller looks the name up.  ``sim``, ``filters`` and ``robustness`` bind
their helpers with ``from .linalg import gram``, so each caller module
holds its own name for the function and patching ``smap.linalg.gram``
alone would record nothing; the table below patches every such binding.
The package source is never modified, and ``Tracer.installed`` restores
every original on exit, so untraced runs carry no tracing cost.

Spans are aggregated in memory as they close: per span name the call
count, the inclusive time, and the self time (inclusive time minus the
time covered by direct child spans).
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator, Union

SpanName = Union[str, Callable[[tuple], str]]


def _local_check_span(args: tuple) -> str:
    # local_check(w0, state_before, state_after, window, cv, updated, ...)
    return "local_check_update" if args[5] else "local_check_skip"


# (module holding the binding, attribute, layer, span name)
PATCHES: tuple[tuple[str, str, str, SpanName], ...] = (
    ("smap.sim", "run_monte_carlo", "sim", "run_monte_carlo"),
    ("smap.sim", "run_single", "sim", "run_single"),
    ("smap.sim", "run_rng", "sim", "run_rng"),
    ("smap.sim", "generate_system", "sim", "generate_system"),
    ("smap.sim", "generate_signals", "sim", "generate_signals"),
    ("smap.sim", "DataWindow", "filters", "window"),
    ("smap.sim", "error_vector", "filters", "error_vector"),
    ("smap.sim", "smap_update", "filters", "smap_update"),
    ("smap.sim", "ap_update", "filters", "ap_update"),
    ("smap.sim", "make_cv", "constraints", "make_cv"),
    ("smap.sim", "satisfies_bound", "constraints", "satisfies_bound"),
    ("smap.sim", "local_check", "robustness", _local_check_span),
    ("smap.sim", "divergence_monitor", "robustness", "divergence_monitor"),
    ("smap.sim", "global_accumulate", "robustness", "global_accumulate"),
    ("smap.filters", "error_vector", "filters", "error_vector"),
    ("smap.filters", "gram", "linalg", "gram"),
    ("smap.filters", "solve_spd", "linalg", "solve_spd"),
    # the CLI calls filters.smap_update and robustness.local_check as
    # module attributes, so those bindings are the modules' own
    ("smap.filters", "smap_update", "filters", "smap_update"),
    ("smap.robustness", "local_check", "robustness", _local_check_span),
    ("smap.robustness", "gram", "linalg", "gram"),
    ("smap.robustness", "solve_spd", "linalg", "solve_spd"),
    ("smap.cli", "DataWindow", "filters", "window"),
    ("smap.cli", "ConstrainedLSProblem", "constrained_ls", "problem"),
    ("smap.cli", "solve_constrained", "constrained_ls", "solve_constrained"),
    ("smap.cli", "verify_update_against_kkt", "cli", "verify_update_against_kkt"),
    ("smap.cli", "write_run_outputs", "cli", "write_run_outputs"),
    ("smap.cli", "write_mc_outputs", "cli", "write_mc_outputs"),
)


class Tracer:
    """Span statistics for every patched call made while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.updates = 0  # gated steps that moved the filter (SM-AP and AP)
        self.gate_fires = 0  # smap_update calls whose gate fired
        self.run_steps = 0  # iterations driven by run_single
        self.trace_csv_bytes = 0  # size of the last trace.csv written
        self._stack: list[float] = []

    def counts(self) -> dict:
        """A copy of the exact counters, for per-chunk snapshots."""
        return {
            "calls": dict(self.calls),
            "updates": self.updates,
            "gate_fires": self.gate_fires,
            "trace_csv_bytes": self.trace_csv_bytes,
        }

    def _observe(self, span: str, args: tuple, result) -> None:
        if span == "smap_update" and result[1].updated:
            self.updates += 1
            self.gate_fires += 1
        elif span == "ap_update":
            self.updates += 1
        elif span == "run_single":
            self.run_steps += args[0].iterations
        elif span == "write_run_outputs":
            self.trace_csv_bytes = result.trace_csv_path.stat().st_size

    def _wrap(self, fn: Callable, layer: str, span: SpanName) -> Callable:
        stack = self._stack
        observed = {"smap_update", "ap_update", "run_single", "write_run_outputs"}

        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(args)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
                self.layer_self[layer] += elapsed - children
            if name in observed:
                self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every binding in ``PATCHES`` and restore them on exit."""
        saved = []
        try:
            for module_name, attr, layer, span in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, layer, span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def unpatched() -> bool:
    """True when no binding in ``PATCHES`` holds a tracing wrapper."""
    for module_name, attr, _, _ in PATCHES:
        if hasattr(getattr(importlib.import_module(module_name), attr), "__wrapped__"):
            return False
    return True


def _per_call(tracer: Tracer, span: str, scale: float) -> float:
    calls = tracer.calls.get(span, 0)
    return tracer.inclusive[span] / calls * scale if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    first: dict,
    traced_wall: float,
    trace_bytes_per_step: float,
    overhead_frac: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Times are means over every traced call; counts and the ratios built
    from them come from ``first``, the counters of the first traced
    chunk, so they repeat exactly for a given seed.  Self fractions are
    shares of ``traced_wall``, the wall time of all traced chunks.
    """
    us, ms = 1e6, 1e3
    calls = first["calls"]

    def self_frac(layer: str) -> float:
        return _ratio(tracer.layer_self[layer], traced_wall)

    return {
        "linalg.gram_us": (_per_call(tracer, "gram", us), "us"),
        "linalg.gram_calls": (calls.get("gram", 0), "count"),
        "linalg.solve_spd_us": (_per_call(tracer, "solve_spd", us), "us"),
        "linalg.solve_spd_calls": (calls.get("solve_spd", 0), "count"),
        "linalg.grams_per_update": (_ratio(calls.get("gram", 0), first["updates"]), "ratio"),
        "linalg.self_frac": (self_frac("linalg"), "frac"),
        "filters.window_us": (_per_call(tracer, "window", us), "us"),
        "filters.error_vector_us": (_per_call(tracer, "error_vector", us), "us"),
        "filters.smap_update_us": (_per_call(tracer, "smap_update", us), "us"),
        "filters.smap_update_calls": (calls.get("smap_update", 0), "count"),
        "filters.ap_update_us": (_per_call(tracer, "ap_update", us), "us"),
        "filters.gate_fire_ratio": (
            _ratio(first["gate_fires"], calls.get("smap_update", 0)), "ratio"
        ),
        "filters.self_frac": (self_frac("filters"), "frac"),
        "robustness.local_check_update_us": (_per_call(tracer, "local_check_update", us), "us"),
        "robustness.local_check_skip_us": (_per_call(tracer, "local_check_skip", us), "us"),
        "robustness.divergence_monitor_us": (_per_call(tracer, "divergence_monitor", us), "us"),
        "robustness.global_accumulate_ms": (_per_call(tracer, "global_accumulate", ms), "ms"),
        "robustness.self_frac": (self_frac("robustness"), "frac"),
        "constraints.make_cv_us": (_per_call(tracer, "make_cv", us), "us"),
        "constraints.make_cv_calls": (calls.get("make_cv", 0), "count"),
        "constraints.self_frac": (self_frac("constraints"), "frac"),
        "sim.generate_signals_us": (_per_call(tracer, "generate_signals", us), "us"),
        "sim.run_self_us_per_step": (
            _ratio(tracer.self_time["run_single"], tracer.run_steps) * us, "us"
        ),
        "sim.trace_bytes_per_step": (trace_bytes_per_step, "B"),
        "sim.self_frac": (self_frac("sim"), "frac"),
        "constrained_ls.solve_us": (_per_call(tracer, "solve_constrained", us), "us"),
        "constrained_ls.solve_calls": (calls.get("solve_constrained", 0), "count"),
        "constrained_ls.self_frac": (self_frac("constrained_ls"), "frac"),
        "cli.write_run_outputs_ms": (_per_call(tracer, "write_run_outputs", ms), "ms"),
        "cli.trace_csv_bytes": (first["trace_csv_bytes"], "B"),
        "cli.write_mc_outputs_ms": (_per_call(tracer, "write_mc_outputs", ms), "ms"),
        "cli.self_frac": (self_frac("cli"), "frac"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }

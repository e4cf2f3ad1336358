"""Every metric the benchmark reports: name, unit, which way is better, and
how it is computed. BENCHMARK.json lists the same names; the smoke test
checks that the two agree.

End-to-end metrics come from untraced passes. Per-layer metrics come from
the traced passes of a ``--trace 1`` run and are given per pass: span calls,
busy and self seconds are summed over the traced passes and divided by
their number, throughputs are work units over busy seconds.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from tracer import SpanStats, Tracer

LAYERS = ("polymer", "rngs", "environment", "walks", "collisions", "harness",
          "chaos", "kernels", "ustat", "cli")

# (name, unit, better); the bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class TracedRun:
    tracer: Tracer
    traced_walls: list
    untraced_walls: list
    attempted: int
    failed: int
    verdicts_evaluated: int
    verdicts_failed: int

    def span(self, name: str) -> SpanStats:
        return self.tracer.stats.get(name) or SpanStats()

    @property
    def passes(self) -> int:
        return len(self.traced_walls)


def _calls(span):
    return lambda r: r.span(span).calls / r.passes


def _busy(span):
    return lambda r: r.span(span).busy_s / r.passes


def _self(span):
    return lambda r: r.span(span).self_s / r.passes


def _units(span):
    return lambda r: r.span(span).units / r.passes


def _rate(span):
    def rate(r):
        st = r.span(span)
        return st.units / st.busy_s if st.busy_s > 0 else 0.0
    return rate


def _quantile_us(span, q):
    def quantile(r):
        d = sorted(r.span(span).durations)
        if not d:
            return 0.0
        return d[min(len(d) - 1, math.ceil(q * len(d)) - 1)] * 1e6
    return quantile


def _share(layer):
    def share(r):
        own = sum(st.self_s for name, st in r.tracer.stats.items()
                  if name.split(".", 1)[0] == layer)
        return own / sum(r.traced_walls)
    return share


def _calls_per_ensemble(r):
    calls = r.span("collisions.detect_collisions").calls
    return calls / r.tracer.ensembles if r.tracer.ensembles else 0.0


def _span_metrics(span, *kinds, rate_unit=None, rate_name=None):
    table = {
        "calls": ("count", "lower", _calls(span)),
        "busy_s": ("s", "lower", _busy(span)),
        "self_s": ("s", "lower", _self(span)),
    }
    out = [(f"{span}.{kind}", *table[kind]) for kind in kinds]
    if rate_unit:
        out.append((f"{span}.{rate_name}", rate_unit, "higher", _rate(span)))
    return out


DS = "collisions.detect_collisions"
CLI_OPS = ("partition", "collisions", "convergence.k3", "convergence.k4", "tightness",
           "expmoment", "chaos", "kernels-check", "ustat-check")

# (name, unit, better, fn(TracedRun) -> float)
PER_LAYER = (
    *((f"{layer}.share", "frac", "lower", _share(layer)) for layer in LAYERS),
    *_span_metrics("polymer.partition_samples", "calls", "busy_s", "self_s",
                   rate_unit="cells/s", rate_name="cells_per_s"),
    *_span_metrics("polymer.partition_many", "calls", "busy_s",
                   rate_unit="cells/s", rate_name="cells_per_s"),
    *_span_metrics("polymer.chaos_terms", "calls", "busy_s",
                   rate_unit="cells/s", rate_name="cells_per_s"),
    *_span_metrics("polymer.collision_weights", "calls", "busy_s"),
    *_span_metrics("rngs.splitmix64", "calls", "busy_s"),
    *_span_metrics("rngs.substream", "calls", "busy_s"),
    *_span_metrics("environment.amplitude", "calls", "busy_s"),
    *_span_metrics("environment.omega_at", "calls", "busy_s",
                   rate_unit="cells/s", rate_name="cells_per_s"),
    *_span_metrics("walks.sample_ensemble", "calls", "busy_s"),
    *_span_metrics("walks.positions_from_steps", "busy_s",
                   rate_unit="steps/s", rate_name="steps_per_s"),
    *_span_metrics(DS, "calls", "busy_s", "self_s"),
    (f"{DS}.p50_us", "us", "lower", _quantile_us(DS, 0.50)),
    (f"{DS}.p99_us", "us", "lower", _quantile_us(DS, 0.99)),
    (f"{DS}.calls_per_ensemble", "count", "lower", _calls_per_ensemble),
    *_span_metrics("collisions.integrate", "calls", "busy_s"),
    *_span_metrics("harness.collision_statistics.k3", "calls", "busy_s", "self_s",
                   rate_unit="steps/s", rate_name="walk_steps_per_s"),
    *_span_metrics("harness.collision_statistics.k4", "calls", "busy_s", "self_s",
                   rate_unit="steps/s", rate_name="walk_steps_per_s"),
    *_span_metrics("harness.local_time_counts", "busy_s", "self_s",
                   rate_unit="steps/s", rate_name="walk_steps_per_s"),
    *_span_metrics("harness.ks_two_sample", "calls", "busy_s"),
    *_span_metrics("chaos.simulate_Z_batch.T32", "calls", "busy_s",
                   rate_unit="replicas/s", rate_name="replicas_per_s"),
    *_span_metrics("chaos.simulate_Z_batch.T64", "calls", "busy_s",
                   rate_unit="replicas/s", rate_name="replicas_per_s"),
    *_span_metrics("chaos.estimate_Z_moments", "busy_s", "self_s"),
    *_span_metrics("kernels.chain_norm_sq_mc", "busy_s",
                   rate_unit="samples/s", rate_name="samples_per_s"),
    *_span_metrics("kernels.local_clt_l2_error", "busy_s",
                   rate_unit="samples/s", rate_name="samples_per_s"),
    ("kernels.block_average_cells.points", "count", "lower",
     _units("kernels.block_average_cells")),
    *_span_metrics("kernels.block_average_cells", "busy_s",
                   rate_unit="points/s", rate_name="points_per_s"),
    ("ustat.build_cell_table.tuples", "count", "lower", _units("ustat.build_cell_table")),
    *_span_metrics("ustat.build_cell_table", "busy_s"),
    *_span_metrics("ustat.evaluate_table", "calls", "busy_s",
                   rate_unit="evals/s", rate_name="tuple_evals_per_s"),
    *_span_metrics("ustat.ustat_moment_suite", "self_s"),
    *((f"cli.{op}.s", "s", "lower", _busy(f"cli.{op}")) for op in CLI_OPS),
    *_span_metrics("cli.write_outputs", "busy_s"),
    ("gate.failed_frac", "frac", "lower", lambda r: r.failed / r.attempted),
    ("gate.verdict_fail_frac", "frac", "lower",
     lambda r: r.verdicts_failed / r.verdicts_evaluated if r.verdicts_evaluated else 0.0),
    ("trace.wall_s", "s", "lower", lambda r: statistics.median(r.traced_walls)),
    ("trace.overhead_frac", "frac", "lower",
     lambda r: statistics.median(r.traced_walls) / statistics.median(r.untraced_walls) - 1.0),
)


def per_layer(run: TracedRun) -> dict:
    return {name: {"value": float(fn(run)), "unit": unit} for name, unit, _, fn in PER_LAYER}

"""Spans around public collisim calls, recorded from outside the package.

Each target is a module attribute (or class attribute) under the name the
caller looks up, e.g. ``collisim.harness.partition_samples`` is what
``partition_experiment`` calls. ``Tracer.install`` swaps in a timing
wrapper and ``uninstall`` puts the original back, so untraced passes run
the unmodified code. Spans nest: a span's self time is its duration minus
the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from dataclasses import dataclass, field


def transfer_cells(horizon: int) -> int:
    """Nominal transfer-recursion cells for one environment: sum_{n=1..N} (n+1).

    Independent of any band restriction, so a banded kernel shows up as a
    higher cells_per_s rather than as less work.
    """
    return horizon * (horizon + 1) // 2 + horizon


def _broadcast_size(*arrays) -> int:
    import numpy as np

    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _partition_samples_units(a):
    return a["n_replicas"] * transfer_cells(a["horizon"])


def _partition_many_units(a):
    import numpy as np

    return np.atleast_1d(np.asarray(a["seeds"])).size * transfer_cells(a["horizon"])


def _chaos_terms_units(a):
    horizon = a["horizon"]
    order = horizon if a.get("max_order") is None else min(a["max_order"], horizon)
    return (order + 1) * transfer_cells(horizon)


def _block_average_units(a):
    import numpy as np

    m, n = np.atleast_2d(np.asarray(a["i"])).shape
    return m * a.get("nodes", 4) ** (2 * n)


@dataclass(frozen=True)
class Target:
    """One wrapped attribute. ``name`` is the span name, or a function of
    the bound arguments for spans split by an argument (k, grid size).
    ``units(args)`` counts work done; ``result_units(result)`` counts it
    from the return value instead."""

    owner: str
    attr: str
    name: object
    units: object = None
    result_units: object = None
    method_of: str | None = None  # class name when attr is a method


TARGETS = (
    # polymer: the transfer recursion in its three copies, plus collision weights
    Target("collisim.harness", "partition_samples", "polymer.partition_samples",
           _partition_samples_units),
    Target("collisim.polymer", "partition_many", "polymer.partition_many", _partition_many_units),
    Target("collisim.polymer", "chaos_terms", "polymer.chaos_terms", _chaos_terms_units),
    Target("collisim.harness", "collision_weights", "polymer.collision_weights"),
    # rngs: the cell hash and the replica streams
    Target("collisim.polymer", "splitmix64", "rngs.splitmix64"),
    Target("collisim.rngs", "splitmix64", "rngs.splitmix64"),
    Target("collisim.harness", "substream", "rngs.substream"),
    Target("collisim.chaos", "substream", "rngs.substream"),
    Target("collisim.walks", "substream", "rngs.substream"),
    # environment: amplitude fields and the hashed Rademacher field
    Target("collisim.environment", "__call__", "environment.amplitude",
           method_of="DisorderFunction"),
    Target("collisim.environment", "omega_at", "environment.omega_at",
           lambda a: _broadcast_size(a["n"], a["z"]), method_of="EnvironmentField"),
    # walks
    Target("collisim.harness", "sample_ensemble", "walks.sample_ensemble"),
    Target("collisim.harness", "positions_from_steps", "walks.positions_from_steps",
           lambda a: int(a["steps"].size)),
    # collisions: the per-ensemble measure path
    Target("collisim.harness", "detect_collisions", "collisions.detect_collisions"),
    Target("collisim.polymer", "detect_collisions", "collisions.detect_collisions"),
    Target("collisim.harness", "integrate", "collisions.integrate"),
    Target("collisim.polymer", "integrate", "collisions.integrate"),
    # harness: batched estimators and the experiments cli.dispatch calls
    Target("collisim.harness", "collision_statistics",
           lambda a: f"harness.collision_statistics.k{a['k']}",
           lambda a: a["n_replicas"] * a["k"] * a["horizon"]),
    Target("collisim.harness", "local_time_counts", "harness.local_time_counts",
           lambda a: a["n_replicas"] * a["horizon"]),
    Target("collisim.harness", "ks_two_sample", "harness.ks_two_sample"),
    *(Target("collisim.harness", fn, f"harness.{fn}") for fn in (
        "partition_experiment", "collision_experiment", "convergence_study",
        "tightness_probe", "exponential_moment_probe", "chaos_experiment",
        "kernels_check", "ustat_check")),
    # chaos: grid propagation, split by grid so T=32 and T=64 read separately
    Target("collisim.chaos", "simulate_Z_batch",
           lambda a: f"chaos.simulate_Z_batch.T{a['grid'].time_cells}",
           lambda a: a["n_replicas"]),
    Target("collisim.chaos", "estimate_Z_moments", "chaos.estimate_Z_moments"),
    # kernels: importance sampling and block-average quadrature
    Target("collisim.kernels", "chain_norm_sq_mc", "kernels.chain_norm_sq_mc",
           lambda a: a["budget"]),
    Target("collisim.kernels", "local_clt_l2_error", "kernels.local_clt_l2_error",
           lambda a: a["budget"]),
    Target("collisim.ustat", "block_average_cells", "kernels.block_average_cells",
           _block_average_units),
    # ustat: table build and per-environment evaluation
    Target("collisim.ustat", "build_cell_table", "ustat.build_cell_table",
           result_units=lambda table: len(table.weights)),
    Target("collisim.ustat", "evaluate_table", "ustat.evaluate_table",
           lambda a: len(a["table"].weights)),
    Target("collisim.ustat", "ustat_moment_suite", "ustat.ustat_moment_suite"),
    # cli
    Target("collisim.cli", "write_outputs", "cli.write_outputs"),
)


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    units: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """In-memory span recorder, kept across the traced passes of one run."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.ensembles = 0
        self._seen = weakref.WeakValueDictionary()  # id -> live ensemble
        self._stack: list[float] = []  # child time accumulated per open span
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def _record(self, name: str, duration: float, child: float, units: float):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.busy_s += duration
        st.self_s += duration - child
        st.units += units
        st.durations.append(duration)

    def _note_ensemble(self, ensemble):
        """Count each live ensemble object once, however often it is
        passed to detect_collisions."""
        if self._seen.get(id(ensemble)) is not ensemble:
            self._seen[id(ensemble)] = ensemble
            self.ensembles += 1

    def _wrap(self, fn, target: Target):
        sig = inspect.signature(fn)
        counts_ensembles = target.attr == "detect_collisions"
        needs_args = callable(target.name) or target.units is not None or counts_ensembles
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
                if counts_ensembles:
                    tracer._note_ensemble(bound["ensemble"])
            name = target.name(bound) if callable(target.name) else target.name
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if target.units is not None:
                    span.units = target.units(bound)
                elif target.result_units is not None:
                    span.units = target.result_units(result)
            return result

        return wrapper

    def install(self):
        for target in TARGETS:
            owner = importlib.import_module(target.owner)
            if target.method_of:
                owner = getattr(owner, target.method_of)
                original = owner.__dict__[target.attr]
            else:
                original = getattr(owner, target.attr)
            self._restore.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(original, target))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class _Span:
    """One open span. Work units may be set on it before it closes."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name
        self.units = 0

    def __enter__(self):
        self.tracer._stack.append(0.0)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        duration = time.perf_counter() - self.t0
        child = self.tracer._stack.pop()
        if self.tracer._stack:
            self.tracer._stack[-1] += duration
        self.tracer._record(self.name, duration, child, self.units)
        return False

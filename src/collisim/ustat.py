"""Exact evaluation of the weighted environment U-statistics and their
moment checks.

The order-n statistic sums, over tuples of n distinct times and parity-
matched sites, the block-averaged integrand times the amplitude and
disorder-sign products, scaled by 2^(n/2). Integrands must declare a
spatial support radius: that is what keeps the sums finite, and inferring
the support of a black-box callable is not decidable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .environment import DisorderFunction, EnvironmentField
from .kernels import block_average_cells
from .rngs import child_seeds

CELL_BUDGET = 100_000_000


class ComplexityGuardError(ValueError):
    """The lattice tuple count exceeds the tractability budget."""


@dataclass(frozen=True)
class Integrand:
    """g on [0,1]^n x R^n; fn maps ((m,n) times, (m,n) positions) -> (m,)."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    order: int
    support_radius: float
    symmetric: bool = False

    def __call__(self, ts, xs):
        return self.fn(np.asarray(ts, dtype=float), np.asarray(xs, dtype=float))


@dataclass(frozen=True)
class UStatSpec:
    integrand: Integrand
    horizon: int
    amplitude: DisorderFunction
    field: EnvironmentField
    quad_nodes: int = 4


@dataclass(frozen=True)
class CellTable:
    """Seed-independent part of a U-statistic: tuple cells and their
    block-average times amplitude weights."""

    times: np.ndarray    # (m, n)
    sites: np.ndarray    # (m, n)
    weights: np.ndarray  # (m,) block-averaged g times prod A
    prefactor: float     # 2^(n/2) times n! when reduced to ordered tuples
    order: int


def _site_range(horizon: int, radius: float) -> int:
    return int(math.floor(radius * math.sqrt(horizon))) + 1


def _coordinate_cells(horizon: int, radius: float):
    """All (i, z) cells with 1 <= i <= N, z parity-matched, |z| within the
    declared support window."""
    zmax = _site_range(horizon, radius)
    cells_i, cells_z = [], []
    for i in range(1, horizon + 1):
        start = -zmax if (zmax + i) % 2 == 0 else -zmax + 1
        z = np.arange(start, zmax + 1, 2, dtype=np.int64)
        cells_i.append(np.full(len(z), i, dtype=np.int64))
        cells_z.append(z)
    return np.concatenate(cells_i), np.concatenate(cells_z)


def build_cell_table(spec: UStatSpec) -> CellTable:
    g = spec.integrand
    n = g.order
    ci, cz = _coordinate_cells(spec.horizon, g.support_radius)
    n_cells = len(ci)
    if n_cells**n > CELL_BUDGET:
        raise ComplexityGuardError(
            f"{n_cells}^{n} tuple cells exceed the {CELL_BUDGET:.0e} budget")
    if g.symmetric:
        idx = np.arange(n_cells)
        if n == 1:
            tuples = idx[:, None]
        else:
            # ordered time tuples: distinct times in increasing order; the
            # full distinct-tuple sum is n! times this (integrand symmetry)
            grids = np.meshgrid(*([idx] * n), indexing="ij")
            flat = np.stack([grid.reshape(-1) for grid in grids], axis=1)
            t_cols = ci[flat]
            keep = np.all(np.diff(t_cols, axis=1) > 0, axis=1)
            tuples = flat[keep]
        prefactor = 2.0 ** (n / 2.0) * math.factorial(n)
    else:
        grids = np.meshgrid(*([np.arange(n_cells)] * n), indexing="ij")
        flat = np.stack([grid.reshape(-1) for grid in grids], axis=1)
        t_cols = ci[flat]
        if n == 1:
            keep = np.ones(len(flat), dtype=bool)
        else:
            keep = np.ones(len(flat), dtype=bool)
            for a, b in itertools.combinations(range(n), 2):
                keep &= t_cols[:, a] != t_cols[:, b]
        tuples = flat[keep]
        prefactor = 2.0 ** (n / 2.0)
    times = ci[tuples]
    sites = cz[tuples]
    gbar = block_average_cells(g, times, sites, spec.horizon, spec.quad_nodes)
    amp = np.asarray(spec.amplitude(times, sites), dtype=float)
    weights = gbar * amp.prod(axis=1)
    return CellTable(times, sites, weights, prefactor, n)


def evaluate_table(table: CellTable, field: EnvironmentField) -> float:
    signs = field.omega_at(table.times, table.sites)
    prod = np.asarray(signs, dtype=float).prod(axis=1)
    return float(table.prefactor * (table.weights * prod).sum())


def u_statistic(spec: UStatSpec) -> float:
    """Exact order-n statistic for the given integrand, amplitude, and
    environment field."""
    return evaluate_table(build_cell_table(spec), spec.field)


def exact_second_moment(spec: UStatSpec) -> float:
    """E over environments of S^N_n(g)^2, by the surviving sign pairings:
    tuples whose cell sets coincide, i.e. permutations of one another."""
    g = spec.integrand
    n = g.order
    table = build_cell_table(spec)
    if g.symmetric:
        # E[S^2] = 2^n n!^2 sum over ordered tuples of w^2
        return float(2.0**n * math.factorial(n) ** 2 * (table.weights**2).sum())
    lookup = {}
    for row, (ts, zs) in enumerate(zip(table.times, table.sites)):
        lookup[tuple(zip(ts.tolist(), zs.tolist()))] = row
    total = 0.0
    for row, (ts, zs) in enumerate(zip(table.times, table.sites)):
        cells = list(zip(ts.tolist(), zs.tolist()))
        for perm in itertools.permutations(range(n)):
            other = lookup[tuple(cells[p] for p in perm)]
            total += table.weights[row] * table.weights[other]
    return float(2.0**n * total)


@dataclass(frozen=True)
class MomentSuite:
    means: np.ndarray
    mean_stderrs: np.ndarray
    variances: np.ndarray
    variance_stderrs: np.ndarray
    cross: dict
    n_replicas: int
    values: np.ndarray | None = None


def ustat_moment_suite(specs, n_replicas: int, master_seed: int,
                       return_values: bool = False) -> MomentSuite:
    """Sample moments of several U-statistics over shared environment seeds.

    The block-average tables are seed-independent, so each replica costs one
    sign sweep per spec. Cross entries hold sample covariances between
    distinct specs (uncorrelated across orders in the limit law).
    """
    if n_replicas < 1000:
        raise ValueError("moment suite needs at least 1e3 replicas")
    specs = list(specs)
    tables = [build_cell_table(s) for s in specs]
    seeds = child_seeds(master_seed, n_replicas, 71)
    values = np.empty((len(specs), n_replicas))
    for r, seed in enumerate(seeds):
        fld = EnvironmentField(int(seed))
        for si, table in enumerate(tables):
            values[si, r] = evaluate_table(table, fld)
    means = values.mean(axis=1)
    mean_se = values.std(axis=1, ddof=1) / math.sqrt(n_replicas)
    variances = values.var(axis=1, ddof=1)
    # stderr of the sample variance via the fourth central moment
    centered = values - means[:, None]
    m4 = (centered**4).mean(axis=1)
    var_se = np.sqrt(np.maximum(m4 - variances**2, 0.0) / n_replicas)
    cross = {}
    for a, b in itertools.combinations(range(len(specs)), 2):
        cov = float(np.cov(values[a], values[b], ddof=1)[0, 1])
        se = float(np.sqrt((values[a] ** 2 * values[b] ** 2).mean() / n_replicas))
        cross[(a, b)] = (cov, se)
    return MomentSuite(means, mean_se, variances, var_se, cross, n_replicas,
                       values if return_values else None)

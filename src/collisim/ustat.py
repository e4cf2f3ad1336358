"""Exact evaluation of the weighted environment U-statistics and their
moment checks.

The order-n statistic sums, over tuples of n distinct times and parity-
matched sites, the block-averaged integrand times the amplitude and
disorder-sign products, scaled by 2^(n/2). Integrands are products
g = prod_j h(t_j, x_j) of one slot factor h, so the block average of g on a
tuple of cells is the product of the one-slot averages. With the cell weight
w(i, z) = hbar(i, z) A(i, z) and y_i = sum_z w(i, z) omega(i, z), the
statistic is

    S_n = 2^(n/2) n! e_n(y_1, ..., y_N),

where e_n sums prod_{i in I} y_i over the n-subsets I of the times. Its
exact second moment is 2^n n!^2 e_n(v) with v_i = sum_z w(i, z)^2. One
pass over the times costs O(N n) per field after hashing, and memory holds
one time's window of signs for all fields.

Integrands must declare a spatial support radius: that is what keeps the
sums finite, and inferring the support of a black-box callable is not
decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .environment import DisorderFunction
from .kernels import block_average_cells
from .rngs import child_seeds, splitmix64, step_keys, window_bits

#: fewest replicas ustat_moment_suite accepts
MIN_REPLICAS = 1000


@dataclass(frozen=True)
class Integrand:
    """g(t, x) = prod_{j=1..order} h(t_j, x_j) on [0,1]^n x R^n, for a slot
    factor h that maps arrays of times and positions elementwise."""

    slot: Callable[[np.ndarray, np.ndarray], np.ndarray]
    order: int
    support_radius: float


@dataclass(frozen=True)
class UStatSpec:
    integrand: Integrand
    horizon: int
    amplitude: DisorderFunction


@dataclass(frozen=True)
class CellTable:
    """Seed-independent part of a U-statistic: the window's cells, grouped by
    time, and one block-average times amplitude weight per cell."""

    cell_times: np.ndarray  # (c,)
    cell_sites: np.ndarray  # (c,)
    weights: np.ndarray     # (c,) one-slot block average of h times A
    prefactor: float        # 2^(n/2) n!
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
    hbar = block_average_cells(g.slot, ci[:, None], cz[:, None], spec.horizon)
    amp = np.asarray(spec.amplitude(ci, cz), dtype=float)
    return CellTable(ci, cz, hbar * amp, 2.0 ** (n / 2.0) * math.factorial(n), n)


def _subset_products(factors, order: int, shape=()) -> np.ndarray:
    """e_order of the per-time factors, each an array of ``shape``: the sum
    over order-subsets of times of their product, i.e. the coefficient of
    x^order in prod_i (1 + factor_i x)."""
    e = np.zeros(shape + (order + 1,))
    e[..., 0] = 1.0
    for y in factors:
        # the right-hand side is materialized first, so every order reads its
        # predecessor before this time's update, as a highest-first loop would
        e[..., 1:] += e[..., :-1] * y[..., None]
    return e[..., order]


def _time_windows(table: CellTable):
    """(time, cell slice) for each time, in increasing order."""
    times, starts = np.unique(table.cell_times, return_index=True)
    ends = np.append(starts[1:], len(table.cell_times))
    return [(int(i), slice(a, b)) for i, a, b in zip(times, starts, ends)]


def evaluate_table(table: CellTable, seeds) -> np.ndarray:
    """S^N_n(g) for each environment seed: one pass over the times reads each
    time's window of sign bits for all fields, contracts the signs with that
    time's weights into y_i, and lifts e_n(y) by one time."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    s0 = splitmix64(seeds.astype(np.uint64))

    def y(i, cells):
        keys = step_keys(s0, i)
        sites = (table.cell_sites[cells] + i) >> 1
        lo = int(sites.min())
        bits = window_bits(keys, lo, int(sites.max()) - lo + 1)
        return table.weights[cells] @ (1.0 - 2.0 * bits[sites - lo])

    ys = (y(i, w) for i, w in _time_windows(table))
    return table.prefactor * _subset_products(ys, table.order, (len(seeds),))


def exact_second_moment(spec: UStatSpec) -> float:
    """E over environments of S^N_n(g)^2 = prefactor^2 e_n(v), with
    v_i = sum_z w(i, z)^2: the y_i are independent, centred, of variance v_i."""
    table = build_cell_table(spec)
    vs = (np.sum(table.weights[w] ** 2) for _, w in _time_windows(table))
    return float(table.prefactor**2 * _subset_products(vs, table.order))


@dataclass(frozen=True)
class MomentSuite:
    means: np.ndarray
    mean_stderrs: np.ndarray
    variances: np.ndarray
    variance_stderrs: np.ndarray
    cross: dict
    n_replicas: int
    values: np.ndarray  # (specs, replicas) sampled statistics


def ustat_moment_suite(specs, n_replicas: int, master_seed: int) -> MomentSuite:
    """Sample moments of several U-statistics over shared environment seeds.

    The cell tables are seed-independent, so each spec costs one table and
    one pass over the times for all replica seeds. Cross entries hold sample
    covariances between distinct specs (uncorrelated across orders in the
    limit law).
    """
    if n_replicas < MIN_REPLICAS:
        raise ValueError(f"moment suite needs at least {MIN_REPLICAS} replicas")
    specs = list(specs)
    seeds = child_seeds(master_seed, n_replicas, 71)
    values = np.array([evaluate_table(build_cell_table(s), seeds) for s in specs])
    means = values.mean(axis=1)
    mean_se = values.std(axis=1, ddof=1) / math.sqrt(n_replicas)
    variances = values.var(axis=1, ddof=1)
    # stderr of the sample variance via the fourth central moment
    centered = values - means[:, None]
    m4 = (centered**4).mean(axis=1)
    var_se = np.sqrt(np.maximum(m4 - variances**2, 0.0) / n_replicas)
    cross = {}
    for a in range(len(specs)):
        for b in range(a + 1, len(specs)):
            cov = float(np.cov(values[a], values[b], ddof=1)[0, 1])
            se = float(np.sqrt((values[a] ** 2 * values[b] ** 2).mean() / n_replicas))
            cross[(a, b)] = (cov, se)
    return MomentSuite(means, mean_se, variances, var_se, cross, n_replicas, values)

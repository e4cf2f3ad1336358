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
from .rngs import cell_signs, child_seeds, splitmix64

CELL_BUDGET = 100_000_000

#: environment fields per sign matrix in evaluate_table
_SEED_BLOCK = 256


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


@dataclass(frozen=True)
class CellTable:
    """Seed-independent part of a U-statistic: the window's cells once, the
    kept tuples as indices into them, and one block-average times amplitude
    weight per kept tuple."""

    cell_times: np.ndarray  # (c,)
    cell_sites: np.ndarray  # (c,)
    tuples: np.ndarray      # (m, n) cell indices
    weights: np.ndarray     # (m,) block-averaged g times prod A
    prefactor: float        # 2^(n/2) times n! when reduced to ordered tuples
    order: int

    def weight_tensor(self) -> np.ndarray:
        """The weights on the dense (c,)*n grid of cell tuples, 0 off the kept ones."""
        dense = np.zeros((len(self.cell_times),) * self.order)
        dense[tuple(self.tuples.T)] = self.weights
        return dense


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
    flat = np.indices((n_cells,) * n).reshape(n, -1).T
    # tuples of distinct times; a symmetric integrand keeps the increasing
    # ones only, and the full distinct-tuple sum is n! times theirs
    t_cols = ci[flat] if g.symmetric else np.sort(ci[flat], axis=1)
    tuples = flat[np.all(np.diff(t_cols, axis=1) > 0, axis=1)]
    prefactor = 2.0 ** (n / 2.0) * (math.factorial(n) if g.symmetric else 1)
    times, sites = ci[tuples], cz[tuples]
    gbar = block_average_cells(g, times, sites, spec.horizon)
    amp = np.asarray(spec.amplitude(times, sites), dtype=float)
    return CellTable(ci, cz, tuples, gbar * amp.prod(axis=1), prefactor, n)


def evaluate_table(table: CellTable, seeds) -> np.ndarray:
    """S^N_n(g) for each environment seed. Each cell is hashed once per field,
    and the (fields, cells) sign matrix is contracted with the weight tensor
    one tuple slot at a time, _SEED_BLOCK fields per pass."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    n_cells = len(table.cell_times)
    dense = table.weight_tensor().reshape(n_cells, -1)
    out = np.empty(len(seeds))
    for b0 in range(0, len(seeds), _SEED_BLOCK):
        s0 = splitmix64(seeds[b0:b0 + _SEED_BLOCK, None].astype(np.uint64))
        signs = cell_signs(s0, table.cell_times, table.cell_sites)
        acc = signs @ dense
        for _ in range(table.order - 1):
            acc = np.einsum("fc,fck->fk", signs, acc.reshape(len(signs), n_cells, -1))
        out[b0:b0 + len(signs)] = table.prefactor * acc[:, 0]
    return out


def u_statistic(spec: UStatSpec) -> float:
    """Exact order-n statistic for the given integrand, amplitude, and
    environment field."""
    return float(evaluate_table(build_cell_table(spec), spec.field.seed)[0])


def exact_second_moment(spec: UStatSpec) -> float:
    """E over environments of S^N_n(g)^2, by the surviving sign pairings:
    tuples whose cell sets coincide, i.e. permutations of one another."""
    table = build_cell_table(spec)
    dense = table.weight_tensor()
    pairings = sum(float(np.vdot(dense, dense.transpose(perm)))
                   for perm in itertools.permutations(range(table.order)))
    return table.prefactor**2 * pairings


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

    The block-average tables are seed-independent, so each spec costs one
    table and one sign contraction over all replica seeds. Cross entries hold
    sample covariances between distinct specs (uncorrelated across orders in
    the limit law).
    """
    if n_replicas < 1000:
        raise ValueError("moment suite needs at least 1e3 replicas")
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
    for a, b in itertools.combinations(range(len(specs)), 2):
        cov = float(np.cov(values[a], values[b], ddof=1)[0, 1])
        se = float(np.sqrt((values[a] ** 2 * values[b] ** 2).mean() / n_replicas))
        cross[(a, b)] = (cov, se)
    return MomentSuite(means, mean_se, variances, var_se, cross, n_replicas, values)

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

where e_n sums prod_{i in I} y_i over the n-subsets I of the times. The
recursion that lifts e_n by one time carries e_1 .. e_(n-1) along, so one
cell table and one pass over the times give S_1 .. S_n, each order with its
own prefactor 2^(k/2) k!. The exact second moments are 2^k k!^2 e_k(v) with
v_i = sum_z w(i, z)^2, read from the same table; at unit amplitude
E[S_k^2] / N^(1.5 k) tends to the chaos isometry k! ||h||^(2k)
(Caravenna, Sun and Zygouras, "Polynomial chaos and scaling limits of
disordered systems", JEMS 2017). One pass costs O(N n) per field after
hashing, and memory holds one time's window of signs for all fields.

Time i's cells are the parity-matched sites z within the declared support
window, so their sign sites j = (z + i)/2 (see ``rngs``) form one
contiguous run: the table stores its first site and where its weights
start. Integrands must declare a spatial support radius: that is what keeps
the sums finite, and inferring the support of a black-box callable is not
decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .environment import DisorderFunction
from .kernels import block_average_cells
from .rngs import USTAT, splitmix64, step_keys, substream, window_bits

#: fewest replicas ustat_moment_suite accepts
MIN_REPLICAS = 1000


@dataclass(frozen=True)
class CellTable:
    """Seed-independent part of the statistics of orders 1 .. order: time i's
    cells are the sign sites first_sites[i-1] + 0, 1, ..., and their weights
    are weights[offsets[i-1]:offsets[i]]."""

    first_sites: np.ndarray  # (N,) sign site of each time's lowest cell
    offsets: np.ndarray      # (N + 1,) start of each time's weights
    weights: np.ndarray      # (c,) one-slot block average of h times A
    order: int


def _prefactors(order: int) -> np.ndarray:
    """2^(k/2) k! for k = 1 .. order."""
    return np.array([2.0 ** (k / 2.0) * math.factorial(k) for k in range(1, order + 1)])


def build_cell_table(slot: Callable[[np.ndarray, np.ndarray], np.ndarray], order: int,
                     support_radius: float, horizon: int,
                     amplitude: DisorderFunction) -> CellTable:
    """The cell table of the integrand g = prod_{j=1..order} h(t_j, x_j) on
    [0,1]^n x R^n, for a slot factor h that maps arrays of times and positions
    elementwise and vanishes for |x| > support_radius, with the lattice
    amplitude A, at the given horizon."""
    zmax = int(math.floor(support_radius * math.sqrt(horizon))) + 1
    times = np.arange(1, horizon + 1, dtype=np.int64)
    # each time's lowest parity-matched site in [-zmax, zmax], and its count
    z_first = np.where((zmax + times) % 2 == 0, -zmax, 1 - zmax)
    widths = (zmax - z_first) // 2 + 1
    offsets = np.concatenate([[0], np.cumsum(widths)])
    ci = np.repeat(times, widths)
    # cell k of a time lies k parity steps above the time's lowest cell
    steps = np.arange(offsets[-1]) - np.repeat(offsets[:-1], widths)
    cz = np.repeat(z_first, widths) + 2 * steps
    hbar = block_average_cells(slot, ci[:, None], cz[:, None], horizon)
    amp = np.asarray(amplitude(ci, cz), dtype=float)
    return CellTable((z_first + times) >> 1, offsets, hbar * amp, order)


def _time_windows(table: CellTable):
    """(time, first sign site, weights) for each time, in increasing order."""
    o = table.offsets
    return ((i, int(lo), table.weights[o[i - 1]:o[i]])
            for i, lo in enumerate(table.first_sites, 1))


def _subset_products(factors, order: int, shape=()) -> np.ndarray:
    """e_1 .. e_order of the per-time factors, each an array of ``shape``,
    stacked on a leading axis: e_k sums over k-subsets of times of their
    product, i.e. it is the coefficient of x^k in prod_i (1 + factor_i x)."""
    e = np.zeros((order + 1,) + shape)
    e[0] = 1.0
    for y in factors:
        # the right-hand side is materialized first, so every order reads its
        # predecessor before this time's update, as a highest-first loop would
        e[1:] += e[:-1] * y
    return e[1:]


def evaluate_table(table: CellTable, seeds) -> np.ndarray:
    """S^N_1(g) .. S^N_n(g) for each environment seed, shape (n, fields): one
    pass over the times reads each time's window of sign bits for all fields,
    contracts the signs with that time's weights into y_i, and lifts
    e_1 .. e_n(y) by one time."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    s0 = splitmix64(seeds.astype(np.uint64))

    def y(i, lo, w):
        return w @ (1.0 - 2.0 * window_bits(step_keys(s0, i), lo, len(w)))

    ys = (y(i, lo, w) for i, lo, w in _time_windows(table))
    e = _subset_products(ys, table.order, (len(seeds),))
    return _prefactors(table.order)[:, None] * e


def exact_second_moment(table: CellTable) -> np.ndarray:
    """E over environments of S^N_k(g)^2 = 2^k k!^2 e_k(v) for k = 1 .. n, with
    v_i = sum_z w(i, z)^2: the y_i are independent, centred, of variance v_i."""
    vs = (np.sum(w**2) for _, _, w in _time_windows(table))
    return _prefactors(table.order) ** 2 * _subset_products(vs, table.order)


def ustat_moment_suite(table: CellTable, n_replicas: int, master_seed: int) -> np.ndarray:
    """The sampled U-statistics of orders 1 .. n over shared environment
    seeds, shape (n, n_replicas): the table and one pass over the times serve
    every order and every replica. The field seeds are drawn as
    polymer.partition_samples draws them, from the stream (master_seed, USTAT,
    N, 0) at the table's horizon N. Each mean is exactly 0, so the sample mean
    of S_k^2 estimates E[S_k^2] (exact_second_moment), and the orders are
    uncorrelated.
    """
    if n_replicas < MIN_REPLICAS:
        raise ValueError(f"moment suite needs at least {MIN_REPLICAS} replicas")
    rng = substream(master_seed, USTAT, len(table.first_sites), 0)
    return evaluate_table(table, rng.integers(2**63, size=n_replicas, dtype=np.int64))

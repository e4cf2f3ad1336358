"""Directed-polymer partition function over a Rademacher environment.

One forward transfer recursion computes the partition function on the cells
|z| <= B = floor(BAND_SIGMAS * sqrt(N)): O(N^{3/2}) cells, O(B) memory per
replicate. The mass it drops averages to P(max_{n<=N} |S_n| > B) <=
2 exp(-(B+1)^2 / (2N)), about 2e-14; for N <= 64 B = N and nothing is dropped.
The chaos decomposition runs the same recursion with an order axis (exact
when the truncation order reaches N).

The recursion keeps its state cell-major, (cells, rows), so each step's
window is one contiguous block; row-strided windows made the shift-add
more than twice as slow per cell. Each step reads its window's sign bits
straight from the splitmix64/v2 words (``rngs.window_bits``, one word hash
per 64 sites and field) and turns them into factors with one multiply-add
per cell: a factor is c0 + c1 b for the cell's sign bit b, with no +-1
array in between. The amplitude is evaluated once per block of steps, not
once per step; blocks depend on (N, B) alone, so a one-row call
(``partition_dp``) reads the values of a many-row call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# integrate is not called here; perfbench/tracer.py wraps the name (see harness.py)
from .collisions import detect_collisions, integrate  # noqa: F401
from .environment import DisorderFunction, EnvironmentField
from .rngs import splitmix64, step_keys, window_bits

BAND_SIGMAS = 8.0
_ROW_BLOCK = 256  # environments per transfer pass in partition_many
_AMP_BLOCK = 1 << 14  # amplitude values per block of steps in _transfer (see _step_schedule)


@dataclass(frozen=True)
class PartitionResult:
    value: float


def scaled_disorder(amplitude: DisorderFunction, factor: float) -> DisorderFunction:
    f = float(factor)
    return DisorderFunction(lambda n, z: f * amplitude(n, z), abs(f) * amplitude.bound)


def band_halfwidth(horizon: int) -> int:
    """B = floor(BAND_SIGMAS * sqrt(N)), capped at N where the band covers the cone."""
    return int(min(horizon, BAND_SIGMAS * math.sqrt(horizon)))


def band_tail_bound(horizon: int) -> float:
    """2 exp(-(B+1)^2 / (2N)) >= P(max_{n<=N} |S_n| > B), the environment
    mean of the mass the band drops (E[1 + A omega] = 1 at every cell)."""
    band = band_halfwidth(horizon)
    return 0.0 if band >= horizon else 2.0 * math.exp(-(band + 1) ** 2 / (2.0 * horizon))


def _step_schedule(horizon: int, band: int, amplitude: DisorderFunction,
                   beta: float | None, s0: np.ndarray):
    """(lo, width, c0, c1, keys) for steps n = 1..N. A cell of the window
    with sign bit b (omega = 1 - 2b) has factor c0 + c1 b, given as
    (width, 1) columns, and ``keys`` are the step's keys for the staged
    seeds s0.

    Partition factors 0.5 + (0.5 a) omega are f+ + (f- - f+) b, with
    f+- = 0.5 +- 0.5 a; chaos lifts beta a omega are beta a - 2 beta a b.
    Both give the +-1 formula's value at b = 0 and at b = 1.

    The amplitude and the step keys are evaluated for _AMP_BLOCK // (B + 1)
    steps at a time, a block shape that depends on (N, B) alone. An
    amplitude such as disorder_from_function makes about ten temporaries
    of the block's size, so 2^14 values (128 kB each) keep the blocks
    within the memory of the per-step arrays.
    """
    # step n keeps the cells z = -n + 2j with |z| <= B, j = lo..lo+width-1
    steps = np.arange(1, horizon + 1)
    lows = np.maximum(0, (steps - band + 1) // 2)
    widths = np.minimum(steps, (steps + band) // 2) - lows + 1
    per_block = max(1, _AMP_BLOCK // (band + 1))
    for first in range(0, horizon, per_block):
        lo, width = lows[first:first + per_block], widths[first:first + per_block]
        ends = np.cumsum(width)
        starts = ends - width
        block = steps[first:first + per_block]
        n = np.repeat(block, width)
        j = np.repeat(lo - starts, width) + np.arange(ends[-1])
        a = np.asarray(amplitude(n, 2 * j - n), dtype=float)
        if beta is None:
            c0 = 0.5 + 0.5 * a
            c1 = (0.5 - 0.5 * a) - c0
        else:
            c0 = beta * a
            c1 = -2.0 * c0
        keys = step_keys(s0, block[:, None])
        for i in range(len(width)):
            cells = slice(starts[i], ends[i])
            yield int(lo[i]), int(width[i]), c0[cells, None], c1[cells, None], keys[i]


def _transfer(horizon: int, amplitude: DisorderFunction, start, seeds,
              beta: float | None = None) -> np.ndarray:
    """The forward transfer recursion behind every z_N engine; returns row sums.

    Rows start with weight start[r] at the origin. Step n keeps the window
    of ``_step_schedule`` in slots 1..width of a double buffer. Slot 0 is
    never written, nor is the one after the window: each buffer holds every
    other step, and its windows never narrow. So the next shift-add reads no
    stale weight. The signs are those of the field seeds: an array of one
    per row, or a scalar for all rows. Rows are environments with factors
    (1 + a omega)/2, or with ``beta`` chaos orders, each factor lifting
    beta a omega one up.

    The state is cell-major, (B + 3 slots, rows), and each window is one
    contiguous block. The factor buffer holds (B + 1) x fields cells and is
    allocated once per call. The row sums read a row-major copy, so each
    row is summed in numpy's pairwise order whatever the row count.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    band = band_halfwidth(horizon)
    s0 = splitmix64(np.atleast_1d(np.asarray(seeds, dtype=np.int64)).astype(np.uint64))
    buf, nxt = np.zeros((2, band + 3, len(start)))
    buf[1] = start
    factors = np.empty((band + 1, len(s0)))
    lo = 0
    for lo_n, width, c0, c1, keys in _step_schedule(horizon, band, amplitude, beta, s0):
        moved, lo = lo_n - lo, lo_n  # 0 or 1 cell to the right
        cur = nxt[1:width + 1]
        np.add(buf[moved:moved + width], buf[moved + 1:moved + width + 1], out=cur)
        fac = factors[:width]
        np.copyto(fac, window_bits(keys, lo, width))
        fac *= c1
        fac += c0
        if beta is None:
            cur *= fac
        else:
            cur *= 0.5
            # numpy materializes the RHS before adding, so every order column
            # reads its predecessor's pre-bump transfer value
            cur[:, 1:] += cur[:, :-1] * fac
        buf, nxt = nxt, buf
    return np.ascontiguousarray(buf[1:width + 1].T).sum(axis=1)


def partition_many(horizon: int, amplitude: DisorderFunction, seeds) -> np.ndarray:
    """Partition function values for a batch of environment seeds, one row
    each in the transfer state; disorder signs are hashed on demand.

    Rows are independent, so running them in blocks of _ROW_BLOCK gives the
    same values bit for bit. A block of 256 rows shares each step's Python
    and ufunc call overhead among 256 environments, and keeps each per-step
    array (two state windows and the factors) at (B + 1) x 256 eight-byte
    words: 0.5 MB at N=1024 and 1 MB at N=4096.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    blocks = np.split(seeds, range(_ROW_BLOCK, len(seeds), _ROW_BLOCK))
    return np.concatenate([_transfer(horizon, amplitude, np.ones(len(b)), b)
                           for b in blocks])


def partition_samples(horizon: int, amplitude: DisorderFunction, n_replicas: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Partition values over n_replicas environment fields whose seeds are
    drawn from ``rng``: value r is partition_dp(horizon, amplitude,
    EnvironmentField(seed_r)).value bit for bit."""
    seeds = rng.integers(2**63, size=n_replicas, dtype=np.int64)
    return partition_many(horizon, amplitude, seeds)


def partition_dp(horizon: int, amplitude: DisorderFunction,
                 field: EnvironmentField) -> PartitionResult:
    """Conditional expectation E[prod_n (1 + A(n,S_n) omega(n,S_n)) | omega],
    exact up to the band's dropped mass (none for N <= 64); its chaos terms
    are chaos_terms(horizon, 1.0, amplitude, field)."""
    return PartitionResult(float(partition_many(horizon, amplitude, [field.seed])[0]))


def chaos_terms(horizon: int, beta: float, amplitude: DisorderFunction,
                field: EnvironmentField, max_order: int | None = None) -> np.ndarray:
    """Order-resolved chaos contributions (term_0 = 1, term_1, ...).

    Runs the transfer recursion with an order axis: crossing a disorder
    factor raises the order by one. Exact decomposition when max_order >= N;
    otherwise the orders above max_order are dropped (truncated engine).
    """
    m = horizon if max_order is None else min(max_order, horizon)
    return _transfer(horizon, amplitude, np.r_[1.0, np.zeros(m)], field.seed, beta=beta)


def collision_weights(ensemble: np.ndarray, theta: DisorderFunction) -> np.ndarray:
    """Site-factorized collision weights X_{N,n}, n = 1..N, of the (k, N+1)
    positions of k walks at a caller-scaled amplitude.

    1 + X_n = prod over occupied sites z of ((1+theta)^m + (1-theta)^m)/2
    with m the occupancy; singly-occupied sites contribute factor 1, so only
    collision cells enter.
    """
    with_mult, _ = detect_collisions(ensemble)
    prod = np.ones(with_mult.horizon)
    if with_mult.n_atoms:
        # recover occupancy m from the pair count binom(m, 2)
        m = ((1.0 + np.sqrt(1.0 + 8.0 * with_mult.weights)) / 2.0).round().astype(np.int64)
        th = np.asarray(theta(with_mult.times, with_mult.sites), dtype=float)
        factors = ((1.0 + th) ** m + (1.0 - th) ** m) / 2.0
        np.multiply.at(prod, with_mult.times - 1, factors)
    return prod - 1.0

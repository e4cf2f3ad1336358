"""Directed-polymer partition function over a Rademacher environment.

One forward transfer recursion computes the partition function on the cells
|z| <= B = floor(BAND_SIGMAS * sqrt(N)): O(N^{3/2}) cells, O(B) memory per
replicate. The mass it drops averages to P(max_{n<=N} |S_n| > B) <=
2 exp(-(B+1)^2 / (2N)), about 2e-14; for N <= 64 B = N and nothing is dropped.
The chaos decomposition runs the same recursion with an order axis (exact
when the truncation order reaches N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# integrate is not called here; perfbench/tracer.py wraps the name (see harness.py)
from .collisions import detect_collisions, integrate  # noqa: F401
from .environment import DisorderFunction, EnvironmentField
from .rngs import splitmix64
from .walks import WalkEnsemble

BAND_SIGMAS = 8.0
_ROW_BLOCK = 256  # environments per transfer pass in partition_many


@dataclass(frozen=True)
class PartitionResult:
    value: float
    horizon: int


@dataclass(frozen=True)
class CollisionWeights:
    """X_{N,n} for n = 1..N (all nonnegative) and their sum T_N."""

    per_step: np.ndarray

    @property
    def total(self) -> float:
        return float(self.per_step.sum())


def scaled_disorder(amplitude: DisorderFunction, factor: float) -> DisorderFunction:
    f = float(factor)
    return DisorderFunction(lambda n, z: f * amplitude(n, z), abs(f) * amplitude.sup_bound)


def band_halfwidth(horizon: int) -> int:
    """B = floor(BAND_SIGMAS * sqrt(N)), capped at N where the band covers the cone."""
    return int(min(horizon, BAND_SIGMAS * math.sqrt(horizon)))


def band_tail_bound(horizon: int) -> float:
    """2 exp(-(B+1)^2 / (2N)) >= P(max_{n<=N} |S_n| > B), the environment
    mean of the mass the band drops (E[1 + A omega] = 1 at every cell)."""
    band = band_halfwidth(horizon)
    return 0.0 if band >= horizon else 2.0 * math.exp(-(band + 1) ** 2 / (2.0 * horizon))


def _transfer(horizon: int, amplitude: DisorderFunction, start, seeds,
              beta: float | None = None) -> np.ndarray:
    """The forward transfer recursion behind every z_N engine; returns row sums.

    Rows start with weight start[r] at the origin. Step n keeps the cells
    z = -n + 2j with |z| <= B = band_halfwidth(N), j = lo..lo+width-1, in
    columns 1..width of a double buffer. Column 0 is never written, nor is
    the one after the window: each buffer holds every other step, and its
    windows never narrow. So the next shift-add reads no stale weight.
    omega = +-1.0 is hashed on the window from the field seeds (one per row,
    or one for all). Rows are environments with factors (1 + a omega)/2,
    or with ``beta`` chaos orders, each factor lifting beta a omega one up.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    band = band_halfwidth(horizon)
    s0 = splitmix64(np.asarray(seeds, dtype=np.int64).astype(np.uint64))
    buf, nxt = np.zeros((2, len(start), band + 3))
    buf[:, 1] = start
    lo = 0
    for n in range(1, horizon + 1):
        moved = max(0, (n - band + 1) // 2) - lo  # 0 or 1 cell to the right
        lo += moved
        width = min(n, (n + band) // 2) - lo + 1
        cur = nxt[:, 1:width + 1]
        np.add(buf[:, moved:moved + width], buf[:, moved + 1:moved + width + 1], out=cur)
        z = 2 * (lo + np.arange(width, dtype=np.int64)) - n
        a = np.asarray(amplitude(np.full_like(z, n), z), dtype=float)
        omega = _hashed_signs(s0, n, z)
        if beta is None:
            # 0.5 + (0.5 a) omega is 0.5 +- 0.5 a bit for bit
            omega *= 0.5 * a
            omega += 0.5
            cur *= omega
        else:
            cur *= 0.5
            # numpy materializes the RHS before adding, so every order slice
            # reads its predecessor's pre-bump transfer value
            cur[1:] += cur[:-1] * (beta * a * omega)
        buf, nxt = nxt, buf
    return buf[:, 1:width + 1].sum(axis=1)


def _hashed_signs(s0, n: int, z: np.ndarray) -> np.ndarray:
    """omega(n, z) = +-1.0 from the lowest cell-hash bit, for staged seed(s) s0."""
    with np.errstate(over="ignore"):
        h = splitmix64(splitmix64(s0 ^ np.uint64(n)) ^ z.astype(np.uint64))
    return 1.0 - 2.0 * (h & np.uint64(1)).astype(np.float64)


def partition_many(horizon: int, amplitude: DisorderFunction, seeds) -> np.ndarray:
    """Partition function values for a batch of environment seeds, one row
    each in the transfer state; disorder signs are hashed on demand. Rows
    are independent, so running them in blocks of _ROW_BLOCK (which keeps the
    per-step hash arrays in cache) gives the same values bit for bit."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    blocks = np.split(seeds, range(_ROW_BLOCK, len(seeds), _ROW_BLOCK))
    return np.concatenate([_transfer(horizon, amplitude, np.ones(len(b)), b[:, None])
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
    return PartitionResult(float(partition_many(horizon, amplitude, [field.seed])[0]), horizon)


def chaos_terms(horizon: int, beta: float, amplitude: DisorderFunction,
                field: EnvironmentField, max_order: int | None = None) -> np.ndarray:
    """Order-resolved chaos contributions (term_0 = 1, term_1, ...).

    Runs the transfer recursion with an order axis: crossing a disorder
    factor raises the order by one. Exact decomposition when max_order >= N;
    otherwise the orders above max_order are dropped (truncated engine).
    """
    m = horizon if max_order is None else min(max_order, horizon)
    return _transfer(horizon, amplitude, np.r_[1.0, np.zeros(m)], field.seed, beta=beta)


def collision_weights(ensemble: WalkEnsemble, theta: DisorderFunction) -> CollisionWeights:
    """Site-factorized collision weights X_{N,n} at a caller-scaled amplitude.

    1 + X_n = prod over occupied sites z of ((1+theta)^m + (1-theta)^m)/2
    with m the occupancy; singly-occupied sites contribute factor 1, so only
    collision cells enter.
    """
    with_mult, _ = detect_collisions(ensemble)
    n_steps = ensemble.horizon
    prod = np.ones(n_steps)
    if with_mult.n_atoms:
        # recover occupancy m from the pair count binom(m, 2)
        m = ((1.0 + np.sqrt(1.0 + 8.0 * with_mult.weights)) / 2.0).round().astype(np.int64)
        th = np.asarray(theta(with_mult.times, with_mult.sites), dtype=float)
        factors = ((1.0 + th) ** m + (1.0 - th) ** m) / 2.0
        np.multiply.at(prod, with_mult.times - 1, factors)
    return CollisionWeights(prod - 1.0)

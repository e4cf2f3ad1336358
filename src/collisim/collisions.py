"""Collision events of k walks and the rescaled collision measures.

Atoms are stored as raw integer (time, site, weight) triples sorted by
(time, site); the (n/N, z/sqrt(N)) rescaling happens only at integration
time, so the stored data model is float-drift free and measures compare
bit-exactly across runs. A test function f(t, x) is a
``ContinuumAmplitude``, the one bounded function on [0,1] x R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import ContinuumAmplitude

__all__ = [
    "CollisionMeasure",
    "detect_collisions",
    "integrate",
    "gaussian_bump",
    "constant_fn",
]


def gaussian_bump(alpha: float = 0.5, sigma: float = 1.0) -> ContinuumAmplitude:
    """f(t, x) = alpha * exp(-x^2 / (2 sigma^2)), the default test family."""
    a, s2 = float(alpha), float(sigma) ** 2
    return ContinuumAmplitude(lambda t, x: a * np.exp(-x * x / (2.0 * s2)), abs(a))


def constant_fn(value: float) -> ContinuumAmplitude:
    v = float(value)
    return ContinuumAmplitude(lambda t, x: np.full(np.broadcast(t, x).shape, v), abs(v))


@dataclass(frozen=True)
class CollisionMeasure:
    """Atomic measure: weight[j] sits at time times[j], site sites[j]."""

    horizon: int
    times: np.ndarray
    sites: np.ndarray
    weights: np.ndarray

    @property
    def n_atoms(self) -> int:
        return len(self.times)

    def total_mass(self) -> float:
        return float(self.weights.sum())


def detect_collisions(ensemble: np.ndarray) -> tuple[CollisionMeasure, CollisionMeasure]:
    """(with-multiplicity, distinct-event) collision measures of the (k, N+1)
    positions of k walks.

    Occupancy is counted per (time, site) cell: a cell holding c >= 2 walks
    contributes weight binom(c, 2) to the multiplicity measure and 1 to the
    distinct-event measure. Times are restricted to 1 <= n <= N.
    """
    horizon = ensemble.shape[1] - 1
    pos = ensemble[:, 1:]  # (k, N)
    n_index = np.broadcast_to(np.arange(1, horizon + 1), pos.shape)
    # cell code packs (time, site); site offset keeps codes nonnegative
    offset = horizon + 1
    codes = n_index.astype(np.int64) * (2 * offset + 1) + (pos.astype(np.int64) + offset)
    uniq, counts = np.unique(codes.ravel(), return_counts=True)
    hit = counts >= 2
    uniq, counts = uniq[hit], counts[hit]
    # np.unique sorts the codes; as 0 < site + offset < 2 offset + 1, that is
    # (time, site) order
    times = uniq // (2 * offset + 1)
    sites = uniq % (2 * offset + 1) - offset
    pair_weights = counts * (counts - 1) // 2
    with_mult = CollisionMeasure(horizon, times, sites, pair_weights)
    distinct = CollisionMeasure(horizon, times, sites, np.ones_like(pair_weights))
    return with_mult, distinct


def integrate(measure: CollisionMeasure, f: ContinuumAmplitude) -> float:
    """Pi_N(f) = sum over atoms of weight * f(n/N, z/sqrt(N))."""
    if measure.n_atoms == 0:
        return 0.0
    t = measure.times / measure.horizon
    x = measure.sites / math.sqrt(measure.horizon)
    return float(np.sum(measure.weights * np.asarray(f(t, x), dtype=float)))

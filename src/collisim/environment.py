"""Rademacher disorder field and lattice amplitude fields.

The environment omega(n, z) is a deterministic counter-based hash of
(seed, n, z) (``rngs``, splitmix64/v2): one hash bit picks the sign, so +-1
are exactly balanced over the hash codomain, and one 64-bit word carries
the signs of 64 neighbouring sites of a step. Every polymer sample hashes
one such field on the transfer band only (about N^{3/2} / 64 words) and
stores none. ``ContinuumAmplitude`` is the one bounded function on
[0,1] x R, a disorder amplitude and a test function alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rngs import HASH_VERSION, cell_signs, splitmix64

__all__ = [
    "EnvironmentField",
    "DisorderFunction",
    "ContinuumAmplitude",
    "disorder_from_function",
    "cells_of",
    "HASH_VERSION",
]


@dataclass(frozen=True)
class EnvironmentField:
    """Seeded Rademacher field on N x Z."""

    seed: int

    def omega_at(self, n, z):
        """+-1 at cell (n, z); vectorized over array-valued n, z. An off-parity
        cell (z + n odd) reads the sign of (n, z - 1), as in ``rngs``."""
        s0 = splitmix64(np.asarray(self.seed, dtype=np.int64).astype(np.uint64))
        sign = cell_signs(s0, n, z).astype(np.int64)
        if np.isscalar(n) and np.isscalar(z):
            return int(sign)
        return sign


@dataclass(frozen=True)
class DisorderFunction:
    """Amplitude field A(n, z) with a finite sup bound."""

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float

    def __call__(self, n, z):
        return self.evaluator(np.asarray(n), np.asarray(z))


@dataclass(frozen=True)
class ContinuumAmplitude:
    """Bounded measurable a(t, x) on [0,1] x R with |a| <= bound; also the
    test functions the collision measures integrate."""

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float

    def __call__(self, t, x):
        return self.evaluator(np.asarray(t, dtype=float), np.asarray(x, dtype=float))


def disorder_from_function(a: ContinuumAmplitude, horizon: int) -> DisorderFunction:
    """Lattice field A_N(n, z) = a(n/N, z/sqrt(N))."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_f = float(horizon)
    sq = math.sqrt(n_f)

    def evaluator(n, z):
        return a(np.asarray(n, dtype=float) / n_f, np.asarray(z, dtype=float) / sq)

    return DisorderFunction(evaluator, a.bound)


def cells_of(t: np.ndarray, x: np.ndarray, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The lattice cells (i, z) whose rectangles contain the points (t, x).

    i = ceil(N t) with t in (0, 1]; z is the unique integer of the same
    parity as i with x in ((z-1)/sqrt(N), (z+1)/sqrt(N)]. Both intervals are
    left-open right-closed, so boundary points attach to the cell on their
    left. Raises on any t outside (0, 1].
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(t <= 0.0) or np.any(t > 1.0):
        raise ValueError("t must lie in (0, 1]")
    i = np.ceil(horizon * t).astype(np.int64)
    u = x * math.sqrt(horizon)
    parity = i & 1
    q = np.ceil((u - 1.0 - parity) / 2.0).astype(np.int64)
    return i, 2 * q + parity

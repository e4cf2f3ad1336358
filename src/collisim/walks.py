"""Simple symmetric random walks on Z: sampling, enumeration, local times.

Paths are stored as contiguous position arrays S_0..S_N (S_0 = 0), because
collision detection and local times index positions directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

# substream is not called here; perfbench/tracer.py wraps the name (see harness.py)
from .rngs import substream  # noqa: F401

#: brute-force enumeration is an oracle for tiny horizons only
ENUMERATION_CAP = 20


class HorizonTooLarge(ValueError):
    """Raised when exhaustive path enumeration is requested beyond the cap."""


@dataclass(frozen=True)
class WalkPath:
    """One walk: positions[n] = S_n for n = 0..N, steps in {-1,+1}."""

    positions: np.ndarray
    horizon: int = field(default=-1)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64)
        object.__setattr__(self, "positions", pos)
        if self.horizon < 0:
            object.__setattr__(self, "horizon", len(pos) - 1)
        if len(pos) != self.horizon + 1:
            raise ValueError("positions length must be horizon + 1")
        if pos[0] != 0:
            raise ValueError("walks start at 0")
        if self.horizon > 0 and not np.all(np.abs(np.diff(pos)) == 1):
            raise ValueError("steps must be +-1")


@dataclass(frozen=True)
class WalkEnsemble:
    """k independent walks sharing one horizon; k >= 2."""

    walks: tuple
    horizon: int

    def __post_init__(self):
        if len(self.walks) < 2:
            raise ValueError("an ensemble needs k >= 2 walks")
        if any(w.horizon != self.horizon for w in self.walks):
            raise ValueError("all walks must share the ensemble horizon")

    @property
    def k(self) -> int:
        return len(self.walks)

    def position_matrix(self) -> np.ndarray:
        """(k, N+1) int matrix of positions."""
        return np.stack([w.positions for w in self.walks])


def sample_walk(horizon: int, rng: np.random.Generator) -> WalkPath:
    """Draw one walk of the given horizon from ``rng``; horizon 0 is the
    singleton path (0)."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    positions = np.zeros(horizon + 1, dtype=np.int64)
    if horizon > 0:
        steps = rng.integers(0, 2, size=horizon, dtype=np.int64) * 2 - 1
        np.cumsum(steps, out=positions[1:])
    return WalkPath(positions, horizon)


def sample_ensemble(k: int, horizon: int, rng: np.random.Generator) -> WalkEnsemble:
    """k independent walks from one stream (drawn walk-by-walk)."""
    return WalkEnsemble(tuple(sample_walk(horizon, rng) for _ in range(k)), horizon)


def sample_steps_block(n_replicas: int, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """(n_replicas, horizon) block of +-1 steps, int8; bulk path for sweeps."""
    return (rng.integers(0, 2, size=(n_replicas, horizon), dtype=np.int8) * 2 - 1).astype(np.int8)


def positions_from_steps(steps: np.ndarray) -> np.ndarray:
    """Cumulative positions S_1..S_N (drops the S_0 = 0 column), int32."""
    return np.cumsum(steps, axis=-1, dtype=np.int32)


def enumerate_paths(horizon: int):
    """All 2^N paths with probability 2^-N each.

    Returns (positions, probability): positions is a (2^N, N+1) int matrix.
    Guarded at N <= ENUMERATION_CAP; beyond that it is oracle misuse.
    """
    if horizon > ENUMERATION_CAP:
        raise HorizonTooLarge(f"enumeration capped at N={ENUMERATION_CAP}, got {horizon}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    count = 1 << horizon
    codes = np.arange(count, dtype=np.uint64)[:, None]
    bits = (codes >> np.arange(horizon, dtype=np.uint64)[None, :]) & np.uint64(1)
    steps = bits.astype(np.int64) * 2 - 1
    positions = np.zeros((count, horizon + 1), dtype=np.int64)
    np.cumsum(steps, axis=1, out=positions[:, 1:])
    return positions, 2.0 ** (-horizon)


def return_time_pmf(kmax: int) -> np.ndarray:
    """P(T_1 = 2k) for k = 1..kmax, where T_1 is the first return to 0.

    Computed in log-space: 2^(-2k+1) * (1/k) * binom(2k-2, k-1).
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    k = np.arange(1, kmax + 1, dtype=np.float64)
    logp = (-2 * k + 1) * np.log(2.0) - np.log(k) + gammaln(2 * k - 1) - 2 * gammaln(k)
    return np.exp(logp)


def local_time_zero(path: WalkPath, up_to: int) -> int:
    """#{1 <= n <= up_to : S_n = 0}."""
    if not 0 <= up_to <= path.horizon:
        raise ValueError("up_to must lie in [0, horizon]")
    return int(np.count_nonzero(path.positions[1 : up_to + 1] == 0))


def first_return_times(n_walks: int, max_steps: int, rng: np.random.Generator) -> np.ndarray:
    """First-return times (0 where no return happened within max_steps).

    Vectorized over walks: draws (n_walks, max_steps) steps in one block.
    """
    steps = sample_steps_block(n_walks, max_steps, rng)
    pos = positions_from_steps(steps)
    at_zero = pos == 0
    hit = at_zero.any(axis=1)
    first = np.argmax(at_zero, axis=1) + 1
    return np.where(hit, first, 0)

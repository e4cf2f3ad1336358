"""Simple symmetric random walks on Z: sampling and positions.

Paths are stored as contiguous position arrays S_0..S_N (S_0 = 0), because
collision detection and local times index positions directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# substream is not called here; perfbench/tracer.py wraps the name (see harness.py)
from .rngs import substream  # noqa: F401


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


def positions_from_steps(steps: np.ndarray) -> np.ndarray:
    """Cumulative positions S_1..S_N (drops the S_0 = 0 column), int32."""
    return np.cumsum(steps, axis=-1, dtype=np.int32)

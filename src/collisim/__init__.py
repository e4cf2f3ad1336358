"""Collision measures of multiple random walks: simulation and verification
of their duality with directed-polymer partition functions and the chaos
limit."""

__version__ = "0.1.0"

from .collisions import gaussian_bump
from .environment import ContinuumAmplitude, DisorderFunction, EnvironmentField
from .polymer import chaos_terms, partition_dp, partition_many

__all__ = [
    "__version__",
    "gaussian_bump",
    "ContinuumAmplitude",
    "DisorderFunction",
    "EnvironmentField",
    "chaos_terms",
    "partition_dp",
    "partition_many",
]

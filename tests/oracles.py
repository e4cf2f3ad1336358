"""Brute-force oracles for the test suite: exhaustive path and chain
enumeration, subset expansions, the scalar cell map, the return-time
law and the full 64-bit cell hash. Each is exponential, scalar or
unoptimised on purpose and checks a production kernel of collisim from
an independent route.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import gammaln

from collisim.collisions import detect_collisions
from collisim.kernels import rw_transition
from collisim.rngs import splitmix64
from collisim.walks import positions_from_steps

#: exhaustive path enumeration is for tiny horizons only
ENUMERATION_CAP = 20

#: chain enumeration of the chaos terms visits every ordered time tuple
CHAIN_ENUMERATION_CAP = 14


class HorizonTooLarge(ValueError):
    """Raised when exhaustive path enumeration is requested beyond the cap."""


class WrongEnsembleSize(ValueError):
    """Raised when an operation needs a specific k."""


def sample_steps_block(n_replicas: int, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """(n_replicas, horizon) block of +-1 steps, int8; bulk path for sweeps."""
    return (rng.integers(0, 2, size=(n_replicas, horizon), dtype=np.int8) * 2 - 1).astype(np.int8)


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


def chaos_terms_enumerated(horizon: int, beta: float, amplitude, field) -> np.ndarray:
    """Combinatorial oracle: term_n = beta^n sum over ordered time tuples and
    site chains of p_n(i, z) A(i, z) omega(i, z). Exponential; capped."""
    if horizon > CHAIN_ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at N={CHAIN_ENUMERATION_CAP}")
    terms = np.zeros(horizon + 1)
    terms[0] = 1.0
    times = range(1, horizon + 1)
    for n in range(1, horizon + 1):
        total = 0.0
        for tup in itertools.combinations(times, n):
            total += _chain_weight_sum(tup, amplitude, field)
        terms[n] = beta**n * total
    return terms


def _chain_weight_sum(tup, amplitude, field) -> float:
    """sum over site chains of p_n * prod_j A(i_j, z_j) omega(i_j, z_j)."""
    frontier = [(0, 1.0)]  # (site, weighted probability so far)
    prev_t = 0
    for t in tup:
        dt = t - prev_t
        new_frontier = {}
        for site, wgt in frontier:
            for dz in range(-dt, dt + 1, 2):
                p = rw_transition(dt, dz)
                if p == 0.0:
                    continue
                z = site + dz
                factor = float(amplitude(t, z)) * field.omega_at(t, z)
                new_frontier[z] = new_frontier.get(z, 0.0) + wgt * p * factor
        frontier = list(new_frontier.items())
        prev_t = t
    return sum(w for _, w in frontier)


def subset_expansion_weight(sites, thetas) -> float:
    """X_{N,n} at one time step as the explicit sum over walk subsets of
    size >= 2 whose sites are all covered an even number of times (the
    surviving Rademacher expectations).

    sites[i] is walk i's position, thetas[i] the amplitude at that cell.
    """
    sites = list(sites)
    thetas = np.asarray(thetas, dtype=float)
    k = len(sites)
    total = 0.0
    for l in range(2, k + 1):
        for subset in itertools.combinations(range(k), l):
            counts: dict = {}
            for i in subset:
                counts[sites[i]] = counts.get(sites[i], 0) + 1
            if all(c % 2 == 0 for c in counts.values()):
                total += float(np.prod(thetas[list(subset)]))
    return total


def total_mass_identity_check(ensemble) -> tuple[float, int]:
    """For k = 2: (||Pi_N||, zero count of the difference walk); the two are
    equal pathwise."""
    if ensemble.k != 2:
        raise WrongEnsembleSize(f"identity requires k=2, got k={ensemble.k}")
    with_mult, _ = detect_collisions(ensemble)
    diff = ensemble.walks[0].positions[1:] - ensemble.walks[1].positions[1:]
    return with_mult.total_mass(), int(np.count_nonzero(diff == 0))


def cell_of(t: float, x: float, horizon: int) -> tuple[int, int]:
    """The unique lattice cell (i, z) whose rectangle contains (t, x), in
    scalar arithmetic: the reference for environment.cells_of.

    i = ceil(N t) with t in (0, 1]; z is the unique integer of the same
    parity as i with x in ((z-1)/sqrt(N), (z+1)/sqrt(N)]. Both intervals are
    left-open right-closed, so boundary points attach to the cell on their
    left.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    i = math.ceil(horizon * t)
    u = x * math.sqrt(horizon)
    parity = i & 1
    q = math.ceil((u - 1.0 - parity) / 2.0)
    return i, 2 * q + parity


def cell_signs_full_hash(s0, n, z) -> np.ndarray:
    """The splitmix64/v1 cell sign from all 64 bits of the hash:
    1 - 2 (splitmix64(splitmix64(s0 ^ n) ^ z) & 1), the reference for
    rngs.cell_signs, which computes the lowest bit only."""
    un = np.asarray(n, dtype=np.int64).astype(np.uint64)
    uz = np.asarray(z, dtype=np.int64).astype(np.uint64)
    h = splitmix64(splitmix64(s0 ^ un) ^ uz)
    return 1.0 - 2.0 * (h & np.uint64(1)).astype(np.float64)


def jitter(values, rng: np.random.Generator) -> np.ndarray:
    """Break integer ties with uniform(0,1) noise; rank-preserving and
    distribution-equality-preserving under the null."""
    values = np.asarray(values, dtype=float)
    return values + rng.uniform(0.0, 1.0, size=values.shape)


def second_moment_by_pairings(table) -> float:
    """E[S^2] of an asymmetric-kind U-statistic table, pairing each kept
    tuple with every permutation of its cells by a dict lookup: the sign
    products of two tuples have mean 1 exactly when their cell sets coincide."""
    times = table.cell_times[table.tuples]
    sites = table.cell_sites[table.tuples]
    lookup = {}
    for row, (ts, zs) in enumerate(zip(times, sites)):
        lookup[tuple(zip(ts.tolist(), zs.tolist()))] = row
    total = 0.0
    for row, (ts, zs) in enumerate(zip(times, sites)):
        cells = list(zip(ts.tolist(), zs.tolist()))
        for perm in itertools.permutations(range(table.order)):
            other = lookup[tuple(cells[p] for p in perm)]
            total += table.weights[row] * table.weights[other]
    return float(2.0**table.order * total)

"""Brute-force oracles for the test suite: exhaustive path and chain
enumeration, subset expansions, the scalar cell map, the return-time
law, the splitmix64/v1 cell hash and transfer, the splitmix64/v2 sign in
Python integers, U-statistic sign pairings and one-order passes, the scalar and
array walk transitions, the exact discrete chain norm, the constant
amplitude, the whole-chunk bodies of the walk and importance-sampling
kernels, the local-CLT distance by adaptive 2-D quadrature, the chaos
grid's exact order variances on the cut grid, the chaos terms with fresh
FFT arrays at every order, and the KS p-value. Each is
exponential, scalar or unoptimised on purpose, or a plain reference that
no experiment needs, and checks a production kernel of collisim from an
independent route.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, kolmogorov

from collisim import chaos as C
from collisim import harness as H
from collisim import kernels as K
from collisim.collisions import detect_collisions
from collisim.environment import DisorderFunction
from collisim.kernels import log_rw_transition
from collisim.rngs import cell_signs, splitmix64, substream
from collisim.walks import positions_from_steps, walk_positions

#: exhaustive path enumeration is for tiny horizons only
ENUMERATION_CAP = 20

#: chain enumeration of the chaos terms visits every ordered time tuple
CHAIN_ENUMERATION_CAP = 14

#: exact integer binomial path stays exact in float64 up to here
_EXACT_STEPS = 60


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


def cell_signs_v1(s0, n, z) -> np.ndarray:
    """The splitmix64/v1 cell sign, one full hash per cell:
    1 - 2 (splitmix64(splitmix64(s0 ^ n) ^ z) & 1), the field every report
    before splitmix64/v2 was computed on."""
    un = np.asarray(n, dtype=np.int64).astype(np.uint64)
    uz = np.asarray(z, dtype=np.int64).astype(np.uint64)
    h = splitmix64(splitmix64(s0 ^ un) ^ uz)
    return 1.0 - 2.0 * (h & np.uint64(1)).astype(np.float64)


_MASK64 = (1 << 64) - 1


def _splitmix64_int(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def cell_sign_v2(seed: int, n: int, z: int) -> int:
    """The splitmix64/v2 sign of one cell in Python integers: site
    j = floor((z + n) / 2) of the wrapped 64-bit sum, bit j mod 64 of
    splitmix64(splitmix64(splitmix64(seed) ^ n) ^ floor(j / 64)), with every
    signed integer taken mod 2^64. The reference for rngs.cell_signs and
    rngs.window_bits."""
    total = (n + z) & _MASK64
    site = (total - (1 << 64) if total >> 63 else total) >> 1
    key = _splitmix64_int(_splitmix64_int(seed & _MASK64) ^ (n & _MASK64))
    word = _splitmix64_int(key ^ ((site >> 6) & _MASK64))
    return 1 - 2 * ((word >> (site & 63)) & 1)


def field_v1(seed: int):
    """omega(n, z) of the field ``seed`` under splitmix64/v1, as +-1.0."""
    s0 = splitmix64(np.asarray(seed, dtype=np.int64).astype(np.uint64))
    return lambda n, z: cell_signs_v1(s0, n, z)


def transfer_reference(horizon: int, amplitude, omega, start=(1.0,), beta=None) -> np.ndarray:
    """polymer._transfer for one field as the plain recursion: row-major
    state allocated at every step, the amplitude evaluated per step, and
    +-1 signs from ``omega(n, z)`` on each step's window. Rows start with
    weight start[r] at the origin. Factors are 0.5 + (0.5 a) omega; with
    ``beta`` the rows are chaos orders, each lifting (beta a) omega one up.
    With field_v1 this is the splitmix64/v1 transfer bit for bit; with
    EnvironmentField.omega_at it is the v2 reference."""
    from collisim.polymer import band_halfwidth

    band = band_halfwidth(horizon)
    state = np.zeros((len(start), band + 2))
    state[:, 0] = start
    lo = 0
    for n in range(1, horizon + 1):
        moved = max(0, (n - band + 1) // 2) - lo
        lo += moved
        width = min(n, (n + band) // 2) - lo + 1
        # column k holds site lo + k; a zero column stands left of site lo
        padded = np.concatenate([np.zeros((len(start), 1)), state], axis=1)
        new = np.zeros_like(state)
        new[:, :width] = padded[:, moved:moved + width] + padded[:, moved + 1:moved + width + 1]
        z = 2 * (lo + np.arange(width, dtype=np.int64)) - n
        a = np.asarray(amplitude(np.full_like(z, n), z), dtype=float)
        signs = np.asarray(omega(np.full_like(z, n), z), dtype=float)
        if beta is None:
            new[:, :width] *= 0.5 + (0.5 * a) * signs
        else:
            new[:, :width] *= 0.5
            new[1:, :width] += new[:-1, :width] * (beta * a * signs)
        state = new
    return np.ascontiguousarray(state[:, :width]).sum(axis=1)


def jitter(values, rng: np.random.Generator) -> np.ndarray:
    """Break integer ties with uniform(0,1) noise; rank-preserving and
    distribution-equality-preserving under the null."""
    values = np.asarray(values, dtype=float)
    return values + rng.uniform(0.0, 1.0, size=values.shape)


def ks_pvalue(statistic: float, n: int, m: int) -> float:
    """Asymptotic p-value of a two-sample KS statistic (harness.ks_two_sample)
    over samples of sizes n and m: the Kolmogorov tail at sqrt(nm/(n+m)) D."""
    return float(kolmogorov(math.sqrt(n * m / (n + m)) * statistic))


def second_moment_by_pairings(times, sites, weights) -> float:
    """E[S^2] for S = 2^(n/2) sum_r weights[r] prod_j omega(times[r, j], sites[r, j])
    over enumerated (m, n) cell tuples of distinct times, pairing each tuple
    with every permutation of its cells by a dict lookup: the sign products
    of two tuples have mean 1 exactly when their cell sets coincide."""
    order = times.shape[1]
    rows = [tuple(zip(ts.tolist(), zs.tolist())) for ts, zs in zip(times, sites)]
    lookup = {cells: row for row, cells in enumerate(rows)}
    total = 0.0
    for row, cells in enumerate(rows):
        for perm in itertools.permutations(range(order)):
            other = lookup[tuple(cells[p] for p in perm)]
            total += weights[row] * weights[other]
    return float(2.0**order * total)


def ustat_one_order(table, seeds, order: int) -> np.ndarray:
    """S^N_order of a ``ustat.CellTable`` for each seed, by its own pass over
    the times: y_i contracts time i's weights with per-cell signs, then
    e_k += e_(k-1) y_i for k = order down to 1, and S = 2^(order/2) order! e_order."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    s0 = splitmix64(seeds.astype(np.uint64))
    e = [np.ones(len(seeds))] + [np.zeros(len(seeds))] * order
    for i, lo in enumerate(table.first_sites, 1):
        w = table.weights[table.offsets[i - 1]:table.offsets[i]]
        z = 2 * (lo + np.arange(len(w))) - i
        y = w @ cell_signs(s0[None, :], i, z[:, None])
        for k in range(order, 0, -1):
            e[k] = e[k] + e[k - 1] * y
    return 2.0 ** (order / 2.0) * math.factorial(order) * e[order]


def rw_transition(i: int, x: int) -> float:
    """p(i, x) = P(S_i = x) for the simple walk; 0 off the parity cone."""
    if i < 1:
        raise ValueError("i must be >= 1")
    if abs(x) > i or (i + x) % 2 != 0:
        return 0.0
    if i <= _EXACT_STEPS:
        return math.ldexp(float(math.comb(i, (i + x) // 2)), -i)
    return float(np.exp(log_rw_transition(np.array([i]), np.array([x]))[0]))


def rw_transition_array(i: np.ndarray, x: np.ndarray) -> np.ndarray:
    """p(i, x) elementwise through the log-space kernel."""
    with np.errstate(over="ignore"):
        return np.exp(log_rw_transition(i, x))


def discrete_chain_norm_sq(n: int, horizon: int) -> float:
    """Exact ||N^(n/2) p^N_n||_2^2 as a lattice sum.

    Uses sum_z p(m, z)^2 = p(2m, 0): the squared chain collapses to
    meeting probabilities of two independent walks, leaving
    2^-n N^(-n/2) * sum over ordered time tuples of prod p(2 dt_j, 0).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > horizon:
        return 0.0
    steps = np.arange(1, horizon + 1, dtype=np.int64)
    by_value = np.zeros(horizon + 1)
    by_value[1:] = rw_transition_array(2 * steps, np.zeros_like(steps))
    # n-fold convolution of the meeting pmf, truncated at total time N
    total = by_value.copy()
    for _ in range(n - 1):
        total = np.convolve(total, by_value)[: horizon + 1]
    return float(2.0 ** (-n) * horizon ** (-n / 2.0) * total.sum())


def constant_disorder(value: float) -> DisorderFunction:
    v = float(value)
    return DisorderFunction(lambda n, z: np.full(np.broadcast(n, z).shape, v), abs(v))


# ---------------------------------------------------------------------------
# whole-chunk kernels: each chunk's working set built at once


def chunk_ranges(total: int, chunk: int):
    """(idx, first replica, size) of each chunk of the total replicas."""
    return [(idx, start, min(chunk, total - start))
            for idx, start in enumerate(range(0, total, chunk))]


def local_time_counts_whole_chunk(horizon: int, n_replicas: int, master_seed: int) -> np.ndarray:
    """harness.local_time_counts with every chunk's positions drawn in one call."""

    def run(chunk_spec):
        idx, start, size = chunk_spec
        walks = walk_positions(substream(master_seed, H._TAG_WALKS, idx), (size,), horizon)
        return (walks == 0).sum(axis=1).astype(float)

    return np.concatenate([run(r) for r in chunk_ranges(n_replicas, H._LOCAL_TIME_CHUNK)])


def collision_statistics_whole_chunk(k: int, horizon: int, f, n_replicas: int,
                                     master_seed: int) -> dict:
    """harness.collision_statistics with every chunk's (k, replicas x horizon)
    work arrays built at once."""
    chunk = max(32, min(H._WALK_CHUNK, (1 << 22) // max(horizon, 1)))
    sqrt_n = math.sqrt(horizon)
    times = np.arange(1, horizon + 1, dtype=float) / horizon
    even_binom = np.array([[math.comb(m, 2 * j) for j in range(1, k // 2 + 1)]
                           for m in range(k + 1)], dtype=float)

    def run(chunk_spec):
        idx, start, size = chunk_spec
        rng = substream(master_seed, H._TAG_WALKS, idx)
        walks = np.ascontiguousarray(walk_positions(rng, (size, k), horizon).transpose(1, 0, 2))
        pos = walks.reshape(k, size * horizon)
        below = np.zeros((k - 1, size * horizon), dtype=bool)
        pair_hits = np.zeros(size, dtype=np.int64)
        slots, occ, sites = [], [], []
        for i in range(k - 1):
            above = pos[i + 1:] == pos[i]
            pair_hits += above.reshape(k - 1 - i, size, horizon).sum(axis=(0, 2))
            s = np.flatnonzero(above.any(axis=0) > below[i])
            below[i + 1:] |= above[:k - 2 - i]
            slots.append(s)
            occ.append(1 + above[:, s].sum(axis=0))
            sites.append(pos[i, s])
        seg = np.cumsum([0] + [len(s) for s in slots])
        slot, occ = np.concatenate(slots), np.concatenate(occ)
        ridx, nidx = np.divmod(slot, horizon)
        fv = np.asarray(f(times[nidx], np.concatenate(sites) / sqrt_n), dtype=float)
        pair = even_binom[occ, 0]
        theta2 = np.maximum(fv, 0.0) / sqrt_n
        x_cell = np.zeros_like(theta2)
        for j in range(k // 2, 0, -1):
            x_cell = (x_cell + even_binom[occ, j - 1]) * theta2
        x_mat = np.zeros(size * horizon)
        for lo, hi in zip(seg[:-1], seg[1:]):
            s, xc = slot[lo:hi], x_cell[lo:hi]
            x = x_mat[s]
            x_mat[s] = x + xc + x * xc
        x_mat = x_mat.reshape(size, horizon)
        return {
            "pi_f": np.bincount(ridx, pair * fv, minlength=size),
            "mass": np.bincount(ridx, pair, minlength=size),
            "t_sum": x_mat.sum(axis=1),
            "prod_x": np.prod(1.0 + x_mat, axis=1),
            "pi_prime_f": np.bincount(ridx, fv, minlength=size),
            "max_abs": np.maximum(walks.max(axis=(0, 2)), -walks.min(axis=(0, 2))) / sqrt_n,
            "distinct_mass": np.bincount(ridx, minlength=size).astype(float),
            "pair_hits": pair_hits,
        }

    parts = [run(r) for r in chunk_ranges(n_replicas, chunk)]
    merged = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    merged["pi_scaled"] = merged["pi_f"] / sqrt_n
    merged["exp_pi"] = np.exp(merged["pi_scaled"])
    return merged


def sample_chain_proposal_whole_chunk(n: int, size: int, rng: np.random.Generator):
    """kernels.sample_chain_proposal with one dirichlet and one standard_t call."""
    alpha = np.full(n + 1, K._PROPOSAL_ALPHA)
    alpha[-1] = 1.0
    gaps = rng.dirichlet(alpha, size=size)[:, :n]
    gaps = np.maximum(gaps, 1e-300)
    times = np.cumsum(gaps, axis=1)
    log_qt = (
        gammaln(n * K._PROPOSAL_ALPHA + 1.0)
        - n * gammaln(K._PROPOSAL_ALPHA)
        + (K._PROPOSAL_ALPHA - 1.0) * np.log(gaps).sum(axis=1)
    )
    scale = np.sqrt(K._PROPOSAL_XSCALE_SQ * gaps)
    u = rng.standard_t(3, size=(size, n))
    incr = u * scale
    log_qx = (K._T3_LOG_NORM - 2.0 * np.log1p(u * u / 3.0) - np.log(scale)).sum(axis=1)
    xs = np.cumsum(incr, axis=1)
    return times, xs, log_qt + log_qx


def importance_sample_whole_chunk(n: int, budget: int, rng: np.random.Generator, h):
    """kernels._importance_sample with every _IS_BATCH chunk drawn and
    weighted at once."""
    chunks = []
    for done in range(0, budget, K._IS_BATCH):
        t, x, logq = sample_chain_proposal_whole_chunk(n, min(K._IS_BATCH, budget - done), rng)
        values = h(t, x)
        chunks.append(values * values * np.exp(-logq))
    ratios = np.concatenate(chunks)
    return K.ImportanceEstimate(float(ratios.mean()),
                                float(ratios.std(ddof=1) / math.sqrt(len(ratios))), len(ratios))


def local_clt_distance_sq_dense(horizon: int, reach: float = 10.0) -> float:
    """||rho_1 - sqrt(N) p^N_1||_2^2 by adaptive 2-D quadrature of the squared
    difference over every lattice cell that meets |x| <= reach, in the
    coordinates (s = sqrt(t), x); rho_1 has squared mass below 1e-40 beyond
    reach = 10. Slow; for N of 1 or 2."""
    root_n = math.sqrt(horizon)
    total = 0.0
    for i in range(1, horizon + 1):
        s_lo, s_hi = math.sqrt((i - 1) / horizon), math.sqrt(i / horizon)
        zmax = math.ceil(reach * root_n) + 1
        for z in range(-zmax - (zmax + i) % 2, zmax + 1, 2):
            h = root_n * rw_transition(i, z) / 2.0
            x_lo, x_hi = (z - 1) / root_n, (z + 1) / root_n

            def row(s, h=h, x_lo=x_lo, x_hi=x_hi):
                def sq(x):
                    return (math.exp(-x * x / (2 * s * s)) / math.sqrt(2 * math.pi) / s - h) ** 2
                return 2.0 * s * quad(sq, x_lo, x_hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]

            total += quad(row, s_lo, s_hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return total


def cut_grid_order_variances(grid, gamma: float, order: int) -> np.ndarray:
    """E[term_n^2] for n = 1..order at constant amplitude gamma on the grid as
    sampled, cut at +-cutoff: V_1 = w rho_0^2 and V_n = w (G^2 * V_(n-1)) per
    cell, w = gamma^2 dt dx, summed over the cells. It is the sampler's own
    convolution (chaos._propagate) with the kernel generator squared."""
    t_cells, x_cells = grid.time_cells, grid.space_cells
    offsets = np.arange(1 - x_cells, x_cells) * grid.dx
    gen = np.zeros((t_cells, 2 * x_cells - 1))
    with np.errstate(under="ignore"):
        gen[1:] = K.heat_kernel(np.arange(1, t_cells)[:, None] * grid.dt, offsets[None, :]) ** 2
    kern = np.fft.rfft2(gen, s=(C._fast_len(2 * t_cells - 1), C._fast_len(2 * x_cells - 1)))
    buffers = C._propagation_buffers(grid)
    w = gamma * gamma * grid.dt * grid.dx
    v = w * K.heat_kernel(grid.time_centers()[:, None], grid.space_centers()[None, :]) ** 2
    sums = [v.sum()]
    for _ in range(2, order + 1):
        v = w * C._propagate(v, kern, buffers)
        sums.append(v.sum())
    return np.array(sums[:order])


def unbuffered_chaos_terms(a, grid, order: int, master_seed: int, n_replicas: int,
                           replica_offset: int = 0) -> np.ndarray:
    """chaos.simulate_Z_batch with fresh arrays at every order: per order one
    rfft2 of the field, the product with the kernel spectrum, the time-axis
    ifft and the irfft of the kept rows, each a new array."""
    t_cells, x_cells = grid.time_cells, grid.space_cells
    tc, xc = grid.time_centers(), grid.space_centers()
    amp = np.asarray(a(tc[:, None], xc[None, :]), dtype=float)
    rho0 = K.heat_kernel(tc[:, None], xc[None, :])
    terms = np.zeros((n_replicas, order + 1))
    terms[:, 0] = 1.0
    if order == 0:
        return terms
    kern = C._kernel_fft(grid)
    shape = (kern.shape[0], C._fast_len(2 * x_cells - 1))
    sigma = math.sqrt(grid.dt * grid.dx)
    for r in range(n_replicas):
        xi = substream(master_seed, replica_offset + r).standard_normal((t_cells, x_cells)) * sigma
        v = amp * rho0 * xi
        terms[r, 1] = v.sum()
        for n in range(2, order + 1):
            rows = np.fft.ifft(np.fft.rfft2(v, s=shape) * kern, n=shape[0], axis=0)[1:t_cells]
            w = np.zeros_like(v)
            w[1:] = np.fft.irfft(rows, n=shape[1], axis=1)[:, x_cells - 1 : 2 * x_cells - 1]
            v = amp * xi * w
            terms[r, n] = v.sum()
    return terms

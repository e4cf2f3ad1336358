"""Walk and Gaussian transition kernels, chain products, block averages,
closed-form L2 norms of Gaussian chains, and the exact local-CLT distance.

Binomials live in log-space (gammaln). ``local_clt_distance_sq`` computes
||rho_1 - sqrt(N) p^N_1||_2^2 by a Gauss-Legendre rule per time row, with
no sampling. No subcommand runs the importance sampler
(``chain_norm_sq_mc``, ``local_clt_l2_error``): it is a test oracle, an
independent Monte-Carlo check of that distance and of the closed-form
chain norms.

scipy.special (gammaln, ndtr) is imported inside the functions that call
it, so importing collisim loads numpy alone and only the commands that
evaluate a special function pay for scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .environment import cells_of
from .polymer import band_halfwidth

_LOG2 = math.log(2.0)

#: quadrature points per g sweep in block_average_cells
POINT_BUDGET = 1_000_000

#: fewest proposal nodes local_clt_l2_error accepts
CLT_MIN_BUDGET = 10_000

#: Gauss-Legendre nodes per time row in local_clt_distance_sq; 16 and 32
#: agree to about 4e-11 at N=1 and closer at larger N
CLT_NODES = 16

#: proposal draws per importance-sampling chunk; the chunks fix the stream
_IS_BATCH = 1 << 18

#: proposal draws per block inside a chunk; the blocks bound memory
_IS_BLOCK = 1 << 14


class QuadratureError(ValueError):
    """Raised when an integrand evaluates non-finitely on a rectangle."""


def log_rw_transition(i: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log p(i, x) vectorized; -inf where the probability vanishes."""
    from scipy.special import gammaln

    i = np.asarray(i, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    valid = (i >= 1) & (np.abs(x) <= i) & (((i + x) & 1) == 0)
    up = np.where(valid, (i + x) // 2, 0)
    iref = np.where(valid, i, 1)
    logp = (
        -iref * _LOG2
        + gammaln(iref + 1.0)
        - gammaln(up + 1.0)
        - gammaln(iref - up + 1.0)
    )
    return np.where(valid, logp, -np.inf)


def heat_kernel(t, x):
    """Standard Gaussian heat kernel exp(-x^2/2t)/sqrt(2 pi t); t > 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0):
        raise ValueError("heat_kernel needs t > 0")
    x_arr = np.asarray(x, dtype=float)
    out = np.exp(-x_arr * x_arr / (2.0 * t_arr)) / np.sqrt(2.0 * math.pi * t_arr)
    if np.isscalar(t) and np.isscalar(x):
        return float(out)
    return out


def chain_density_gaussian_batch(times: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """rho_n over (m, n) batches of chains; zero off the simplex."""
    times = np.atleast_2d(np.asarray(times, dtype=float))
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    dt = np.diff(times, axis=1, prepend=0.0)
    dx = np.diff(xs, axis=1, prepend=0.0)
    ok = np.all(dt > 0.0, axis=1) & (times[:, -1] <= 1.0)
    dt_safe = np.where(dt > 0.0, dt, 1.0)
    vals = np.exp(-dx * dx / (2.0 * dt_safe)) / np.sqrt(2.0 * math.pi * dt_safe)
    return np.where(ok, vals.prod(axis=1), 0.0)


def discrete_kernel_pNn_batch(times: np.ndarray, xs: np.ndarray, horizon: int) -> np.ndarray:
    """Vectorized p^N_n over (m, n) point batches.

    Identically zero when n > N (the ceiling tuple cannot be strictly
    increasing inside [1, N]).
    """
    times = np.atleast_2d(np.asarray(times, dtype=float))
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = times.shape
    if n > horizon:
        return np.zeros(m)
    inside = np.all(times > 0.0, axis=1) & np.all(times <= 1.0, axis=1)
    t_safe = np.where(inside[:, None], times, 0.5)
    i, z = cells_of(t_safe, xs, horizon)
    ordered = np.all(np.diff(i, axis=1) > 0, axis=1) if n > 1 else np.ones(m, dtype=bool)
    ordered &= i[:, 0] >= 1
    ordered &= i[:, -1] <= horizon
    di = np.diff(i, axis=1, prepend=0)
    dz = np.diff(z, axis=1, prepend=0)
    logs = log_rw_transition(di, dz).sum(axis=1)
    with np.errstate(over="ignore"):
        vals = np.exp(logs - n * _LOG2)
    return np.where(inside & ordered, vals, 0.0)


def gauss_legendre_grid(nodes: int, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on [-1, 1]^dims: the (nodes^dims, dims)
    points and their product weights, multiplied axis by axis in order."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    points = np.stack(np.meshgrid(*([u] * dims), indexing="ij"), axis=-1).reshape(-1, dims)
    return points, functools.reduce(np.multiply.outer, [w] * dims).reshape(-1)


def block_average_cells(g, i: np.ndarray, z: np.ndarray, horizon: int, nodes: int = 4) -> np.ndarray:
    """Block averages for a batch of m lattice cells (i, z), each an (m, n)
    array; vectorized g sweeps over row chunks of at most POINT_BUDGET
    quadrature points (nodes^(2n) per cell), so memory stays bounded."""
    i = np.atleast_2d(np.asarray(i, dtype=np.int64))
    z = np.atleast_2d(np.asarray(z, dtype=np.int64))
    m, n = i.shape

    t_mid = (i - 0.5) / horizon
    t_half = 0.5 / horizon
    x_mid = z / math.sqrt(horizon)
    x_half = 1.0 / math.sqrt(horizon)

    # the rule over the 2n quadrature dimensions; halving each axis's
    # weights (an average over the rectangle) is exact
    offs, wflat = gauss_legendre_grid(nodes, 2 * n)
    wflat = wflat * 0.5 ** (2 * n)
    npts = len(wflat)

    out = np.empty(m)
    rows = max(1, POINT_BUDGET // npts)
    for r0 in range(0, m, rows):
        cells = slice(r0, r0 + rows)
        ts = t_mid[cells, None, :] + t_half * offs[None, :, :n]
        xvals = x_mid[cells, None, :] + x_half * offs[None, :, n:]
        vals = np.asarray(g(ts.reshape(-1, n), xvals.reshape(-1, n)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand is non-finite on a rectangle")
        out[cells] = (vals.reshape(-1, npts) * wflat[None, :]).sum(axis=1)
    return out


def rho_chain_norm_sq(n: int) -> float:
    """Closed form for ||rho_n||_2^2 over the simplex: 1/(2^n Gamma(n/2+1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    from scipy.special import gammaln

    return float(np.exp(-n * _LOG2 - gammaln(n / 2.0 + 1.0)))


@dataclass(frozen=True)
class ImportanceEstimate:
    value: float
    stderr: float
    n_samples: int


# proposal: Dirichlet(3/4) gaps and Student-t(3) spatial increments at
# sqrt(0.75 * gap) scale. The exact-match proposal (Dirichlet(1/2) gaps with
# N(0, gap/2) increments, i.e. rho_n(t, x sqrt 2)-shaped) has zero variance
# here, which would make the Monte Carlo check vacuous; tempering the gap
# exponent keeps the estimator genuinely random, and the polynomial t-tails
# keep weights finite against the flat cells of the discrete kernel (a
# Gaussian proposal explodes as exp(x^2/t) at the cell corners).
_PROPOSAL_ALPHA = 0.75
_PROPOSAL_XSCALE_SQ = 0.75
_T3_LOG_NORM = math.log(2.0 / (math.pi * math.sqrt(3.0)))


def _proposal_gaps(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, n) Dirichlet time gaps of the chain proposal, drawn in blocks of
    _IS_BLOCK rows; Generator.dirichlet draws row by row, so the blocks
    equal one call."""
    alpha = np.full(n + 1, _PROPOSAL_ALPHA)
    alpha[-1] = 1.0
    gaps = np.empty((size, n))
    for lo in range(0, size, _IS_BLOCK):
        hi = min(lo + _IS_BLOCK, size)
        gaps[lo:hi] = rng.dirichlet(alpha, size=hi - lo)[:, :n]
    return gaps


def _proposal_points(gaps: np.ndarray, rng: np.random.Generator):
    """(t, x, log q) for given time gaps: the Student-t(3) increments are
    drawn row-major from rng, so consecutive row blocks equal one call."""
    from scipy.special import gammaln

    n = gaps.shape[1]
    gaps = np.maximum(gaps, 1e-300)
    times = np.cumsum(gaps, axis=1)
    log_qt = (
        gammaln(n * _PROPOSAL_ALPHA + 1.0)
        - n * gammaln(_PROPOSAL_ALPHA)
        + (_PROPOSAL_ALPHA - 1.0) * np.log(gaps).sum(axis=1)
    )
    scale = np.sqrt(_PROPOSAL_XSCALE_SQ * gaps)
    u = rng.standard_t(3, size=gaps.shape)
    incr = u * scale
    log_qx = (_T3_LOG_NORM - 2.0 * np.log1p(u * u / 3.0) - np.log(scale)).sum(axis=1)
    xs = np.cumsum(incr, axis=1)
    return times, xs, log_qt + log_qx


def sample_chain_proposal(n: int, size: int, rng: np.random.Generator):
    """Draw (t, x, log q) from the tempered chain proposal on the simplex:
    every gap first, then every increment."""
    return _proposal_points(_proposal_gaps(n, size, rng), rng)


def _importance_sample(n: int, budget: int, rng: np.random.Generator, h) -> ImportanceEstimate:
    """Mean of h(t, x)^2 / q over budget proposal draws. Each _IS_BATCH chunk
    draws its gaps, then its increments block by block, so only one block's
    points are held at a time and the draws equal sample_chain_proposal's
    over the whole chunk."""
    ratios = np.empty(budget)
    for done in range(0, budget, _IS_BATCH):
        gaps = _proposal_gaps(n, min(_IS_BATCH, budget - done), rng)
        for lo in range(0, len(gaps), _IS_BLOCK):
            t, x, logq = _proposal_points(gaps[lo:lo + _IS_BLOCK], rng)
            values = h(t, x)
            ratios[done + lo:done + lo + len(values)] = values * values * np.exp(-logq)
    return ImportanceEstimate(float(ratios.mean()),
                              float(ratios.std(ddof=1) / math.sqrt(len(ratios))), len(ratios))


def chain_norm_sq_mc(n: int, budget: int, rng: np.random.Generator) -> ImportanceEstimate:
    """Importance-sampled ||rho_n||_2^2 (independent check of the closed form)."""
    return _importance_sample(n, budget, rng, chain_density_gaussian_batch)


def local_clt_l2_error(n: int, horizon: int, budget: int,
                       rng: np.random.Generator) -> ImportanceEstimate:
    """Estimate of ||rho_n - N^(n/2) p^N_n||_2^2 with a standard error.

    Report is the squared distance; take sqrt for the L2 distance. The
    stderr of the sqrt is propagated by the caller where needed.
    """
    if budget < CLT_MIN_BUDGET:
        raise ValueError(f"budget must be >= {CLT_MIN_BUDGET} nodes")
    scale = float(horizon) ** (n / 2.0)
    return _importance_sample(n, budget, rng, lambda t, x: (
        chain_density_gaussian_batch(t, x) - scale * discrete_kernel_pNn_batch(t, x, horizon)))


@dataclass(frozen=True)
class BandedValue:
    """A value computed on a cell band, and a bound on what the band drops."""

    value: float
    tail_bound: float


def local_clt_distance_sq(horizon: int) -> BandedValue:
    """||rho_1 - sqrt(N) p^N_1||_2^2 without sampling.

    With h_c = sqrt(N) p(i, z)/2 on the cell c = ((i-1)/N, i/N] x
    ((z-1)/sqrt N, (z+1)/sqrt N] of area |c| = 2 N^(-3/2), the square
    expands to 1/sqrt(pi) - 2 sum_c h_c int_c rho_1 + sum_c h_c^2 |c|.
    The last sum is sum_i p(2i, 0) / (2 sqrt N), since sum_z p(i, z)^2 is
    the chance that two walks meet at time i. Each int_c rho_1 integrates
    Phi((z+1)/sqrt(N t)) - Phi((z-1)/sqrt(N t)) over the row's times by a
    CLT_NODES-point Gauss-Legendre rule in s = sqrt(t).

    The cross term runs over the cells z >= 0 (their mirrors -z weigh the
    same) with |z| <= B = polymer.band_halfwidth(N). The cells it drops lie
    beyond |x| = B/sqrt N, where h_c <= sqrt(N)/2 exp(-(B+1)^2/2N)
    (Hoeffding) and rho_1 has mass at most 2 exp(-B^2/2N), so the value
    overstates the squared distance by at most
    tail_bound = 2 sqrt(N) exp(-((B+1)^2 + B^2)/2N); it is 0 when B = N.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    from scipy.special import ndtr

    root_n = math.sqrt(horizon)
    band = band_halfwidth(horizon)
    rows = np.arange(1, horizon + 1)
    # cell z = parity(i) + 2k of row i, k = 0..band//2; the mirror of z > 0 doubles it
    z = (rows & 1)[:, None] + 2 * np.arange(band // 2 + 1)[None, :]
    h = np.where(z <= band, 0.5 * root_n * np.exp(log_rw_transition(rows[:, None], z)), 0.0)
    h *= np.where(z == 0, 1.0, 2.0)
    # sum_z h_z (Q(z-1) - Q(z+1)) with Q the upper normal tail, regrouped by
    # cell boundary b = z - 1 (and the last cell's z + 1): one ndtr per boundary
    steps = np.diff(h, axis=1, prepend=0.0, append=0.0)
    bounds = np.concatenate([z - 1, z[:, -1:] + 1], axis=1) / root_n
    s_lo, s_hi = np.sqrt((rows - 1) / horizon), np.sqrt(rows / horizon)
    mid, half = 0.5 * (s_hi + s_lo), 0.5 * (s_hi - s_lo)
    nodes, weights = np.polynomial.legendre.leggauss(CLT_NODES)
    row_integrals = np.zeros(horizon)
    for u, w in zip(nodes, weights):
        s = mid + half * u  # dt = 2 s ds
        row_integrals += (2.0 * w) * s * (steps * ndtr(-bounds / s[:, None])).sum(axis=1)
    cross = float((half * row_integrals).sum())
    meet = float(np.exp(log_rw_transition(2 * rows, np.zeros_like(rows))).sum()) / (2.0 * root_n)
    value = rho_chain_norm_sq(1) - 2.0 * cross + meet
    tail = 0.0 if band >= horizon else (
        2.0 * root_n * math.exp(-((band + 1) ** 2 + band**2) / (2.0 * horizon)))
    return BandedValue(value, tail)

"""Walk and Gaussian transition kernels, chain products, block averages,
and closed-form L2 norms of Gaussian chains.

Binomials live in log-space (gammaln) except for small exact cases, where
comb times a power of two is an exact dyadic float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .environment import cells_of

_LOG2 = math.log(2.0)

#: exact integer binomial path stays exact in float64 up to here
_EXACT_STEPS = 60

#: quadrature points per g sweep in block_average_cells
POINT_BUDGET = 1_000_000

#: fewest proposal nodes local_clt_l2_error accepts
CLT_MIN_BUDGET = 10_000


class QuadratureError(ValueError):
    """Raised when an integrand evaluates non-finitely on a rectangle."""


def rw_transition(i: int, x: int) -> float:
    """p(i, x) = P(S_i = x) for the simple walk; 0 off the parity cone."""
    if i < 1:
        raise ValueError("i must be >= 1")
    if abs(x) > i or (i + x) % 2 != 0:
        return 0.0
    if i <= _EXACT_STEPS:
        return math.ldexp(float(math.comb(i, (i + x) // 2)), -i)
    return float(np.exp(log_rw_transition(np.array([i]), np.array([x]))[0]))


def log_rw_transition(i: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log p(i, x) vectorized; -inf where the probability vanishes."""
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


def rw_transition_array(i: np.ndarray, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.exp(log_rw_transition(i, x))


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


def chain_density_discrete(times, sites) -> float:
    """p_n(i, z): product of walk transitions along increments, zero
    outside the integer simplex (strictly increasing times, i_1 >= 1)."""
    times = np.asarray(times, dtype=np.int64)
    sites = np.asarray(sites, dtype=np.int64)
    if times.size == 0:
        return 1.0
    if times[0] < 1 or np.any(np.diff(times) <= 0):
        return 0.0
    di = np.diff(np.concatenate(([0], times)))
    dz = np.diff(np.concatenate(([0], sites)))
    logs = log_rw_transition(di, dz)
    if np.any(np.isneginf(logs)):
        return 0.0
    return float(np.exp(logs.sum()))


def chain_density_gaussian(times, xs) -> float:
    """rho_n(t, x): product of heat kernels along increments, zero outside
    the simplex."""
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if times.size == 0:
        return 1.0
    if times[0] <= 0.0 or np.any(np.diff(times) <= 0.0):
        return 0.0
    dt = np.diff(np.concatenate(([0.0], times)))
    dx = np.diff(np.concatenate(([0.0], xs)))
    return float(np.prod(heat_kernel(dt, dx)))


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


def discrete_kernel_pNn(times, xs, horizon: int) -> float:
    """p^N_n(t, x) = 2^-n p_n([t,x]_N) 1{ceil(N t) in D^N_n}."""
    out = discrete_kernel_pNn_batch(
        np.asarray(times, dtype=float)[None, :], np.asarray(xs, dtype=float)[None, :], horizon
    )
    return float(out[0])


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


def block_average(g, times, xs, horizon: int, nodes: int = 4) -> float:
    """Average of g over the (coordinatewise) rectangle of R^N_n containing
    the point, by tensor-product Gauss-Legendre quadrature."""
    times = np.asarray(times, dtype=float)[None, :]
    xs = np.asarray(xs, dtype=float)[None, :]
    i, z = cells_of(times, xs, horizon)
    return float(block_average_cells(g, i, z, horizon, nodes)[0])


def block_average_cells(g, i: np.ndarray, z: np.ndarray, horizon: int, nodes: int = 4) -> np.ndarray:
    """Block averages for a batch of m lattice cells (i, z), each an (m, n)
    array; vectorized g sweeps over row chunks of at most POINT_BUDGET
    quadrature points (nodes^(2n) per cell), so memory stays bounded."""
    i = np.atleast_2d(np.asarray(i, dtype=np.int64))
    z = np.atleast_2d(np.asarray(z, dtype=np.int64))
    m, n = i.shape
    u, w = np.polynomial.legendre.leggauss(nodes)
    half_w = w / 2.0

    t_mid = (i - 0.5) / horizon
    t_half = 0.5 / horizon
    x_mid = z / math.sqrt(horizon)
    x_half = 1.0 / math.sqrt(horizon)

    # grid over the 2n quadrature dimensions
    grids = np.meshgrid(*([u] * (2 * n)), indexing="ij")
    weights = np.ones_like(grids[0])
    for ax in range(2 * n):
        shape = [1] * (2 * n)
        shape[ax] = nodes
        weights = weights * half_w.reshape(shape)
    npts = nodes ** (2 * n)
    offs = np.stack([grid.reshape(-1) for grid in grids], axis=1)  # (npts, 2n)
    wflat = weights.reshape(-1)

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
    return float(np.exp(-n * _LOG2 - gammaln(n / 2.0 + 1.0)))


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


def sample_chain_proposal(n: int, size: int, rng: np.random.Generator):
    """Draw (t, x, log q) from the tempered chain proposal on the simplex."""
    alpha = np.full(n + 1, _PROPOSAL_ALPHA)
    alpha[-1] = 1.0
    gaps = rng.dirichlet(alpha, size=size)[:, :n]
    gaps = np.maximum(gaps, 1e-300)
    times = np.cumsum(gaps, axis=1)
    log_qt = (
        gammaln(n * _PROPOSAL_ALPHA + 1.0)
        - n * gammaln(_PROPOSAL_ALPHA)
        + (_PROPOSAL_ALPHA - 1.0) * np.log(gaps).sum(axis=1)
    )
    scale = np.sqrt(_PROPOSAL_XSCALE_SQ * gaps)
    u = rng.standard_t(3, size=(size, n))
    incr = u * scale
    log_qx = (_T3_LOG_NORM - 2.0 * np.log1p(u * u / 3.0) - np.log(scale)).sum(axis=1)
    xs = np.cumsum(incr, axis=1)
    return times, xs, log_qt + log_qx


def _importance_mean(h_over_q: np.ndarray) -> ImportanceEstimate:
    m = float(h_over_q.mean())
    s = float(h_over_q.std(ddof=1) / math.sqrt(len(h_over_q)))
    return ImportanceEstimate(m, s, len(h_over_q))


def chain_norm_sq_mc(n: int, budget: int, rng: np.random.Generator, batch: int = 1 << 18) -> ImportanceEstimate:
    """Importance-sampled ||rho_n||_2^2 (independent check of the closed form)."""
    chunks = []
    done = 0
    while done < budget:
        size = min(batch, budget - done)
        t, x, logq = sample_chain_proposal(n, size, rng)
        rho = chain_density_gaussian_batch(t, x)
        chunks.append(rho * rho * np.exp(-logq))
        done += size
    return _importance_mean(np.concatenate(chunks))


def local_clt_l2_error(n: int, horizon: int, budget: int, rng: np.random.Generator, batch: int = 1 << 18) -> ImportanceEstimate:
    """Estimate of ||rho_n - N^(n/2) p^N_n||_2^2 with a standard error.

    Report is the squared distance; take sqrt for the L2 distance. The
    stderr of the sqrt is propagated by the caller where needed.
    """
    if budget < CLT_MIN_BUDGET:
        raise ValueError(f"budget must be >= {CLT_MIN_BUDGET} nodes")
    chunks = []
    done = 0
    scale = float(horizon) ** (n / 2.0)
    while done < budget:
        size = min(batch, budget - done)
        t, x, logq = sample_chain_proposal(n, size, rng)
        rho = chain_density_gaussian_batch(t, x)
        pn = discrete_kernel_pNn_batch(t, x, horizon)
        diff = rho - scale * pn
        chunks.append(diff * diff * np.exp(-logq))
        done += size
    return _importance_mean(np.concatenate(chunks))

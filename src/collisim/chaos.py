"""Grid white-noise simulation of the chaos-series limit variable.

Each grid cell carries an independent centered Gaussian with variance equal
to its area; chain terms are built by a forward recursion over chaos orders
with strict time ordering between consecutive cells (the simplex support).
Kernels are evaluated at cell centers (midpoint rule). The scheme's own
exact second moment (``scheme_order_variances``) measures the
discretization bias deterministically, so one Monte-Carlo pass on one grid
suffices. Extrapolated to zero mesh over a ladder of grids
(``extrapolated_chain_norms``), the same variances give the chain norms
||rho_n||_2^2 with a stated error and no sampling.

One step of the recursion is a causal space-time convolution with the heat
kernel, which is translation-invariant on the grid, so it runs as one
zero-padded 2-D FFT product: O(TX log(TX)) per order and replica, exact up
to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .environment import ContinuumAmplitude
from .kernels import heat_kernel, rho_chain_norm_sq
from .rngs import substream

__all__ = [
    "WhiteNoiseGrid",
    "simulate_Z_batch",
    "second_moment_series",
    "estimate_Z_moments",
    "extrapolated_chain_norms",
]

_TAIL_TERMS = 400  # dropped orders summed by chaos_tail_bound
_SCHEME_BLOCK = 1 << 17  # kernel values per block in scheme_order_variances: 1 MB


class GridResolutionError(ValueError):
    """Raised when the time mesh cannot order the requested chain length."""


@dataclass(frozen=True)
class WhiteNoiseGrid:
    """Cells on [0,1] x [-cutoff, cutoff]: time_cells slices, dx columns."""

    time_cells: int
    dx: float
    cutoff: float = 6.0

    def __post_init__(self):
        if self.time_cells < 1 or self.dx <= 0.0 or self.cutoff <= 0.0:
            raise ValueError("grid parameters must be positive")
        if self.dx > math.sqrt(self.dt) + 1e-12:
            raise ValueError("need dx <= sqrt(dt) for stable midpoint kernels")
        if self.space_cells < 1:
            raise ValueError("cutoff too small for dx: the grid has no space cells")

    @property
    def dt(self) -> float:
        return 1.0 / self.time_cells

    @property
    def space_cells(self) -> int:
        return int(round(2.0 * self.cutoff / self.dx))

    def time_centers(self) -> np.ndarray:
        return (np.arange(self.time_cells) + 0.5) * self.dt

    def space_centers(self) -> np.ndarray:
        return -self.cutoff + (np.arange(self.space_cells) + 0.5) * self.dx

    def refined(self) -> "WhiteNoiseGrid":
        return replace(self, time_cells=2 * self.time_cells, dx=self.dx / 2.0)


def chaos_tail_bound(sup_amplitude: float, order: int) -> float:
    """L2 bound on the dropped tail: sum_{n > order} s^(2n) ||rho_n||_2^2."""
    s2 = sup_amplitude * sup_amplitude
    return float(sum(s2**n * rho_chain_norm_sq(n)
                     for n in range(order + 1, order + 1 + _TAIL_TERMS)))


def _fast_len(n: int) -> int:
    """Smallest 2·3·5-smooth integer >= n, a length numpy.fft transforms fast."""
    if n < 1:
        raise ValueError(f"FFT length must be >= 1, got {n}")
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _kernel_fft(grid: WhiteNoiseGrid) -> np.ndarray:
    """rfft2 of the kernel generator G[d, X-1+e] = heat kernel over time lag
    d*dt and offset e*dx, for d = 0..T-1 and e = -(X-1)..X-1; G[0] = 0
    keeps consecutive chain cells strictly time-ordered. The padding to at
    least (2T-1, 2X-1) keeps the circular product from wrapping onto the grid."""
    t_cells, x_cells = grid.time_cells, grid.space_cells
    offsets = np.arange(1 - x_cells, x_cells) * grid.dx
    lags = np.arange(1, t_cells, dtype=float) * grid.dt
    gen = np.zeros((t_cells, 2 * x_cells - 1))
    with np.errstate(under="ignore"):
        gen[1:] = heat_kernel(lags[:, None], offsets[None, :])
    return np.fft.rfft2(gen, s=(_fast_len(2 * t_cells - 1), _fast_len(2 * x_cells - 1)))


def _propagate(v: np.ndarray, kernel_fft: np.ndarray) -> np.ndarray:
    """w[t, x] = sum_{s<t} sum_y v[s, y] G(t-s, x-y) for a (T, X) field v."""
    t_cells, x_cells = v.shape
    shape = (kernel_fft.shape[0], _fast_len(2 * x_cells - 1))
    # the two inverse transforms of irfft2(., s=shape), bit for bit, with the
    # last one run on the kept time rows only
    rows = np.fft.ifft(np.fft.rfft2(v, s=shape) * kernel_fft, n=shape[0], axis=0)[1:t_cells]
    w = np.zeros_like(v)
    # no chain ends in slice 0
    w[1:] = np.fft.irfft(rows, n=shape[1], axis=1)[:, x_cells - 1 : 2 * x_cells - 1]
    return w


def simulate_Z_batch(a: ContinuumAmplitude, grid: WhiteNoiseGrid, order: int,
                     master_seed: int, n_replicas: int, replica_offset: int = 0) -> np.ndarray:
    """(n_replicas, order+1) per-order chaos terms, term_0 = 1.

    Replica r draws its cell Gaussians from
    substream(master_seed, replica_offset + r), so batching is invisible to
    results. Each order after the first is one FFT convolution
    (``_propagate``): O(TX log(TX)) per order and replica, exact up to
    rounding.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order >= 1 and grid.dt >= 1.0 / order:
        raise GridResolutionError(
            f"dt={grid.dt} cannot time-order chains of length {order}")
    t_cells, x_cells = grid.time_cells, grid.space_cells
    tc = grid.time_centers()
    xc = grid.space_centers()
    amp = np.asarray(a(tc[:, None], xc[None, :]), dtype=float)
    rho0 = np.exp(-(xc[None, :] ** 2) / (2.0 * tc[:, None])) / np.sqrt(2.0 * math.pi * tc)[:, None]
    terms = np.zeros((n_replicas, order + 1))
    terms[:, 0] = 1.0
    if order == 0:
        return terms
    kern = _kernel_fft(grid)
    sigma = math.sqrt(grid.dt * grid.dx)
    for r in range(n_replicas):
        rng = substream(master_seed, replica_offset + r)
        xi = rng.standard_normal((t_cells, x_cells)) * sigma
        v = amp * rho0 * xi
        terms[r, 1] = v.sum()
        for n in range(2, order + 1):
            v = amp * xi * _propagate(v, kern)
            terms[r, n] = v.sum()
    return terms


def second_moment_series(gamma: float, tol: float = 1e-12) -> float:
    """sum_n gamma^(2n) ||rho_n||_2^2, summed until the geometric tail bound
    sits below tol. The series is entire in gamma."""
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    g2 = gamma * gamma
    total = 1.0  # n = 0 term
    term = 1.0
    n = 0
    while n <= 10_000:
        n += 1
        nxt = g2**n * rho_chain_norm_sq(n)
        # once the ratio drops under 1/2, the remaining tail is < 2 * nxt
        if term > 0.0 and nxt <= 0.5 * term and 2.0 * nxt < tol:
            return total
        total += nxt
        term = nxt
    return total  # unreachable for finite gamma; Gamma decay dominates


@dataclass(frozen=True)
class ZMomentReport:
    grid: WhiteNoiseGrid       # the sampled grid
    moments: np.ndarray        # estimates of E[Z^j], j = 1..k
    stderrs: np.ndarray
    truncation_bound: float
    n_replicas: int
    values: np.ndarray         # per-replica Z


def estimate_Z_moments(a: ContinuumAmplitude, grid: WhiteNoiseGrid, order: int,
                       k: int, n_replicas: int, master_seed: int) -> ZMomentReport:
    """Monte-Carlo moments of the simulated chaos value on grid.refined(),
    the grid the report carries.

    Replica r draws from substream(master_seed, n_replicas + r), the key it
    held when a coarse pass on grid took keys 0..n_replicas-1, so the
    moments and values did not change when that pass was dropped.

    Each replica is an antithetic pair in the noise sign: flipping the field
    flips exactly the odd-order terms, so the mirrored value costs nothing
    and cancels the dominant odd-chaos noise in the moment estimates.
    """
    fine = grid.refined()
    terms = simulate_Z_batch(a, fine, order, master_seed, n_replicas,
                             replica_offset=n_replicas)
    signs = (-1.0) ** np.arange(order + 1)
    exponents = np.arange(1, k + 1)
    plus = terms.sum(axis=1)
    minus = (terms * signs[None, :]).sum(axis=1)
    vals = (plus[:, None] ** exponents[None, :] + minus[:, None] ** exponents[None, :]) / 2.0
    return ZMomentReport(
        grid=fine,
        moments=vals.mean(axis=0),
        stderrs=vals.std(axis=0, ddof=1) / math.sqrt(n_replicas),
        truncation_bound=chaos_tail_bound(a.sup_bound, order),
        n_replicas=n_replicas,
        values=plus,
    )


def scheme_order_variances(grid: WhiteNoiseGrid, gamma: float, order: int) -> np.ndarray:
    """Exact variance of each chaos term for constant amplitude gamma on the
    given grid (the discrete counterpart of gamma^(2n) ||rho_n||_2^2).

    Spatial sums over increments use the full difference grid, neglecting
    the cutoff-edge deficit (bounded by the Gaussian mass beyond the cutoff,
    which the default cutoff makes negligible). Deterministic: 1 + the sum is
    the grid's exact E[Z^2], which separates simulator correctness from
    discretization bias.
    """
    g2 = gamma * gamma
    dt, dx, t_cells = grid.dt, grid.dx, grid.time_cells
    tc = grid.time_centers()
    xc = grid.space_centers()
    # origin-anchored squared-kernel column sums
    s0 = (np.exp(-(xc[None, :] ** 2) / tc[:, None])
          / (2.0 * math.pi * tc[:, None])).sum(axis=1) * dx
    diffs = np.arange(-2 * grid.space_cells, 2 * grid.space_cells + 1) * dx
    lags = np.arange(1, t_cells) * dt
    # per lag row; blocks of rows bound the (lags, diffs) temporaries
    s_lag = np.empty(len(lags))
    rows = max(1, _SCHEME_BLOCK // len(diffs))
    for lo in range(0, len(lags), rows):
        block = lags[lo:lo + rows, None]
        s_lag[lo:lo + rows] = (np.exp(-(diffs[None, :] ** 2) / block)
                               / (2.0 * math.pi * block)).sum(axis=1)
    s_lag *= dx
    variances = np.zeros(order + 1)
    chain = s0.copy()  # weight of chains ending at each slice
    variances[1] = g2 * dt * chain.sum() if order >= 1 else 0.0
    for n in range(2, order + 1):
        # causal: chains ending at slice i extend those ending before it
        chain = np.concatenate(([0.0], np.convolve(chain, s_lag)[: t_cells - 1]))
        variances[n] = g2**n * dt**n * chain.sum()
    return variances[1:]


#: the grids extrapolated_chain_norms fits: WhiteNoiseGrid(32, 0.175) and its
#: refined() grids up to T = 512 (halving dx is exact in floating point)
NORM_LADDER = tuple(WhiteNoiseGrid(32 << j, 0.175 / 2**j) for j in range(5))


@dataclass(frozen=True)
class ChainNormExtrapolation:
    scheme: np.ndarray  # (grid, order): scheme_order_variances(grid, 1, max_order) per NORM_LADDER grid
    values: np.ndarray  # ||rho_n||_2^2 for n = 1..max_order, extrapolated to zero mesh
    errors: np.ndarray  # stated error: |values - the same fit without the finest grid|


def _value_at_zero(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """At x = 0, the polynomial of degree len(x) - 1 through the points
    (x_j, y_j), for each column of y (Lagrange form)."""
    weights = np.array([np.prod([xm / (xm - xj) for m, xm in enumerate(x) if m != j])
                        for j, xj in enumerate(x)])
    return weights @ y


def extrapolated_chain_norms(max_order: int) -> ChainNormExtrapolation:
    """||rho_n||_2^2 for n = 1..max_order from the exact unit-amplitude scheme
    variances on the NORM_LADDER grids, by Richardson extrapolation in
    h^(1/2) (h = dt): c0 + sum_k c_k h^(k/2) through every grid, read at
    h = 0. The stated error is the gap to the fit that drops the finest grid.
    Deterministic; the five grids take well under a second."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    coarsest = NORM_LADDER[0]
    if coarsest.dt >= 1.0 / max_order:
        raise GridResolutionError(
            f"dt={coarsest.dt} cannot time-order chains of length {max_order}")
    scheme = np.array([scheme_order_variances(grid, 1.0, max_order) for grid in NORM_LADDER])
    root_h = np.sqrt([grid.dt for grid in NORM_LADDER])
    values = _value_at_zero(root_h, scheme)
    errors = np.abs(values - _value_at_zero(root_h[:-1], scheme[:-1]))
    return ChainNormExtrapolation(scheme, values, errors)

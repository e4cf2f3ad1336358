"""Grid white-noise simulation of the chaos-series limit variable.

Each grid cell carries an independent centered Gaussian with variance equal
to its area; chain terms are built by a forward recursion over chaos orders
with strict time ordering between consecutive cells (the simplex support).
Kernels are evaluated at cell centers (midpoint rule). The scheme's own
exact second moment (``scheme_order_variances``) measures the
discretization bias deterministically, so one Monte-Carlo pass on the
grid it is given suffices. Every grid covers the space window [-CUTOFF,
CUTOFF] = [-6, 6]. ``WhiteNoiseGrid`` states each grid rule once, and a
broken rule raises a ``GridError`` naming the parameters it reads.
Extrapolated to zero mesh over a ladder of grids
(``extrapolated_chain_norms``), the same variances give the chain norms
||rho_n||_2^2 with a stated error and no sampling. The continuum second
moment at constant amplitude is in closed form (``second_moment_series``).

One step of the recursion is a causal space-time convolution with the heat
kernel, which is translation-invariant on the grid, so it runs as one
zero-padded 2-D FFT product: O(TX log(TX)) per order and replica, exact up
to rounding. Each ``simulate_Z_batch`` call allocates the buffers this
product runs in once (``_propagation_buffers``: the zero-padded spectrum,
one complex work array and the inverse rows) next to the field and the
noise, and every order of every replica reuses them; nothing outlives the
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .environment import ContinuumAmplitude
from .kernels import Stated, heat_kernel, log_rho_chain_norm_sq, rho_chain_norm_sq
from .rngs import CHAOS, substream

__all__ = [
    "WhiteNoiseGrid",
    "simulate_Z_batch",
    "second_moment_series",
    "estimate_Z_moments",
    "extrapolated_chain_norms",
]


CUTOFF = 6.0  # every grid's space window is [-CUTOFF, CUTOFF]


class GridError(ValueError):
    """A grid rule is broken; ``fields`` names the parameters the rule reads
    (``time_cells``, ``dx`` or the chain ``order``)."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class WhiteNoiseGrid:
    """Cells on [0,1] x [-CUTOFF, CUTOFF]: time_cells slices, dx columns."""

    time_cells: int
    dx: float

    def __post_init__(self):
        if not self.time_cells >= 1:
            raise GridError(f"need time_cells >= 1, got {self.time_cells!r}", "time_cells")
        if not self.dx > 0:
            raise GridError(f"need dx > 0, got {self.dx!r}", "dx")
        if self.dx > math.sqrt(self.dt) + 1e-12:
            raise GridError("need dx <= sqrt(dt) = sqrt(1/time_cells) for stable midpoint "
                            "kernels", "dx", "time_cells")

    def check_order(self, order: int) -> None:
        """Raise a GridError unless dt < 1/order, so that the time mesh can
        strictly order the cells of a chain of length order."""
        if order >= 1 and self.dt >= 1.0 / order:
            raise GridError(f"dt={self.dt} cannot time-order chains of length {order}",
                            "time_cells", "order")

    @property
    def dt(self) -> float:
        return 1.0 / self.time_cells

    @property
    def space_cells(self) -> int:
        return int(round(2.0 * CUTOFF / self.dx))

    def time_centers(self) -> np.ndarray:
        return (np.arange(self.time_cells) + 0.5) * self.dt

    def space_centers(self) -> np.ndarray:
        return -CUTOFF + (np.arange(self.space_cells) + 0.5) * self.dx

    def refined(self) -> "WhiteNoiseGrid":
        return replace(self, time_cells=2 * self.time_cells, dx=self.dx / 2.0)


def chaos_tail_bound(sup_amplitude: float, order: int) -> float:
    """L2 bound on the dropped tail: sum_{n > order} s^(2n) ||rho_n||_2^2.

    The terms peak near n = s^4/2; past the peak the sum stops at the first
    term below a quarter ulp of the total, which no later term can change.
    A term whose power s^(2n) overflows is taken in log space, so the bound
    is inf only where the tail leaves float range."""
    s2 = float(sup_amplitude * sup_amplitude)
    total, last, n = 0.0, 0.0, order
    while True:
        n += 1
        try:
            term = s2**n * rho_chain_norm_sq(n)
        except OverflowError:
            with np.errstate(over="ignore"):
                term = float(np.exp(n * math.log(s2) + log_rho_chain_norm_sq(n)))
        total += term
        if term <= last and term <= math.ulp(total) / 4:
            return total
        last = term


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


def _propagation_buffers(grid: WhiteNoiseGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays ``_propagate`` runs in on grid, for any kernel spectrum of
    ``_kernel_fft``'s shape: the padded spectrum, whose rows T and beyond stay
    zero; one complex work array of the same shape; and the inverse rows
    (T, L1), whose row 0 stays zero."""
    t_cells, x_cells = grid.time_cells, grid.space_cells
    width = _fast_len(2 * x_cells - 1)
    spec = np.zeros((_fast_len(2 * t_cells - 1), width // 2 + 1), dtype=complex)
    return spec, np.empty_like(spec), np.zeros((t_cells, width))


def _propagate(v: np.ndarray, kernel_fft: np.ndarray,
               buffers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """w[t, x] = sum_{s<t} sum_y v[s, y] G(t-s, x-y) for a (T, X) field v, as
    a (T, X) view into the buffers of ``_propagation_buffers``, valid until
    their next use. v is only read.

    These are the 1-D transforms of irfft2(rfft2(v, s) * kernel_fft, s), bit
    for bit, with the last one run on the kept time rows only."""
    spec, work, back = buffers
    t_cells, x_cells = v.shape
    np.fft.rfft(v, n=back.shape[1], axis=1, out=spec[:t_cells])
    np.fft.fft(spec, axis=0, out=work)
    work *= kernel_fft
    np.fft.ifft(work, axis=0, out=work)
    # no chain ends in slice 0: row 0 of back is never written
    np.fft.irfft(work[1:t_cells], n=back.shape[1], axis=1, out=back[1:])
    return back[:, x_cells - 1 : 2 * x_cells - 1]


def simulate_Z_batch(a: ContinuumAmplitude, grid: WhiteNoiseGrid, order: int,
                     master_seed: int, n_replicas: int) -> np.ndarray:
    """(n_replicas, order+1) per-order chaos terms, term_0 = 1.

    Replica r draws its cell Gaussians from
    substream(master_seed, CHAOS, grid.time_cells, r), so batching is
    invisible to results: a call's first m replicas are an m-replica call.
    Each order after the first is one FFT convolution (``_propagate``):
    O(TX log(TX)) per order and replica, exact up to rounding. The field,
    the noise and the FFT buffers are allocated once per call; each order
    overwrites the field in place.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    grid.check_order(order)
    t_cells, x_cells = grid.time_cells, grid.space_cells
    tc = grid.time_centers()
    xc = grid.space_centers()
    amp = np.asarray(a(tc[:, None], xc[None, :]), dtype=float)
    terms = np.zeros((n_replicas, order + 1))
    terms[:, 0] = 1.0
    if order == 0:
        return terms
    amp_rho0 = amp * heat_kernel(tc[:, None], xc[None, :])
    kern = _kernel_fft(grid)
    buffers = _propagation_buffers(grid)
    sigma = math.sqrt(grid.dt * grid.dx)
    xi, amp_xi, v = (np.empty((t_cells, x_cells)) for _ in range(3))
    for r in range(n_replicas):
        substream(master_seed, CHAOS, t_cells, r).standard_normal(out=xi)
        xi *= sigma
        np.multiply(amp, xi, out=amp_xi)
        np.multiply(amp_rho0, xi, out=v)
        terms[r, 1] = v.sum()
        for n in range(2, order + 1):
            # row 0 of the propagated field is zero, so v[0] = amp_xi[0] * 0.0
            np.multiply(amp_xi, _propagate(v, kern, buffers), out=v)
            terms[r, n] = v.sum()
    return terms


def second_moment_series(gamma: float) -> float:
    """sum_n gamma^(2n) ||rho_n||_2^2 = E_{1/2}(gamma^2/2), the Mittag-Leffler
    function, in closed form: exp(gamma^4/4) erfc(-gamma^2/2). It is inf where
    that value leaves float range (|gamma| > 7.29777)."""
    from scipy.special import erfcx

    return float(erfcx(-gamma * gamma / 2.0))


def estimate_Z_moments(a: ContinuumAmplitude, grid: WhiteNoiseGrid, order: int, k: int,
                       n_replicas: int, master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-replica powers of the simulated chaos value on grid: the
    (n_replicas, k) antithetic powers, column j - 1 estimating E[Z^j], and
    the (n_replicas,) values of Z, replica r being replica r of
    simulate_Z_batch. The caller summarises the columns it reads.

    Each replica is an antithetic pair in the noise sign: flipping the field
    flips exactly the odd-order terms, so the mirrored value costs nothing
    and cancels the dominant odd-chaos noise in the moment estimates.
    """
    terms = simulate_Z_batch(a, grid, order, master_seed, n_replicas)
    signs = (-1.0) ** np.arange(order + 1)
    exponents = np.arange(1, k + 1)
    plus = terms.sum(axis=1)
    minus = (terms * signs[None, :]).sum(axis=1)
    powers = (plus[:, None] ** exponents[None, :] + minus[:, None] ** exponents[None, :]) / 2.0
    return powers, plus


def _squared_kernel_sums(times: np.ndarray, points: np.ndarray, dx: float) -> np.ndarray:
    """sum_y p_t(y)^2 dx over the points y, for each time t, one time row at
    a time; p_t(y)^2 = exp(-y^2/t) / (2 pi t)."""
    neg_sq = -(points**2)
    return np.array([(np.exp(neg_sq / t) / (2.0 * math.pi * t)).sum() for t in times]) * dx


def scheme_order_variances(grid: WhiteNoiseGrid, gamma: float, order: int) -> np.ndarray:
    """Exact variance of each chaos term n = 1..order for constant amplitude
    gamma on the given grid (the discrete counterpart of gamma^(2n)
    ||rho_n||_2^2); none at order 0.

    Spatial sums over increments use the uncut difference grid, neglecting
    the chains that leave the window: below rounding at CUTOFF = 6 (a
    window of +-2 would miss 4.6e-5 of E[Z^2] at T=64, gamma^2 = 1/2).
    Deterministic: 1 + the sum is the grid's exact E[Z^2], which separates
    simulator correctness from discretization bias.
    """
    g2 = gamma * gamma
    dt, dx, t_cells = grid.dt, grid.dx, grid.time_cells
    diffs = np.arange(-2 * grid.space_cells, 2 * grid.space_cells + 1) * dx
    s_lag = _squared_kernel_sums(np.arange(1, t_cells) * dt, diffs, dx)
    variances = np.zeros(order)
    # weight of chains ending at each slice: origin-anchored sums
    chain = _squared_kernel_sums(grid.time_centers(), grid.space_centers(), dx)
    for n in range(1, order + 1):
        if n > 1:
            # causal: chains ending at slice i extend those ending before it
            chain = np.concatenate(([0.0], np.convolve(chain, s_lag)[: t_cells - 1]))
        variances[n - 1] = g2**n * dt**n * chain.sum()
    return variances


#: the grids extrapolated_chain_norms fits: WhiteNoiseGrid(32, 0.175) and its
#: refined() grids up to T = 512 (halving dx is exact in floating point)
NORM_LADDER = tuple(WhiteNoiseGrid(32 << j, 0.175 / 2**j) for j in range(5))


def _value_at_zero(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """At x = 0, the polynomial of degree len(x) - 1 through the points
    (x_j, y_j), for each column of y (Lagrange form)."""
    weights = np.array([np.prod([xm / (xm - xj) for m, xm in enumerate(x) if m != j])
                        for j, xj in enumerate(x)])
    return weights @ y


def extrapolated_chain_norms(max_order: int) -> Stated:
    """||rho_n||_2^2 for n = 1..max_order, an array indexed by n - 1, from the
    exact unit-amplitude scheme variances on the NORM_LADDER grids, by
    Richardson extrapolation in h^(1/2) (h = dt): c0 + sum_k c_k h^(k/2)
    through every grid, read at h = 0. The stated error is the gap to the fit
    that drops the finest grid. Deterministic; the five grids take well under
    a second."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    NORM_LADDER[0].check_order(max_order)
    scheme = np.array([scheme_order_variances(grid, 1.0, max_order) for grid in NORM_LADDER])
    root_h = np.sqrt([grid.dt for grid in NORM_LADDER])
    values = _value_at_zero(root_h, scheme)
    errors = np.abs(values - _value_at_zero(root_h[:-1], scheme[:-1]))
    return Stated(values, errors)

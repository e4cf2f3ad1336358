import math

import numpy as np
import pytest
from scipy.special import erfc

from collisim import chaos as C
from collisim.environment import ContinuumAmplitude
from collisim.kernels import rho_chain_norm_sq
from collisim.rngs import substream


def _const_amp(gamma):
    return ContinuumAmplitude(
        lambda t, x: np.full(np.broadcast(t, x).shape, float(gamma)), abs(gamma))


def _grid(time_cells=32, cutoff=6.0):
    return C.WhiteNoiseGrid(time_cells, math.sqrt(1.0 / time_cells) * 0.999, cutoff)


def _heat(lag, offset):
    return np.exp(-offset**2 / (2.0 * lag)) / np.sqrt(2.0 * math.pi * lag)


def _lag_loop_terms(a, grid, order, master_seed, n_replicas):
    """Reference propagation: one matmul per time lag against a stack of
    (X, X) heat-kernel matrices, the O(T^2 X^2) form of the same sums."""
    t_cells, x_cells = grid.time_cells, grid.space_cells
    tc, xc = grid.time_centers(), grid.space_centers()
    lags = np.arange(1, t_cells) * grid.dt
    kernels = _heat(lags[:, None, None], xc[None, None, :] - xc[None, :, None])
    amp = np.asarray(a(tc[:, None], xc[None, :]), dtype=float)
    rho0 = _heat(tc[:, None], xc[None, :])
    sigma = math.sqrt(grid.dt * grid.dx)
    terms = np.zeros((n_replicas, order + 1))
    terms[:, 0] = 1.0
    for r in range(n_replicas):
        xi = substream(master_seed, r).standard_normal((t_cells, x_cells)) * sigma
        v = amp * rho0 * xi
        terms[r, 1] = v.sum()
        for n in range(2, order + 1):
            w = np.zeros_like(v)
            for lag in range(1, t_cells):
                w[lag:] += v[: t_cells - lag] @ kernels[lag - 1]
            v = amp * xi * w
            terms[r, n] = v.sum()
    return terms


def test_grid_validation():
    with pytest.raises(ValueError):
        C.WhiteNoiseGrid(16, 0.5, 6.0)  # dx > sqrt(dt)
    with pytest.raises(ValueError):
        C.WhiteNoiseGrid(0, 0.1, 6.0)
    with pytest.raises(ValueError, match="no space cells"):
        C.WhiteNoiseGrid(32, 0.175, 0.01)  # 2 cutoff / dx rounds to 0
    g = _grid(16)
    assert g.refined().time_cells == 32
    assert g.refined().dx == pytest.approx(g.dx / 2)


def test_zero_amplitude_gives_one():
    terms = C.simulate_Z_batch(_const_amp(0.0), _grid(16), 4, 99, 1)
    assert terms.sum() == 1.0


def test_order_zero_gives_one():
    terms = C.simulate_Z_batch(_const_amp(0.7), _grid(16), 0, 99, 1)
    assert terms.tolist() == [[1.0]]


def test_resolution_guard():
    with pytest.raises(C.GridResolutionError):
        C.simulate_Z_batch(_const_amp(0.5), _grid(4), 6, 1, 1)


# 2T-1 and 2X-1 are not 5-smooth (13, 21 and 21, 37), so the padded
# transform is longer than the linear convolution on both axes
ODD_GRIDS = [(7, 0.3, 1.65), (11, 0.25, 2.375)]


@pytest.mark.parametrize("time_cells, dx, cutoff", ODD_GRIDS)
def test_fft_propagation_matches_lag_loop(time_cells, dx, cutoff):
    grid = C.WhiteNoiseGrid(time_cells, dx, cutoff)
    assert grid.space_cells in (11, 19)
    amp = ContinuumAmplitude(lambda t, x: 0.9 * np.cos(2.0 * t + 0.7 * x) + 0.2 * t, 1.1)
    order = time_cells - 1
    ref = _lag_loop_terms(amp, grid, order, 4242, 4)
    got = C.simulate_Z_batch(amp, grid, order, 4242, 4)
    scale = np.abs(ref).max(axis=0)
    assert np.all(scale[1:] > 0.0)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale), np.abs(got - ref).max(axis=0) / scale


@pytest.mark.parametrize("time_cells, dx, cutoff", ODD_GRIDS)
def test_fft_propagation_does_not_wrap(time_cells, dx, cutoff):
    # a unit impulse at each corner cell propagates to the shifted kernel
    # generator and to nothing else: circular wrap of the padded transform
    # would leak mass onto the opposite edge or the early slices
    grid = C.WhiteNoiseGrid(time_cells, dx, cutoff)
    t_cells, x_cells = time_cells, grid.space_cells
    kern = C._kernel_fft(grid)
    t_idx = np.arange(t_cells)[:, None]
    x_idx = np.arange(x_cells)[None, :]
    atol = 1e-12 * _heat(grid.dt, 0.0)
    for s, y in ((0, 0), (0, x_cells - 1), (t_cells - 1, 0), (t_cells - 1, x_cells - 1)):
        v = np.zeros((t_cells, x_cells))
        v[s, y] = 1.0
        w = C._propagate(v, kern)
        lag = np.maximum(t_idx - s, 1) * grid.dt
        expected = np.where(t_idx > s, _heat(lag, (x_idx - y) * dx), 0.0)
        assert np.all(w[0] == 0.0)
        assert np.all(np.abs(w - expected) <= atol), (s, y, np.abs(w - expected).max())


@pytest.mark.parametrize("refinements", [0, 1, 2])
def test_propagate_is_the_irfft2_formula_bit_for_bit(refinements):
    # the CLI grid (T=32, dx=0.175) and its refinements T=64 and T=128:
    # _propagate runs irfft2's two inverse transforms, the last on the kept
    # rows only, and must give irfft2(rfft2(v) * kernel) byte for byte
    grid = C.WhiteNoiseGrid(32, 0.175)
    for _ in range(refinements):
        grid = grid.refined()
    t_cells, x_cells = grid.time_cells, grid.space_cells
    kern = C._kernel_fft(grid)
    v = substream(77, refinements).standard_normal((t_cells, x_cells))
    shape = (kern.shape[0], C._fast_len(2 * x_cells - 1))
    full = np.fft.irfft2(np.fft.rfft2(v, s=shape) * kern, s=shape)
    want = np.zeros_like(v)
    want[1:] = full[1:t_cells, x_cells - 1:2 * x_cells - 1]
    assert C._propagate(v, kern).tobytes() == want.tobytes()


def test_mean_one_over_seeds():
    terms = C.simulate_Z_batch(_const_amp(math.sqrt(2) * 0.5), _grid(16), 4, 1000, 1000)
    vals = terms.sum(axis=1)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) < 4 * se


def test_per_order_means_are_centered():
    terms = C.simulate_Z_batch(_const_amp(0.8), _grid(16), 3, 7, 1500)
    for n in (1, 2, 3):
        se = terms[:, n].std(ddof=1) / math.sqrt(len(terms))
        assert abs(terms[:, n].mean()) < 4 * se


def test_orthogonality_of_orders():
    terms = C.simulate_Z_batch(_const_amp(0.8), _grid(16), 3, 11, 1500)
    for a, b in ((1, 2), (1, 3), (2, 3)):
        cov = np.cov(terms[:, a], terms[:, b], ddof=1)[0, 1]
        se = math.sqrt((terms[:, a] ** 2 * terms[:, b] ** 2).mean() / len(terms))
        assert abs(cov) < 4 * se


def test_variance_additivity():
    terms = C.simulate_Z_batch(_const_amp(0.7), _grid(16), 4, 13, 1500)
    vals = terms.sum(axis=1)
    total = vals.var(ddof=1)
    per_order = sum(terms[:, n].var(ddof=1) for n in range(1, 5))
    # orthogonality makes variances additive up to sampling error
    assert abs(total - per_order) / total < 0.15


def test_sample_variances_match_exact_scheme():
    gamma = math.sqrt(2) * 0.5
    grid = _grid(32)
    scheme = C.scheme_order_variances(grid, gamma, 4)
    terms = C.simulate_Z_batch(_const_amp(gamma), grid, 4, 17, 1200)
    for n in range(1, 5):
        sample = terms[:, n].var(ddof=1)
        centered = terms[:, n] - terms[:, n].mean()
        se = math.sqrt(max((centered**4).mean() - sample**2, 0.0) / len(terms))
        assert abs(sample - scheme[n - 1]) < 4 * se, (n, sample, scheme[n - 1], se)


def _scheme_variances_lag_loop(grid, gamma, order):
    """Reference scheme_order_variances: the chain recursion as one Python
    sum per slice, nxt[i] = sum_{j<i} chain[j] s_lag[i-1-j]."""
    dt, dx, t_cells = grid.dt, grid.dx, grid.time_cells
    tc, xc = grid.time_centers(), grid.space_centers()
    chain = (np.exp(-(xc[None, :] ** 2) / tc[:, None])
             / (2.0 * math.pi * tc[:, None])).sum(axis=1) * dx
    diffs = np.arange(-2 * grid.space_cells, 2 * grid.space_cells + 1) * dx
    lags = np.arange(1, t_cells) * dt
    s_lag = (np.exp(-(diffs[None, :] ** 2) / lags[:, None])
             / (2.0 * math.pi * lags[:, None])).sum(axis=1) * dx
    variances = [gamma**2 * dt * chain.sum()]
    for n in range(2, order + 1):
        nxt = np.zeros(t_cells)
        for i in range(1, t_cells):
            nxt[i] = float((chain[:i] * s_lag[:i][::-1]).sum())
        chain = nxt
        variances.append(gamma ** (2 * n) * dt**n * chain.sum())
    return np.array(variances)


@pytest.mark.parametrize("time_cells", [16, 128, 256])
def test_scheme_variances_match_lag_loop(time_cells):
    grid = _grid(time_cells)
    ref = _scheme_variances_lag_loop(grid, 0.8, 6)
    got = C.scheme_order_variances(grid, 0.8, 6)
    assert np.all(np.abs(got - ref) <= 1e-13 * ref), np.abs(got - ref) / ref


def test_scheme_variances_converge_to_chain_norms():
    # deterministic discretization ladder: the scheme variance approaches
    # gamma^(2n) ||rho_n||^2 as the grid refines; sqrt(dt)-Richardson over
    # (128, 256) slices recovers the continuum norms (high orders keep a
    # residual from the O(dt) simplex-corner corrections)
    gamma = math.sqrt(2) * 0.5
    coarse = C.scheme_order_variances(_grid(128), gamma, 4)
    fine = C.scheme_order_variances(_grid(256), gamma, 4)
    target = np.array([gamma ** (2 * n) * rho_chain_norm_sq(n) for n in range(1, 5)])
    assert np.all(np.abs(fine - target) < np.abs(coarse - target))
    extrap = (math.sqrt(2) * fine - coarse) / (math.sqrt(2) - 1.0)
    rel = np.abs(extrap - target) / target
    assert np.all(rel < np.array([0.005, 0.005, 0.02, 0.04])), rel


def test_second_moment_series_values():
    assert C.second_moment_series(0.0) == 1.0
    # Mittag-Leffler identity at gamma = sqrt(2): sum 1/Gamma(n/2+1) = e erfc(-1)
    series = C.second_moment_series(math.sqrt(2.0), tol=1e-12)
    assert series == pytest.approx(math.e * erfc(-1.0), abs=1e-10)


def test_second_moment_series_monotone_in_truncation():
    gamma = 0.9
    partial = [1.0]
    for n in range(1, 12):
        partial.append(partial[-1] + gamma ** (2 * n) * rho_chain_norm_sq(n))
    assert all(b >= a for a, b in zip(partial, partial[1:]))
    assert C.second_moment_series(gamma) >= partial[-1] - 1e-9


def test_truncation_bound_matches_series_tail():
    bound = C.chaos_tail_bound(0.7, 4)
    direct = sum(0.7 ** (2 * n) * rho_chain_norm_sq(n) for n in range(5, 200))
    assert bound == pytest.approx(direct, rel=1e-12)


def test_estimate_Z_moments_zero_amplitude():
    rep = C.estimate_Z_moments(_const_amp(0.0), _grid(8), 2, 3, 50, 3)
    assert np.allclose(rep.moments, 1.0)
    assert np.allclose(rep.stderrs, 0.0)


def test_estimate_Z_moments_second_moment_vs_series():
    gamma, grid, n, seed = math.sqrt(2) * 0.5, _grid(16).refined(), 400, 2024
    a = _const_amp(gamma)
    rep = C.estimate_Z_moments(a, grid, 5, 2, n, seed)
    target = C.second_moment_series(gamma)
    # the estimate on the given grid within 3 stderr of the closed-form series
    assert abs(rep.moments[1] - target) < 3.0 * rep.stderrs[1]
    assert abs(rep.moments[0] - 1.0) < 4.0 * rep.stderrs[0]
    # the given grid is sampled, replica r keyed (seed, n + r)
    for r in (0, n - 1):
        terms = C.simulate_Z_batch(a, grid, 5, seed, 1, replica_offset=n + r)
        assert rep.values[r] == terms.sum(axis=1)[0], r


def test_estimate_Z_moments_samples_the_given_grid_once():
    # one pass on the given grid, replica r keyed (seed, n + r); the moments
    # are the antithetic pair means of the plain batch's terms
    a, grid, order, k, n, seed = _const_amp(0.9), _grid(8).refined(), 4, 3, 30, 77
    rep = C.estimate_Z_moments(a, grid, order, k, n, seed)
    terms = C.simulate_Z_batch(a, grid, order, seed, n, replica_offset=n)
    plus = terms.sum(axis=1)
    minus = (terms * (-1.0) ** np.arange(order + 1)).sum(axis=1)
    exps = np.arange(1, k + 1)
    vals = (plus[:, None] ** exps + minus[:, None] ** exps) / 2.0
    assert rep.values.tobytes() == plus.tobytes()
    assert rep.moments.tobytes() == vals.mean(axis=0).tobytes()
    assert rep.stderrs.tobytes() == (vals.std(axis=0, ddof=1) / math.sqrt(n)).tobytes()
    assert rep.n_replicas == n


def test_simulation_reproducible():
    def replica(r):
        return C.simulate_Z_batch(_const_amp(0.5), _grid(16), 3, 12345, 1, replica_offset=r)[0]

    assert replica(4).tolist() == replica(4).tolist()
    assert replica(4).tolist() != replica(5).tolist()


def test_norm_ladder_refines_the_base_grid():
    grid = C.WhiteNoiseGrid(32, 0.175)
    for rung in C.NORM_LADDER:
        assert rung == grid
        grid = grid.refined()
    assert C.NORM_LADDER[-1].time_cells == 512


def test_extrapolated_chain_norms_fit_the_exact_scheme():
    fit = C.extrapolated_chain_norms(6)
    for rung, row in zip(C.NORM_LADDER, fit.scheme):
        assert row.tobytes() == C.scheme_order_variances(rung, 1.0, 6).tobytes()
    for n in range(1, 7):
        closed = rho_chain_norm_sq(n)
        err = abs(fit.values[n - 1] - closed)
        assert err <= fit.errors[n - 1], n
        assert err <= 1e-3 * closed, n


def test_extrapolated_chain_norms_resolution_guard():
    assert len(C.extrapolated_chain_norms(31).values) == 31
    with pytest.raises(C.GridResolutionError):
        C.extrapolated_chain_norms(32)
    with pytest.raises(ValueError):
        C.extrapolated_chain_norms(0)


def test_scheme_variances_blocks_are_bit_identical(monkeypatch):
    # the finest ladder grid splits its 511 lags into blocks; one block is
    # the whole (lags, diffs) array
    grid = C.NORM_LADDER[-1]
    assert grid.time_cells * (4 * grid.space_cells + 1) > 3 * C._SCHEME_BLOCK
    blocked = C.scheme_order_variances(grid, 0.8, 5)
    monkeypatch.setattr(C, "_SCHEME_BLOCK", 1 << 40)
    assert blocked.tobytes() == C.scheme_order_variances(grid, 0.8, 5).tobytes()

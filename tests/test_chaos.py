import math
from decimal import Decimal

import numpy as np
import pytest
from scipy.special import erfc

from collisim import chaos as C
from collisim.collisions import gaussian_bump
from collisim.environment import ContinuumAmplitude
from collisim.harness import summarize
from collisim.kernels import rho_chain_norm_sq
from collisim.rngs import CHAOS, substream
from oracles import cut_grid_order_variances, unbuffered_chaos_terms


def _const_amp(gamma):
    return ContinuumAmplitude(
        lambda t, x: np.full(np.broadcast(t, x).shape, float(gamma)), abs(gamma))


def _grid(time_cells=32):
    return C.WhiteNoiseGrid(time_cells, math.sqrt(1.0 / time_cells) * 0.999)


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
        xi = substream(master_seed, CHAOS, t_cells, r).standard_normal((t_cells, x_cells)) * sigma
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
        C.WhiteNoiseGrid(16, 0.5)  # dx > sqrt(dt)
    with pytest.raises(ValueError):
        C.WhiteNoiseGrid(0, 0.1)
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
    with pytest.raises(C.GridError) as err:
        C.simulate_Z_batch(_const_amp(0.5), _grid(4), 6, 1, 1)
    assert err.value.fields == ("time_cells", "order")


# 2T-1 and 2X-1 are not 5-smooth (13, 63 and 21, 79), so the padded
# transform is longer than the linear convolution on both axes
ODD_GRIDS = [(7, 0.375), (11, 0.3)]


@pytest.mark.parametrize("time_cells, dx", ODD_GRIDS)
def test_fft_propagation_matches_lag_loop(time_cells, dx):
    grid = C.WhiteNoiseGrid(time_cells, dx)
    assert grid.space_cells in (32, 40)
    amp = ContinuumAmplitude(lambda t, x: 0.9 * np.cos(2.0 * t + 0.7 * x) + 0.2 * t, 1.1)
    order = time_cells - 1
    ref = _lag_loop_terms(amp, grid, order, 4242, 4)
    got = C.simulate_Z_batch(amp, grid, order, 4242, 4)
    scale = np.abs(ref).max(axis=0)
    assert np.all(scale[1:] > 0.0)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale), np.abs(got - ref).max(axis=0) / scale


@pytest.mark.parametrize("time_cells, dx", ODD_GRIDS)
def test_fft_propagation_does_not_wrap(time_cells, dx):
    # a unit impulse at each corner cell propagates to the shifted kernel
    # generator and to nothing else: circular wrap of the padded transform
    # would leak mass onto the opposite edge or the early slices
    grid = C.WhiteNoiseGrid(time_cells, dx)
    t_cells, x_cells = time_cells, grid.space_cells
    kern = C._kernel_fft(grid)
    buffers = C._propagation_buffers(grid)
    t_idx = np.arange(t_cells)[:, None]
    x_idx = np.arange(x_cells)[None, :]
    atol = 1e-12 * _heat(grid.dt, 0.0)
    for s, y in ((0, 0), (0, x_cells - 1), (t_cells - 1, 0), (t_cells - 1, x_cells - 1)):
        v = np.zeros((t_cells, x_cells))
        v[s, y] = 1.0
        w = C._propagate(v, kern, buffers)
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
    assert C._propagate(v, kern, C._propagation_buffers(grid)).tobytes() == want.tobytes()


def test_propagate_only_reads_its_field_and_keeps_the_padding_zero():
    grid = C.WhiteNoiseGrid(64, 0.0875)
    kern = C._kernel_fft(grid)
    buffers = C._propagation_buffers(grid)
    spec, _, back = buffers
    for seed in (1, 2):
        v = substream(78, seed).standard_normal((grid.time_cells, grid.space_cells))
        copy = v.copy()
        C._propagate(v, kern, buffers)
        assert v.tobytes() == copy.tobytes()
        # the rows past the field keep the zero padding of the time transform,
        # and no chain ends in slice 0
        assert not spec[grid.time_cells:].any()
        assert not back[0].any()


# the default chaos grid and a small one; a constant amplitude and a bump
BUFFERED_CASES = [(C.WhiteNoiseGrid(16, 0.25), _const_amp(0.7)),
                  (C.WhiteNoiseGrid(16, 0.25), gaussian_bump(0.5, 1.0)),
                  (C.WhiteNoiseGrid(64, 0.0875), _const_amp(1 / math.sqrt(2))),
                  (C.WhiteNoiseGrid(64, 0.0875), gaussian_bump(0.5, 1.0))]


@pytest.mark.parametrize("grid, amp", BUFFERED_CASES)
def test_buffered_terms_are_the_unbuffered_loop_byte_for_byte(grid, amp):
    got = C.simulate_Z_batch(amp, grid, 6, 31, 4)
    want = unbuffered_chaos_terms(amp, grid, 6, 31, 4)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid, amp", BUFFERED_CASES[::3])
def test_buffers_carry_nothing_between_replicas(monkeypatch, grid, amp):
    # keyed in reverse, each replica's stream follows other streams than in
    # the plain call, and it still gives the same bytes
    batch = C.simulate_Z_batch(amp, grid, 6, 32, 5)

    def reversed_keys(seed, purpose, size, r):
        return substream(seed, purpose, size, 4 - r)

    monkeypatch.setattr(C, "substream", reversed_keys)
    assert C.simulate_Z_batch(amp, grid, 6, 32, 5).tobytes() == batch[::-1].tobytes()


@pytest.mark.parametrize("grid, amp", BUFFERED_CASES[::3])
def test_fewer_replicas_are_a_prefix(grid, amp):
    # replica r reads the key (seed, CHAOS, T, r) whatever the call's size
    batch = C.simulate_Z_batch(amp, grid, 6, 32, 5)
    for m in (1, 3):
        assert C.simulate_Z_batch(amp, grid, 6, 32, m).tobytes() == batch[:m].tobytes()


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


def test_scheme_variances_of_a_lower_order_are_a_prefix():
    grid = _grid(16)
    full = C.scheme_order_variances(grid, 0.8, 6)
    for order in range(6):
        got = C.scheme_order_variances(grid, 0.8, order)
        assert got.tobytes() == full[:order].tobytes(), order
    assert C.scheme_order_variances(grid, 0.8, 0).shape == (0,)


@pytest.mark.parametrize("time_cells, dx", [(7, 0.375), (16, 0.25), (16, 0.0875), (32, 0.175),
                                             (64, 0.0875), (64, 0.125), (128, 0.04375)])
def test_scheme_variances_match_the_cut_grid_at_the_default_cutoff(time_cells, dx):
    # every grid is cut at +-CUTOFF = 6, where the uncut difference sums of
    # the scheme miss nothing above rounding: (64, 0.0875) is the chaos
    # default, (32, 0.175) the chain-norm ladder's coarsest grid
    grid = C.WhiteNoiseGrid(time_cells, dx)
    got = C.scheme_order_variances(grid, 1 / math.sqrt(2), 6)
    ref = cut_grid_order_variances(grid, 1 / math.sqrt(2), 6)
    assert np.all(np.abs(got - ref) <= 1e-14 * ref), np.abs(got - ref) / ref


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
    series = C.second_moment_series(math.sqrt(2.0))
    assert series == pytest.approx(math.e * erfc(-1.0), abs=1e-10)


def _rel_err(value: float, reference: str) -> Decimal:
    return abs(Decimal(value) - Decimal(reference)) / Decimal(reference)


# E_{1/2}(gamma^2/2) at the float gamma, to 40 digits by mpmath:
# z = mpf(gamma)**2 / 2; exp(z*z) * erfc(-z) at mp.dps = 40
_SERIES_REFERENCE = [
    (0.3, "1.052872718807718307485588826703034134819"),
    (math.sqrt(0.5), "1.358642370104722176995510605303699931152"),
    (1.0, "1.95236048918255709327604771344113097989"),
    (math.sqrt(2.0), "5.00898008076228499019468227458967118962"),
    (2.5, "34848.56476686595525764456521827395623779"),
    (5.0, "1.443918873296643667156522972879194701369e+68"),
    (7.29, "8.810550527087780939992197631189735637696e+306"),
]


@pytest.mark.parametrize("gamma, reference", _SERIES_REFERENCE)
def test_second_moment_series_is_the_closed_form(gamma, reference):
    # exp(z^2) turns the rounding of z^2 = gamma^4/4 into a relative error of
    # up to a few z^2 ulps, above the 1e-15 floor from gamma = 2.5 on
    z = gamma * gamma / 2.0
    tol = max(1e-15, 2.0 * z * z * 2.0**-52)
    assert _rel_err(C.second_moment_series(gamma), reference) <= tol


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


# the closed form minus the partial sum through order, to 30 of the 60 digits
# mpmath carried (mp.dps = 60)
_TAIL_REFERENCE = [
    (2.5, 0, "34847.5647668659552576445652183"),
    (2.5, 6, "34518.7363598860108139387449134"),
    (3.0, 0, "1245928883.27440616303403516522"),
    (3.0, 6, "1245926645.15829936152748991854"),
    (5.0, 0, "1.44391887329664366715652297288e+68"),
    (5.0, 6, "1.44391887329664366715652297288e+68"),
    (7.0, 0, "9.68930792814574749959737982238e+260"),
    (7.0, 6, "9.68930792814574749959737982238e+260"),
]


@pytest.mark.parametrize("s, order, reference", _TAIL_REFERENCE)
def test_truncation_bound_sums_the_tail_past_its_peak(s, order, reference):
    # the terms peak near n = s^4/2 (312 at s = 5, 1200 at s = 7), where
    # s^(2n) overflows and ||rho_n||_2^2 underflows
    assert _rel_err(C.chaos_tail_bound(s, order), reference) <= 1e-12


def test_truncation_bound_is_inf_where_the_tail_leaves_float_range():
    assert C.chaos_tail_bound(7.3, 0) == math.inf
    assert C.chaos_tail_bound(0.0, 3) == 0.0


def test_a_test_function_is_an_amplitude():
    # gaussian_bump's function type is the sampler's amplitude, and carries
    # the bound the tail bound reads
    f = gaussian_bump(0.5, 1.0)
    powers, values = C.estimate_Z_moments(f, _grid(8), 2, 2, 20, 5)
    assert powers.shape == (20, 2) and values.shape == (20,)
    assert np.all(np.isfinite(powers))
    assert f.bound == 0.5 and 0.0 < C.chaos_tail_bound(f.bound, 2) < math.inf


def test_estimate_Z_moments_zero_amplitude():
    powers, _ = C.estimate_Z_moments(_const_amp(0.0), _grid(8), 2, 3, 50, 3)
    summaries = [summarize(column) for column in powers.T]
    assert np.allclose([s.mean for s in summaries], 1.0)
    assert np.allclose([s.stderr for s in summaries], 0.0)


def test_estimate_Z_moments_second_moment_vs_series():
    gamma, grid, n, seed = math.sqrt(2) * 0.5, _grid(16).refined(), 400, 2024
    a = _const_amp(gamma)
    powers, values = C.estimate_Z_moments(a, grid, 5, 2, n, seed)
    first, second = summarize(powers[:, 0]), summarize(powers[:, 1])
    target = C.second_moment_series(gamma)
    # the estimate on the given grid within 3 stderr of the closed-form series
    assert abs(second.mean - target) < 3.0 * second.stderr
    assert abs(first.mean - 1.0) < 4.0 * first.stderr
    # the given grid is sampled, replica r keyed (seed, CHAOS, T, r)
    terms = C.simulate_Z_batch(a, grid, 5, seed, 2)
    assert values[:2].tobytes() == terms.sum(axis=1).tobytes()


def test_estimate_Z_moments_samples_the_given_grid_once():
    # one pass on the given grid, replica r keyed (seed, CHAOS, T, r); the
    # powers are the antithetic pair means of the plain batch's terms
    a, grid, order, k, n, seed = _const_amp(0.9), _grid(8).refined(), 4, 3, 30, 77
    powers, values = C.estimate_Z_moments(a, grid, order, k, n, seed)
    terms = C.simulate_Z_batch(a, grid, order, seed, n)
    plus = terms.sum(axis=1)
    minus = (terms * (-1.0) ** np.arange(order + 1)).sum(axis=1)
    exps = np.arange(1, k + 1)
    assert values.tobytes() == plus.tobytes()
    assert powers.shape == (n, k)
    assert powers.tobytes() == ((plus[:, None] ** exps + minus[:, None] ** exps) / 2.0).tobytes()


def test_simulation_reproducible():
    def batch():
        return C.simulate_Z_batch(_const_amp(0.5), _grid(16), 3, 12345, 6)

    terms = batch()
    assert terms.tolist() == batch().tolist()
    assert terms[4].tolist() != terms[5].tolist()


def test_norm_ladder_refines_the_base_grid():
    grid = C.WhiteNoiseGrid(32, 0.175)
    for rung in C.NORM_LADDER:
        assert rung == grid
        grid = grid.refined()
    assert C.NORM_LADDER[-1].time_cells == 512


def test_extrapolated_chain_norms_fit_the_exact_scheme():
    fit = C.extrapolated_chain_norms(6)
    scheme = np.array([C.scheme_order_variances(rung, 1.0, 6) for rung in C.NORM_LADDER])
    root_h = np.sqrt([rung.dt for rung in C.NORM_LADDER])
    assert fit.value.tobytes() == C._value_at_zero(root_h, scheme).tobytes()
    coarse = C._value_at_zero(root_h[:-1], scheme[:-1])
    assert fit.error.tobytes() == np.abs(fit.value - coarse).tobytes()
    for n in range(1, 7):
        closed = rho_chain_norm_sq(n)
        err = abs(fit.value[n - 1] - closed)
        assert err <= fit.error[n - 1], n
        assert err <= 1e-3 * closed, n


def test_extrapolated_chain_norms_resolution_guard():
    assert len(C.extrapolated_chain_norms(31).value) == 31
    with pytest.raises(C.GridError) as err:
        C.extrapolated_chain_norms(32)
    assert err.value.fields == ("time_cells", "order")
    with pytest.raises(ValueError):
        C.extrapolated_chain_norms(0)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from collisim import kernels as K
from collisim.environment import cells_of
from collisim.rngs import substream
import oracles
from oracles import discrete_chain_norm_sq, rw_transition


def test_rw_transition_values():
    assert rw_transition(1, 1) == 0.5
    assert rw_transition(2, 0) == 0.5
    assert rw_transition(3, 0) == 0.0  # parity mismatch
    assert rw_transition(4, 6) == 0.0  # out of range


@pytest.mark.parametrize("i", [1, 2, 3, 7, 15, 30])
def test_rw_transition_sums_to_one(i):
    total = sum(rw_transition(i, x) for x in range(-i, i + 1))
    assert total == pytest.approx(1.0, abs=1e-14)


def test_rw_transition_log_path_agrees():
    i = np.array([80, 120, 200])
    x = np.array([0, 4, -10])
    vals = oracles.rw_transition_array(i, x)
    for iv, xv, v in zip(i, x, vals):
        exact = math.comb(int(iv), (int(iv) + int(xv)) // 2) * 2.0 ** (-float(iv))
        assert v == pytest.approx(exact, rel=1e-12)


def test_heat_kernel_values_and_symmetry():
    assert K.heat_kernel(1.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)
    for t, x in ((0.5, 1.3), (2.0, -0.7), (0.01, 0.05)):
        assert K.heat_kernel(t, x) == K.heat_kernel(t, -x)
    with pytest.raises(ValueError):
        K.heat_kernel(0.0, 1.0)


def test_heat_kernel_normalization():
    val, _ = quad(lambda x: K.heat_kernel(0.5, x), -10, 10)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_chain_density_gaussian():
    rho = K.chain_density_gaussian_batch
    assert rho([1.0], [0.0])[0] == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-14)
    assert rho([0.7, 0.3], [0.0, 0.0])[0] == 0.0
    manual = K.heat_kernel(0.3, 0.5) * K.heat_kernel(0.5, -0.7)
    assert rho([0.3, 0.8], [0.5, -0.2])[0] == pytest.approx(manual, rel=1e-14)


def test_discrete_kernel_zero_beyond_horizon():
    pts_t = np.array([[0.2, 0.4, 0.9]])
    pts_x = np.zeros((1, 3))
    assert K.discrete_kernel_pNn_batch(pts_t, pts_x, 2)[0] == 0.0


def test_discrete_kernel_basic_value():
    assert K.discrete_kernel_pNn_batch([1.0], [0.5], 1)[0] == pytest.approx(0.25, abs=1e-15)


def test_discrete_kernel_piecewise_constant():
    rng = substream(3, 1)
    horizon = 8
    # 100 random points inside the rectangle of cell (3, 1)
    t = (2 + rng.uniform(0.01, 0.99, 100)) / horizon
    x = (0 + rng.uniform(0.01 * 2 - 1, 0.99 * 2 - 1, 100)) / math.sqrt(horizon)
    vals = K.discrete_kernel_pNn_batch(t[:, None], x[:, None], horizon)
    assert np.all(vals == vals[0])
    assert vals[0] > 0


def _block_average(g, times, xs, horizon, nodes=4):
    """Average of g over the rectangle of R^N_n holding one point."""
    i, z = cells_of([times], [xs], horizon)
    return K.block_average_cells(g, i, z, horizon, nodes)[0]


def test_block_average_constant_and_linear():
    const = lambda ts, xs: np.full(len(ts), 3.25)
    assert _block_average(const, [0.4], [0.1], 9) == pytest.approx(3.25, abs=1e-13)
    linear = lambda ts, xs: xs[:, 0]
    # t = 0.4 -> i = 4 (even), so x = 2/3 sits in the cell of z = 2 whose
    # x-interval (1/3, 1] has midpoint 2/3
    val = _block_average(linear, [0.4], [2 / 3], 9)
    assert val == pytest.approx(2 / 3, abs=1e-13)


def test_block_average_quadratic_closed_form():
    quad_fn = lambda ts, xs: xs[:, 0] ** 2
    horizon = 7
    # cell containing (1/N, 0) is (1, -1): x-interval (-2/sqrt7, 0]
    a, b = -2 / math.sqrt(horizon), 0.0
    exact = (b**3 - a**3) / (3 * (b - a))
    val = _block_average(quad_fn, [1 / horizon], [0.0], horizon, nodes=6)
    assert val == pytest.approx(exact, rel=1e-12)


def test_block_average_raises_on_nonfinite():
    bad = lambda ts, xs: np.full(len(ts), np.nan)
    with pytest.raises(K.QuadratureError):
        _block_average(bad, [0.5], [0.0], 4)


def test_block_average_chunks_are_bit_identical(monkeypatch):
    def g(ts, xs):
        return np.exp(-(xs**2).sum(axis=1)) * (1.0 + ts.prod(axis=1))

    rng = substream(41, 0)
    i = np.sort(rng.integers(1, 17, size=(23, 2)), axis=1)
    z = rng.integers(-6, 7, size=(23, 2))
    whole = K.block_average_cells(g, i, z, 16)
    # 256 points per cell: chunks of 3 cells, the last one ragged
    monkeypatch.setattr(K, "POINT_BUDGET", 3 * 256 + 17)
    chunked = K.block_average_cells(g, i, z, 16)
    assert whole.tobytes() == chunked.tobytes()
    monkeypatch.setattr(K, "POINT_BUDGET", 1)
    assert K.block_average_cells(g, i, z, 16).tobytes() == whole.tobytes()


def test_rho_chain_norms():
    assert K.rho_chain_norm_sq(0) == 1.0
    assert K.rho_chain_norm_sq(1) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-14)
    assert K.rho_chain_norm_sq(2) == pytest.approx(0.25, rel=1e-14)
    # large order stays finite (log-space evaluation)
    assert 0.0 <= K.rho_chain_norm_sq(400) < 1e-300


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_norm_mc_matches_closed_form(n):
    est = K.chain_norm_sq_mc(n, 300_000, substream(42, n))
    closed = K.rho_chain_norm_sq(n)
    assert abs(est.mean - closed) / closed < 0.01
    assert abs(est.mean - closed) < 5.0 * est.stderr + 0.002 * closed


def test_importance_sampler_covers_discrete_kernel():
    # IS estimate of ||sqrt(N) p^N_1||^2 against the exact lattice sum
    horizon = 64
    t, x, logq = K.sample_chain_proposal(1, 500_000, substream(11, 0))
    p = K.discrete_kernel_pNn_batch(t, x, horizon)
    w = (math.sqrt(horizon) * p) ** 2 * np.exp(-logq)
    exact = discrete_chain_norm_sq(1, horizon)
    assert abs(w.mean() - exact) < 5.0 * w.std(ddof=1) / math.sqrt(len(w))


def test_discrete_chain_norm_sq_n2_against_direct_sum():
    horizon = 12
    # direct double sum over ordered time pairs
    f = [rw_transition(2 * m, 0) for m in range(1, horizon + 1)]
    direct = 0.0
    for i1 in range(1, horizon + 1):
        for i2 in range(i1 + 1, horizon + 1):
            direct += f[i1 - 1] * f[i2 - i1 - 1]
    direct *= 2.0 ** (-2) * horizon ** (-1.0)
    assert discrete_chain_norm_sq(2, horizon) == pytest.approx(direct, rel=1e-12)


def test_discrete_norm_ratio_bounded():
    # sup_N ||N^(n/2) p^N_n|| <= C^n ||rho_n|| with one C across the ladder
    for n in (1, 2):
        ratios = [
            math.sqrt(discrete_chain_norm_sq(n, horizon) / K.rho_chain_norm_sq(n))
            for horizon in (16, 64, 256, 1024)
        ]
        assert max(ratios) < 1.2**n


def test_local_clt_error_ladder():
    rng = substream(7, 1)
    prev = None
    for horizon in (16, 64, 256):
        est = K.local_clt_l2_error(1, horizon, 100_000, rng)
        dist = math.sqrt(est.mean)
        if prev is not None:
            assert dist < prev
        prev = dist


def test_local_clt_frozen_value_at_4096():
    # deterministic oracle (exact lattice sums + per-cell quadrature of the
    # cross term) gives dist = 0.080531 at N=4096; the estimator must agree
    est = K.local_clt_l2_error(1, 4096, 400_000, substream(19, 0))
    oracle_sq = 0.080531**2
    assert abs(est.mean - oracle_sq) < 4.0 * est.stderr + 0.01 * oracle_sq


def test_local_clt_degenerate_equals_norm():
    # n > N: the discrete kernel vanishes and the distance is ||rho_n||
    est = K.local_clt_l2_error(2, 1, 100_000, substream(23, 0))
    assert abs(est.mean - K.rho_chain_norm_sq(2)) < 5.0 * est.stderr


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=-40, max_value=40))
@settings(max_examples=60, deadline=None)
def test_transition_parity_and_support(i, x):
    p = rw_transition(i, x)
    if abs(x) > i or (i + x) % 2 != 0:
        assert p == 0.0
    else:
        assert p > 0.0


@pytest.mark.parametrize("horizon", [1, 2, 16, 256, 1024])
def test_local_clt_distance_converged_in_nodes(monkeypatch, horizon):
    got = K.local_clt_distance_sq(horizon).value
    monkeypatch.setattr(K, "CLT_NODES", 32)
    assert abs(got - K.local_clt_distance_sq(horizon).value) <= 1e-10


@pytest.mark.parametrize("horizon", [1, 2])
def test_local_clt_distance_matches_dense_quadrature(horizon):
    got = K.local_clt_distance_sq(horizon)
    assert got.error == 0.0
    assert abs(got.value - oracles.local_clt_distance_sq_dense(horizon)) <= 1e-10


@pytest.mark.parametrize("horizon, seed", [(16, 31), (64, 32), (256, 33), (1024, 34)])
def test_local_clt_distance_matches_importance_sampler(horizon, seed):
    exact = K.local_clt_distance_sq(horizon).value
    est = K.local_clt_l2_error(1, horizon, 120_000, substream(seed, 0))
    assert abs(est.mean - exact) <= 4.0 * est.stderr, (est, exact)


def test_local_clt_distance_frozen_value_at_4096():
    # the deterministic oracle value that test_local_clt_frozen_value_at_4096 cites
    assert math.sqrt(K.local_clt_distance_sq(4096).value) == pytest.approx(0.080531, abs=5e-7)


def test_local_clt_distance_band_drops_within_tail_bound(monkeypatch):
    # at N=256 the band keeps |z| <= 128; the whole cone changes only rounding
    banded = K.local_clt_distance_sq(256)
    assert 0.0 < banded.error < 1e-20
    monkeypatch.setattr(K, "band_halfwidth", lambda horizon: horizon)
    cone = K.local_clt_distance_sq(256)
    assert cone.error == 0.0
    assert abs(banded.value - cone.value) <= banded.error + 1e-15

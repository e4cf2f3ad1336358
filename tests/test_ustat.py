import itertools
import math

import numpy as np
import pytest

from collisim import ustat as U
from collisim.environment import DisorderFunction, EnvironmentField, constant_disorder
from collisim.kernels import block_average_cells
from oracles import second_moment_by_pairings


def _indicator_box(radius):
    def fn(ts, xs):
        return (np.abs(xs) <= radius).all(axis=1).astype(float)
    return fn


def test_two_cell_lattice_example():
    # N = 1, g = 1 on |x| <= 2, A = 1: the only cells are (1, +-1)
    g = U.Integrand(_indicator_box(2.0), 1, 2.0, True)
    field = EnvironmentField(98765)
    spec = U.UStatSpec(g, 1, constant_disorder(1.0), field)
    expected = math.sqrt(2.0) * (field.omega_at(1, 1) + field.omega_at(1, -1))
    assert U.u_statistic(spec) == pytest.approx(expected, abs=1e-12)


def test_zero_integrand():
    g = U.Integrand(lambda ts, xs: np.zeros(len(ts)), 1, 1.0, True)
    spec = U.UStatSpec(g, 6, constant_disorder(1.0), EnvironmentField(5))
    assert U.u_statistic(spec) == 0.0


def _box_integrand(order):
    def gfun(ts, xs):
        box = (np.abs(xs) <= 1.8).all(axis=1)
        return np.exp(-(xs**2).sum(axis=1)) * (1.0 + 0.3 * np.sin(3 * ts[:, -1]) + xs[:, 0]) * box

    return U.Integrand(gfun, order, 1.8, False)


_BRUTE_AMP = DisorderFunction(lambda n, z: 1.0 + 0.2 * np.cos(np.asarray(n, dtype=float)), 1.2)
_BRUTE_SEEDS = [321, 5, 2**63 - 1]


def _per_field_sums(g, horizon, amp, seeds):
    """2^(n/2) sum over tuples of distinct times and parity-matched sites of
    the block average times prod A omega, one loop pass per field."""
    zmax = int(g.support_radius * math.sqrt(horizon)) + 1
    cells = [(i, z) for i in range(1, horizon + 1)
             for z in range(-zmax, zmax + 1) if (i + z) % 2 == 0]
    fields = [EnvironmentField(s) for s in seeds]
    totals = np.zeros(len(seeds))
    for tup in itertools.product(cells, repeat=g.order):
        times = [i for i, _ in tup]
        if len(set(times)) < g.order:
            continue
        sites = [z for _, z in tup]
        gb = float(block_average_cells(g, np.array([times]), np.array([sites]), horizon, 4)[0])
        weight = gb * math.prod(float(amp(i, z)) for i, z in tup)
        for f, field in enumerate(fields):
            totals[f] += weight * math.prod(field.omega_at(i, z) for i, z in tup)
    return 2.0 ** (g.order / 2.0) * totals


def test_order_two_against_brute_force():
    horizon = 3
    g = _box_integrand(2)
    spec = U.UStatSpec(g, horizon, _BRUTE_AMP, EnvironmentField(_BRUTE_SEEDS[0]))
    want = _per_field_sums(g, horizon, _BRUTE_AMP, _BRUTE_SEEDS)
    assert U.u_statistic(spec) == pytest.approx(want[0], rel=1e-12)
    got = U.evaluate_table(U.build_cell_table(spec), _BRUTE_SEEDS)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 3])
def test_evaluate_table_against_brute_force(order):
    # orders 1 and 3 of the contraction: one matmul, then one einsum per order
    horizon = 3
    g = _box_integrand(order)
    spec = U.UStatSpec(g, horizon, _BRUTE_AMP, EnvironmentField(_BRUTE_SEEDS[0]))
    got = U.evaluate_table(U.build_cell_table(spec), _BRUTE_SEEDS)
    np.testing.assert_allclose(got, _per_field_sums(g, horizon, _BRUTE_AMP, _BRUTE_SEEDS),
                               rtol=1e-12)


def test_symmetry_reduction_consistent():
    def sym_fn(ts, xs):
        box = (np.abs(xs) <= 1.5).all(axis=1)
        return (xs[:, 0] * xs[:, 1] + ts.sum(axis=1)) * box

    field = EnvironmentField(77)
    amp = constant_disorder(0.8)
    fast = U.UStatSpec(U.Integrand(sym_fn, 2, 1.5, True), 4, amp, field)
    slow = U.UStatSpec(U.Integrand(sym_fn, 2, 1.5, False), 4, amp, field)
    assert U.u_statistic(fast) == pytest.approx(U.u_statistic(slow), rel=1e-12)


def test_asymmetric_integrand_equals_transpose():
    # S^N_n(g) = S^N_n(g o transpose): the disorder product is symmetric
    def gfun(ts, xs):
        box = (np.abs(xs) <= 1.5).all(axis=1)
        return (np.exp(-xs[:, 0] ** 2) * ts[:, 1] + 0.2 * xs[:, 1]) * box

    def gfun_t(ts, xs):
        return gfun(ts[:, ::-1], xs[:, ::-1])

    field = EnvironmentField(2718)
    amp = constant_disorder(1.0)
    a = U.u_statistic(U.UStatSpec(U.Integrand(gfun, 2, 1.5, False), 4, amp, field))
    b = U.u_statistic(U.UStatSpec(U.Integrand(gfun_t, 2, 1.5, False), 4, amp, field))
    assert a == pytest.approx(b, rel=1e-12)


def test_linearity():
    f1 = U.Integrand(lambda ts, xs: np.exp(-xs[:, 0] ** 2) * (np.abs(xs[:, 0]) <= 2), 1, 2.0, True)
    f2 = U.Integrand(lambda ts, xs: ts[:, 0] * (np.abs(xs[:, 0]) <= 2), 1, 2.0, True)
    combo = U.Integrand(
        lambda ts, xs: (2.5 * np.exp(-xs[:, 0] ** 2) - 1.25 * ts[:, 0]) * (np.abs(xs[:, 0]) <= 2),
        1, 2.0, True)
    field = EnvironmentField(31415)
    amp = constant_disorder(0.9)
    horizon = 6
    v1 = U.u_statistic(U.UStatSpec(f1, horizon, amp, field))
    v2 = U.u_statistic(U.UStatSpec(f2, horizon, amp, field))
    vc = U.u_statistic(U.UStatSpec(combo, horizon, amp, field))
    assert vc == pytest.approx(2.5 * v1 - 1.25 * v2, rel=1e-10)


def test_complexity_guard():
    g = U.Integrand(_indicator_box(50.0), 3, 50.0, False)
    spec = U.UStatSpec(g, 400, constant_disorder(1.0), EnvironmentField(1))
    with pytest.raises(U.ComplexityGuardError):
        U.u_statistic(spec)


def test_single_rectangle_exact_variance():
    # order 1, indicator of one rectangle: Var = 2 * (gbar * A)^2 summed over
    # the occupied cells; here exactly one cell with gbar = 1
    horizon = 4

    def one_cell(ts, xs):
        return ((ts[:, 0] > 0.25) & (ts[:, 0] <= 0.5)
                & (xs[:, 0] > -1 / 2) & (xs[:, 0] <= 1 / 2)).astype(float)

    g = U.Integrand(one_cell, 1, 1.0, True)
    spec = U.UStatSpec(g, horizon, constant_disorder(1.0), EnvironmentField(8))
    exact = U.exact_second_moment(spec)
    assert exact == pytest.approx(2.0, rel=1e-10)
    suite = U.ustat_moment_suite([spec], 4000, 1234)
    # S = +-sqrt(2) exactly here, so the m4-based stderr degenerates to 0;
    # the ddof=1 sample variance can only deviate by O(1/R)
    assert abs(suite.variances[0] - exact) < 0.01 * exact
    assert abs(suite.means[0]) < 4.0 * suite.mean_stderrs[0] + 1e-12


def test_exact_second_moment_asymmetric_matches_sampling():
    def gfun(ts, xs):
        box = (np.abs(xs) <= 1.2).all(axis=1)
        return (xs[:, 0] + 2.0 * ts[:, 1]) * box

    g = U.Integrand(gfun, 2, 1.2, False)
    spec = U.UStatSpec(g, 3, constant_disorder(0.7), EnvironmentField(4))
    exact = U.exact_second_moment(spec)
    suite = U.ustat_moment_suite([spec], 6000, 88)
    assert abs(suite.variances[0] + suite.means[0] ** 2 - exact) < \
        5.0 * suite.variance_stderrs[0] + 0.01 * exact


@pytest.mark.parametrize("order", [2, 3])
def test_exact_second_moment_matches_pairing_loop(order):
    spec = U.UStatSpec(_box_integrand(order), 3, _BRUTE_AMP, EnvironmentField(4))
    want = second_moment_by_pairings(U.build_cell_table(spec))
    assert U.exact_second_moment(spec) == pytest.approx(want, rel=1e-12)


def test_moment_suite_cross_orders_uncorrelated():
    g1 = U.Integrand(lambda ts, xs: np.exp(-xs[:, 0] ** 2) * (np.abs(xs[:, 0]) <= 2),
                     1, 2.0, True)

    def g2fun(ts, xs):
        box = (np.abs(xs) <= 2.0).all(axis=1)
        return np.exp(-(xs**2).sum(axis=1)) * box

    g2 = U.Integrand(g2fun, 2, 2.0, True)
    amp = constant_disorder(1.0)
    field = EnvironmentField(0)
    specs = [U.UStatSpec(g1, 5, amp, field), U.UStatSpec(g2, 5, amp, field)]
    suite = U.ustat_moment_suite(specs, 3000, 246)
    for m, se in zip(suite.means, suite.mean_stderrs):
        assert abs(m) < 4.0 * se
    cov, cov_se = suite.cross[(0, 1)]
    assert abs(cov) < 4.0 * cov_se


def test_variance_scaling_bound_along_ladder():
    # Var(N^{-3n/4} S^N_n) <= c^{2n} ||g||^2: with c = 1 and an L2-normalized
    # integrand the normalized variance stays below ||g||^2
    def gfun(ts, xs):
        return np.exp(-xs[:, 0] ** 2) * (np.abs(xs[:, 0]) <= 3)

    norm_sq = float(np.sqrt(math.pi / 2))  # integral over t in [0,1] of e^{-2x^2}
    g = U.Integrand(gfun, 1, 3.0, True)
    for horizon in (4, 8, 16):
        spec = U.UStatSpec(g, horizon, constant_disorder(1.0), EnvironmentField(3))
        exact = U.exact_second_moment(spec)
        assert exact / horizon ** 1.5 <= norm_sq * 1.001

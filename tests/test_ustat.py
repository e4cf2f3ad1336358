import itertools
import math

import numpy as np
import pytest
from scipy.special import erf

from collisim import ustat as U
from collisim.environment import DisorderFunction, EnvironmentField
from collisim.harness import summarize
from collisim.kernels import block_average_cells
from collisim.rngs import substream
from oracles import constant_disorder, second_moment_by_pairings, ustat_one_order


def _stat(table, seeds):
    """The statistic of the table's own order, the last row of the sweep."""
    return U.evaluate_table(table, seeds)[-1]


def _exact(table):
    return U.exact_second_moment(table)[-1]


def _indicator(radius):
    def h(ts, xs):
        return (np.abs(xs) <= radius).astype(float)
    return h


def test_two_cell_lattice_example():
    # N = 1, h = 1 on |x| <= 2, A = 1: the only cells are (1, +-1)
    field = EnvironmentField(98765)
    table = U.build_cell_table(_indicator(2.0), 1, 2.0, 1, constant_disorder(1.0))
    expected = math.sqrt(2.0) * (field.omega_at(1, 1) + field.omega_at(1, -1))
    assert _stat(table, field.seed)[0] == pytest.approx(expected, abs=1e-12)


def test_zero_integrand():
    table = U.build_cell_table(lambda ts, xs: np.zeros(np.shape(ts)), 1, 1.0, 6,
                               constant_disorder(1.0))
    assert _stat(table, 5)[0] == 0.0


_BRUTE_RADIUS = 1.8


def _wavy_slot(ts, xs):
    # depends on t, and is neither even nor odd in x
    box = np.abs(xs) <= _BRUTE_RADIUS
    return np.exp(-xs**2) * (1.0 + 0.3 * np.sin(3 * ts) + 0.5 * xs) * box


_BRUTE_AMP = DisorderFunction(lambda n, z: 1.0 + 0.2 * np.cos(np.asarray(n, dtype=float)), 1.2)
_BRUTE_SEEDS = [321, 5, 2**63 - 1]


def _ordered_tuples(h, order, radius, horizon, amp):
    """Every tuple of ``order`` window cells with distinct times, as (m, n)
    time and site arrays, and its weight: the block average of the n-slot
    product prod_j h(t_j, x_j) over 4^(2n) points, times prod A."""
    zmax = int(radius * math.sqrt(horizon)) + 1
    cells = [(i, z) for i in range(1, horizon + 1)
             for z in range(-zmax, zmax + 1) if (i + z) % 2 == 0]
    tuples = [tup for tup in itertools.product(cells, repeat=order)
              if len({i for i, _ in tup}) == order]
    times = np.array([[i for i, _ in tup] for tup in tuples])
    sites = np.array([[z for _, z in tup] for tup in tuples])

    def g(ts, xs):
        return np.prod(h(ts, xs), axis=1)

    gbar = block_average_cells(g, times, sites, horizon, 4)
    return times, sites, gbar * np.prod(amp(times, sites), axis=1)


def _per_field_sums(order, horizon, seeds):
    """2^(n/2) sum over the ordered tuples of their weight times prod omega,
    for the wavy slot factor and amplitude, one field at a time."""
    times, sites, weights = _ordered_tuples(_wavy_slot, order, _BRUTE_RADIUS, horizon,
                                            _BRUTE_AMP)
    signs = [np.prod(EnvironmentField(s).omega_at(times, sites), axis=1) for s in seeds]
    return 2.0 ** (order / 2.0) * np.array([np.dot(weights, sg) for sg in signs])


def _wavy_table(order, horizon=3):
    return U.build_cell_table(_wavy_slot, order, _BRUTE_RADIUS, horizon, _BRUTE_AMP)


def test_order_two_against_brute_force():
    # one field per call gives the values of the batched call
    table = _wavy_table(2)
    want = _per_field_sums(2, 3, _BRUTE_SEEDS)
    for seed, value in zip(_BRUTE_SEEDS, want):
        assert _stat(table, seed)[0] == pytest.approx(value, rel=1e-12)
    np.testing.assert_allclose(_stat(table, _BRUTE_SEEDS), want, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 3])
def test_evaluate_table_against_brute_force(order):
    got = _stat(_wavy_table(order), _BRUTE_SEEDS)
    np.testing.assert_allclose(got, _per_field_sums(order, 3, _BRUTE_SEEDS), rtol=1e-12)


def test_linearity():
    # order 1: the slot factor is the whole integrand, and S is linear in it
    def f1(ts, xs):
        return np.exp(-xs**2) * (np.abs(xs) <= 2)

    def f2(ts, xs):
        return ts * (np.abs(xs) <= 2)

    def combo(ts, xs):
        return (2.5 * np.exp(-xs**2) - 1.25 * ts) * (np.abs(xs) <= 2)

    amp = constant_disorder(0.9)
    horizon = 6
    seeds = [31415, 7]
    v1, v2, vc = (_stat(U.build_cell_table(h, 1, 2.0, horizon, amp), seeds)
                  for h in (f1, f2, combo))
    np.testing.assert_allclose(vc, 2.5 * v1 - 1.25 * v2, rtol=1e-10)


def test_single_rectangle_exact_variance():
    # order 1, indicator of one rectangle: Var = 2 * (hbar * A)^2 summed over
    # the occupied cells; here exactly one cell with hbar = 1
    horizon = 4

    def one_cell(ts, xs):
        return ((ts > 0.25) & (ts <= 0.5) & (xs > -1 / 2) & (xs <= 1 / 2)).astype(float)

    table = U.build_cell_table(one_cell, 1, 1.0, horizon, constant_disorder(1.0))
    exact = _exact(table)
    assert exact == pytest.approx(2.0, rel=1e-10)
    values = U.ustat_moment_suite(table, 4000, 1234)
    assert values.shape == (1, 4000)
    # S = +-sqrt(2) exactly here, so the stderr of the mean of S^2
    # degenerates to 0
    mean = summarize(values[0])
    assert abs(summarize(values[0] ** 2).mean - exact) < 0.01 * exact
    assert abs(mean.mean) < 4.0 * mean.stderr + 1e-12


def test_exact_second_moment_asymmetric_matches_sampling():
    # a slot factor that is odd in x up to a time-dependent shift
    def h(ts, xs):
        return (xs + 2.0 * ts) * (np.abs(xs) <= 1.2)

    table = U.build_cell_table(h, 2, 1.2, 3, constant_disorder(0.7))
    exact = _exact(table)
    second = summarize(U.ustat_moment_suite(table, 6000, 88)[-1] ** 2)
    assert abs(second.mean - exact) < 5.0 * second.stderr + 0.01 * exact


@pytest.mark.parametrize("order", [1, 2, 3])
def test_exact_second_moment_matches_pairing_loop(order):
    times, sites, weights = _ordered_tuples(_wavy_slot, order, _BRUTE_RADIUS, 3, _BRUTE_AMP)
    want = second_moment_by_pairings(times, sites, weights)
    assert _exact(_wavy_table(order)) == pytest.approx(want, rel=1e-12)


def test_order_three_at_large_horizon_matches_exact_variance():
    # 59,904 cells: the order-3 tuple count (about 4e13 time-ordered ones)
    # rules out any enumeration, while the product form walks the times once
    table = _wavy_table(3, horizon=1024)
    assert len(table.weights) == 512 * (59 + 58)
    second = summarize(U.ustat_moment_suite(table, 2000, 20261018)[-1] ** 2)
    exact = _exact(table)
    assert abs(second.mean - exact) < 5.0 * second.stderr


def test_moment_suite_cross_orders_uncorrelated():
    def h(ts, xs):
        return np.exp(-xs**2) * (np.abs(xs) <= 2.0)

    table = U.build_cell_table(h, 2, 2.0, 5, constant_disorder(1.0))
    values = U.ustat_moment_suite(table, 3000, 246)
    assert values.shape == (2, 3000)
    for row in values:
        mean = summarize(row)
        assert abs(mean.mean) < 4.0 * mean.stderr
    cov = np.cov(values[0], values[1], ddof=1)[0, 1]
    assert abs(cov) < 4.0 * math.sqrt((values[0] ** 2 * values[1] ** 2).mean() / 3000)


def test_variance_scaling_bound_along_ladder():
    # at A = 1, E[S_n^2] / N^(1.5n) rises to the chaos isometry n! ||h||^(2n)
    # from below, and its gap closes like 1/N
    def h(ts, xs):
        return np.exp(-xs**2) * (np.abs(xs) <= 2)

    # ||h||^2 over [0, 1] x R, in closed form
    norm_sq = math.sqrt(math.pi / 2) * erf(2 * math.sqrt(2))
    orders = np.arange(1, 4)
    limit = np.array([math.factorial(n) * norm_sq**n for n in orders])
    gaps = []
    for horizon in (16, 64, 256, 1024):
        table = U.build_cell_table(h, 3, 2.0, horizon, constant_disorder(1.0))
        ratio = U.exact_second_moment(table) / (horizon ** (1.5 * orders) * limit)
        assert np.all(ratio > 0.0) and np.all(ratio <= 1.0)
        gaps.append(1.0 - ratio)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert np.all(fine * 3.0 <= coarse)


@pytest.mark.parametrize("horizon", [16, 256])
def test_one_sweep_gives_every_order_bit_for_bit(horizon):
    # S_1, S_2 and S_3 from one table and one pass equal three passes of
    # their own, each on a table built for its order
    def h(ts, xs):
        return np.exp(-xs**2) * (1.0 + 0.5 * xs) * (np.abs(xs) <= 2.0)

    amp = DisorderFunction(lambda n, z: 1.0 / (1.0 + 0.1 * np.abs(np.asarray(z, dtype=float))), 1.0)
    seeds = substream(3, 71).integers(2**63, size=300, dtype=np.int64)
    sweep = U.evaluate_table(U.build_cell_table(h, 3, 2.0, horizon, amp), seeds)
    assert sweep.shape == (3, len(seeds))
    for order in (1, 2, 3):
        table = U.build_cell_table(h, order, 2.0, horizon, amp)
        assert sweep[order - 1].tobytes() == ustat_one_order(table, seeds, order).tobytes()

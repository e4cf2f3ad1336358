import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from collisim.collisions import gaussian_bump
from collisim.environment import (
    ContinuumAmplitude,
    DisorderFunction,
    EnvironmentField,
    cells_of,
    disorder_from_function,
)
from collisim.polymer import partition_dp
from collisim.rngs import HASH_VERSION
import oracles
from oracles import cell_of, constant_disorder


def test_omega_deterministic_and_signed():
    field = EnvironmentField(12345)
    vals = {field.omega_at(n, z) for n in range(1, 30) for z in range(-15, 16)}
    assert vals <= {-1, 1}
    assert field.omega_at(3, -5) == field.omega_at(3, -5)
    other = EnvironmentField(12346)
    grid_n, grid_z = np.meshgrid(np.arange(1, 200), np.arange(-50, 50), indexing="ij")
    assert np.any(field.omega_at(grid_n, grid_z) != other.omega_at(grid_n, grid_z))


def test_field_golden_values():
    # recorded under splitmix64/v1, the field of every report before v2, and
    # asserted through the v1 oracle: its hash and its transfer
    cases = [(1, 1, 1, 1), (1, 2, -2, -1), (12345, 7, -5, -1), (12345, 64, 40, 1),
             (98765, 1, -1, 1), (271828, 1000, -1000, -1),
             (2**63 - 1, 3, -1, -1), (2**63 - 1, 100, -99, 1)]
    for seed, n, z, sign in cases:
        assert oracles.field_v1(seed)(n, z) == sign, (seed, n, z)
    n = np.arange(1, 17)
    z = np.where(n % 2 == 1, -n, n)
    assert oracles.field_v1(2**63 - 1)(n, z).tolist() == [
        1, 1, -1, 1, 1, -1, -1, 1, 1, 1, 1, -1, 1, 1, 1, -1]
    value = oracles.transfer_reference(16, constant_disorder(0.3), oracles.field_v1(2**63 - 1))[0]
    assert value.hex() == "0x1.5bc6e8a10475ap+0"  # 1.3585038560017524


def test_field_golden_values_v2():
    # recorded under splitmix64/v2: a change to any value below changes the
    # field every report is computed on, and must come with a new HASH_VERSION
    assert HASH_VERSION == "splitmix64/v2"
    cases = [(1, 1, 1, 1), (1, 2, -2, 1), (12345, 7, -5, 1), (12345, 64, 40, 1),
             (98765, 1, -1, -1), (271828, 1000, -1000, -1),
             (2**63 - 1, 3, -1, -1), (2**63 - 1, 100, -99, -1)]
    for seed, n, z, sign in cases:
        assert EnvironmentField(seed).omega_at(n, z) == sign, (seed, n, z)
        assert oracles.cell_sign_v2(seed, n, z) == sign, (seed, n, z)
    n = np.arange(1, 17)
    z = np.where(n % 2 == 1, -n, n)
    assert EnvironmentField(2**63 - 1).omega_at(n, z).tolist() == [
        -1, -1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1, -1, 1]
    value = partition_dp(16, constant_disorder(0.3), EnvironmentField(2**63 - 1)).value
    assert value.hex() == "0x1.1a8bf85e94a92p-1"  # 0.5518491378264392


def test_off_parity_cell_reads_the_cell_below():
    # no walk visits (n, z) with z + n odd; v2 gives it the sign of (n, z - 1)
    field = EnvironmentField(4242)
    n = np.repeat(np.arange(1, 40), 81)
    z = np.tile(np.arange(-40, 41), 39)
    odd = (n + z) % 2 == 1
    assert np.array_equal(field.omega_at(n[odd], z[odd]), field.omega_at(n[odd], z[odd] - 1))


def test_omega_empirical_mean_bound():
    # parity-matched cells n <= 1000, |z| <= 1000: about 1e6 cells, and the
    # empirical mean must respect the 4-sigma binomial concentration bound
    field = EnvironmentField(271828)
    n = np.arange(1, 1001)
    total = 0.0
    count = 0
    for ni in n:
        z = np.arange(-1000 + ((1000 + ni) % 2), 1001, 2)
        vals = field.omega_at(np.full_like(z, ni), z)
        total += vals.sum()
        count += len(z)
    assert count >= 10**6
    assert abs(total / count) < 4.0 / math.sqrt(count)


def test_omega_pairwise_independence_chi2():
    field = EnvironmentField(999)
    n = np.arange(1, 100_001)
    a = field.omega_at(n, np.zeros_like(n))
    b = field.omega_at(n, np.full_like(n, 2))
    table = np.array([
        [np.sum((a == 1) & (b == 1)), np.sum((a == 1) & (b == -1))],
        [np.sum((a == -1) & (b == 1)), np.sum((a == -1) & (b == -1))],
    ])
    _, pvalue, _, _ = chi2_contingency(table)
    assert pvalue > 0.001


@pytest.mark.parametrize("site", [5, 63, 127, -1])
def test_omega_neighbour_sites_independent_chi2(site):
    # sites j and j + 1 of one step share a word (j = 5) or straddle a word
    # boundary (j = 63, 127, and -1 | 0 below the origin): 100k steps each
    field = EnvironmentField(2024)
    n = np.arange(200, 100_200)
    a = field.omega_at(n, 2 * site - n)
    b = field.omega_at(n, 2 * (site + 1) - n)
    table = np.array([[np.sum((a == sa) & (b == sb)) for sb in (1, -1)] for sa in (1, -1)])
    _, pvalue, _, _ = chi2_contingency(table)
    assert pvalue > 0.001
    # and each site is balanced within 4 sigma
    assert abs(a.mean()) < 4.0 / math.sqrt(len(n))


def test_cell_of_examples():
    # x = 0 with odd time index: 0 lies in the right-closed interval of the
    # cell left of the origin, so z = -1
    assert cell_of(1 / 8, 0.0, 8) == (1, -1)
    assert cell_of(2 / 8, 0.0, 8) == (2, 0)
    assert cell_of(1.0, 0.5, 1) == (1, 1)
    with pytest.raises(ValueError):
        cell_of(0.0, 0.0, 8)
    with pytest.raises(ValueError):
        cell_of(1.2, 0.0, 8)


@given(st.integers(min_value=1, max_value=64), st.floats(0.001, 1.0),
       st.floats(-5.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_cell_of_reconstruction(horizon, t, x):
    # keep the point away from cell boundaries: boundary assignment below
    # float resolution is not decidable (x = 1e-300 vs x = 0)
    u = x * math.sqrt(horizon)
    if abs(u - round(u)) < 1e-9 or abs(horizon * t - round(horizon * t)) < 1e-9:
        return
    i, z = cell_of(t, x, horizon)
    sqrt_n = math.sqrt(horizon)
    assert (i - 1) / horizon < t <= i / horizon
    assert z - 1 < u <= z + 1
    assert (i + z) % 2 == 0
    # the defining conditions pick this cell uniquely among candidates
    for zc in range(z - 4, z + 5):
        if zc == z or (i + zc) % 2 != 0:
            continue
        assert not (zc - 1 < u <= zc + 1)


def test_cell_of_right_inverse_on_rectangles():
    horizon = 9
    sqrt_n = math.sqrt(horizon)
    for i in range(1, horizon + 1):
        for z in range(-7 + ((7 + i) % 2), 8, 2):
            for ft, fx in ((0.3, 0.2), (0.99, 0.99), (0.01, 0.5)):
                t = (i - 1 + ft) / horizon
                x = (z - 1 + 2 * fx) / sqrt_n
                assert cell_of(t, x, horizon) == (i, z)


def test_cells_of_matches_scalar():
    rng = np.random.default_rng(5)
    t = rng.uniform(0.01, 1.0, size=50)
    x = rng.uniform(-4, 4, size=50)
    iv, zv = cells_of(t, x, 31)
    for j in range(50):
        assert (iv[j], zv[j]) == cell_of(t[j], x[j], 31)


def test_disorder_from_function_constant():
    a = ContinuumAmplitude(lambda t, x: np.full(np.broadcast(t, x).shape, 0.7), 0.7)
    field = disorder_from_function(a, 16)
    n = np.arange(1, 17)
    assert np.allclose(field(n, np.zeros_like(n)), 0.7)
    assert field.bound == 0.7


def test_disorder_from_a_test_function():
    # a test function is an amplitude: its bound carries over to the lattice
    field = disorder_from_function(gaussian_bump(0.5, 1.0), 16)
    assert field.bound == 0.5
    assert float(field(16, 0)) == 0.5


def test_disorder_from_function_gaussian_at_origin():
    a = ContinuumAmplitude(lambda t, x: np.exp(-np.asarray(x) ** 2), 1.0)
    field = disorder_from_function(a, 64)
    assert float(field(64, 0)) == 1.0


def test_disorder_sampling_converges_to_continuum():
    a = ContinuumAmplitude(lambda t, x: np.exp(-np.asarray(x) ** 2) * (1 + np.asarray(t)), 2.0)
    pts = [(0.2, 0.5), (0.7, -1.0), (0.95, 1.7), (0.4, 0.0)]
    errs = []
    for horizon in (100, 1_000_000):
        field = disorder_from_function(a, horizon)
        worst = 0.0
        for t, x in pts:
            i, z = cell_of(t, x, horizon)
            worst = max(worst, abs(float(field(i, z)) - float(a(t, x))))
        errs.append(worst)
    assert errs[1] < errs[0]


def test_constant_disorder_shape():
    amp = constant_disorder(0.25)
    vals = amp(np.arange(3), np.arange(3))
    assert np.allclose(vals, 0.25)
    assert isinstance(amp, DisorderFunction)

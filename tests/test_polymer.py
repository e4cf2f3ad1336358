import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim import polymer as P
from collisim import walks as W
from collisim.environment import DisorderFunction, EnvironmentField
from collisim.rngs import substream
import oracles
from oracles import constant_disorder


def _wavy_amplitude(scale):
    return DisorderFunction(
        lambda n, z, s=scale: s * np.cos(0.3 * np.asarray(n, dtype=float)
                                         + 0.7 * np.asarray(z, dtype=float)), scale)


def test_partition_one_step_formula():
    for seed in (1, 2, 3, 11):
        field = EnvironmentField(seed)
        beta = 0.4
        got = P.partition_dp(1, constant_disorder(beta), field).value
        expected = 1 + beta * (field.omega_at(1, 1) + field.omega_at(1, -1)) / 2
        assert got == pytest.approx(expected, abs=1e-15)


def test_partition_trivial_environment():
    for horizon in (1, 5, 40):
        assert P.partition_dp(horizon, constant_disorder(0.0), EnvironmentField(7)).value == 1.0


def test_partition_matches_enumeration():
    rng = substream(9, 9)
    for _ in range(15):
        horizon = int(rng.integers(1, 11))
        field = EnvironmentField(int(rng.integers(0, 2**31)))
        amp = _wavy_amplitude(float(rng.uniform(0.1, 0.6)))
        dp = P.partition_dp(horizon, amp, field).value
        pos, prob = oracles.enumerate_paths(horizon)
        total = 0.0
        for path in pos:
            w = prob
            for n in range(1, horizon + 1):
                w *= 1 + float(amp(n, path[n])) * field.omega_at(n, int(path[n]))
            total += w
        assert dp == pytest.approx(total, abs=1e-12)


def test_chaos_terms_structure():
    field = EnvironmentField(42)
    amp = _wavy_amplitude(0.5)
    terms = P.chaos_terms(5, 0.7, amp, field)
    assert terms[0] == 1.0
    assert len(terms) == 6
    # one-step decomposition matches the partition value
    t1 = P.chaos_terms(1, 0.7, amp, field)
    val = P.partition_dp(1, P.scaled_disorder(amp, 0.7), field).value
    assert t1.sum() == pytest.approx(val, rel=1e-14)


def test_chaos_terms_sum_to_partition():
    field = EnvironmentField(5150)
    amp = _wavy_amplitude(0.45)
    for beta in (0.3, 1.0):
        terms = P.chaos_terms(3, beta, amp, field)
        dp = P.partition_dp(3, P.scaled_disorder(amp, beta), field).value
        assert terms.sum() == pytest.approx(dp, rel=1e-12)


def test_chaos_terms_match_enumeration_oracle():
    field = EnvironmentField(31337)
    amp = _wavy_amplitude(0.4)
    terms = P.chaos_terms(6, 0.8, amp, field)
    oracle = oracles.chaos_terms_enumerated(6, 0.8, amp, field)
    assert np.allclose(terms, oracle, rtol=1e-11, atol=1e-14)


def test_chaos_truncation_drops_high_orders():
    field = EnvironmentField(2)
    amp = _wavy_amplitude(0.5)
    full = P.chaos_terms(6, 1.0, amp, field)
    trunc = P.chaos_terms(6, 1.0, amp, field, max_order=3)
    assert np.allclose(full[:4], trunc[:4], rtol=1e-12)
    assert len(trunc) == 4


def test_partition_with_terms_breakdown():
    # the untruncated chaos terms are a breakdown of the partition value
    field = EnvironmentField(77)
    amp = _wavy_amplitude(0.3)
    terms = P.chaos_terms(6, 1.0, amp, field)
    assert terms.sum() == pytest.approx(P.partition_dp(6, amp, field).value, rel=1e-10)


def _replayed_seeds(rng, n_replicas):
    # the field seeds partition_samples draws from the same generator state
    return rng.integers(0, 2**63, size=n_replicas, dtype=np.int64)


def test_partition_samples_are_hashed_fields():
    # every sample is the partition function of a named field, bit for bit
    horizon = 1024
    amp = P.scaled_disorder(_wavy_amplitude(1.0), horizon ** (-0.25))
    got = P.partition_samples(horizon, amp, 40, substream(3, 1))
    seeds = _replayed_seeds(substream(3, 1), 40)
    assert got.tobytes() == P.partition_many(horizon, amp, seeds).tobytes()
    for i in (0, 17, 39):
        value = P.partition_dp(horizon, amp, EnvironmentField(int(seeds[i]))).value
        assert np.float64(value).tobytes() == got[i].tobytes()


def test_partition_mean_one_and_positive():
    horizon = 64
    amp = P.scaled_disorder(constant_disorder(1.0), horizon ** (-0.25))
    vals = P.partition_samples(horizon, amp, 20_000, substream(21, 0))
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) < 4 * se
    # c = 1 and N > c^4: every factor is positive, hence so is the value
    assert np.all(vals > 0)


def _collision_ensemble(*positions):
    return W.WalkEnsemble(tuple(W.WalkPath(np.array(p)) for p in positions),
                          len(positions[0]) - 1)


def test_collision_weights_cases():
    theta = constant_disorder(0.2)
    # all sites singly occupied: X = 0
    ens = _collision_ensemble([0, 1, 2, 3], [0, -1, -2, -3])
    assert np.allclose(P.collision_weights(ens, theta).per_step, 0.0)
    # one pair: X_n = theta^2 at collision times
    ens = _collision_ensemble([0, 1, 0, 1], [0, -1, 0, 1])
    x = P.collision_weights(ens, theta).per_step
    assert x[0] == 0.0
    assert x[1] == pytest.approx(0.2**2, rel=1e-12)
    assert x[2] == pytest.approx(0.2**2, rel=1e-12)
    # triple occupancy: X = 3 theta^2
    ens = _collision_ensemble([0, 1], [0, 1], [0, 1])
    x = P.collision_weights(ens, theta).per_step
    assert x[0] == pytest.approx(3 * 0.2**2, rel=1e-12)


def test_collision_weights_against_subset_oracle():
    rng = substream(17, 0)
    theta_field = DisorderFunction(
        lambda n, z: 0.1 + 0.05 * np.cos(np.asarray(z, dtype=float)), 0.15)
    for k in (2, 3, 4, 5):
        ens = W.sample_ensemble(k, 12, rng)
        weights = P.collision_weights(ens, theta_field)
        pos = ens.position_matrix()
        for n in range(1, 13):
            sites = pos[:, n]
            thetas = np.asarray(theta_field(np.full(k, n), sites), dtype=float)
            oracle = oracles.subset_expansion_weight(sites.tolist(), thetas)
            assert weights.per_step[n - 1] == pytest.approx(oracle, rel=1e-10, abs=1e-15)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_collision_weights_nonnegative_and_bounded(seed):
    # 0 <= X_n <= (c+1)^k / sqrt(N) at intermediate-disorder scale
    horizon, k, c = 36, 3, 1.0
    ens = W.sample_ensemble(k, horizon, substream(seed, 0))
    theta = P.scaled_disorder(constant_disorder(c), horizon ** (-0.25))
    x = P.collision_weights(ens, theta).per_step
    assert np.all(x >= 0.0)
    assert np.all(x <= (c + 1) ** k / math.sqrt(horizon))


def _in_band_paths(horizon, band):
    pos, prob = oracles.enumerate_paths(horizon)
    return pos[np.abs(pos).max(axis=1) <= band], prob


def _weights_over(paths, prob, amp, sign_at):
    """Enumeration of z restricted to ``paths``: sum of prob * prod(1 + A omega)."""
    w = np.full(len(paths), prob)
    for n in range(1, paths.shape[1]):
        sites = paths[:, n]
        w *= 1.0 + np.asarray(amp(np.full_like(sites, n), sites), dtype=float) * sign_at(n, sites)
    return w.sum()


def test_band_geometry_and_tail_bound():
    for horizon in (1, 16, 64):
        assert P.band_halfwidth(horizon) == horizon
        assert P.band_tail_bound(horizon) == 0.0
    assert P.band_halfwidth(65) == 64
    assert P.band_halfwidth(1024) == 256
    assert P.band_tail_bound(1024) == pytest.approx(2.0 * math.exp(-257**2 / 2048), rel=1e-15)
    assert P.band_tail_bound(1024) < 2.5e-14


def test_narrow_band_matches_enumeration(monkeypatch):
    # sigma = 1 gives B = 3 at N = 12: the band cuts the cone at every step
    # from n = 4 on, so all three engines must drop exactly the paths that
    # leave |z| <= 3 and keep every other cell in its column
    monkeypatch.setattr(P, "BAND_SIGMAS", 1.0)
    horizon, band = 12, 3
    assert P.band_halfwidth(horizon) == band
    paths, prob = _in_band_paths(horizon, band)
    amp = _wavy_amplitude(0.45)

    seeds = _replayed_seeds(substream(12, 0), 3)
    many = P.partition_many(horizon, amp, seeds)
    for seed, got in zip(seeds, many):
        field = EnvironmentField(int(seed))
        want = _weights_over(paths, prob, amp, field.omega_at)
        assert got == pytest.approx(want, abs=1e-13)
        terms = P.chaos_terms(horizon, 1.0, amp, field)
        assert terms.sum() == pytest.approx(want, abs=1e-13)

    # the sampler's rows are the fields of the seeds it draws
    got = P.partition_samples(horizon, amp, 3, substream(12, 1))
    replayed = _replayed_seeds(substream(12, 1), 3)
    assert got.tobytes() == P.partition_many(horizon, amp, replayed).tobytes()
    for seed, value in zip(replayed, got):
        want = _weights_over(paths, prob, amp, EnvironmentField(int(seed)).omega_at)
        assert value == pytest.approx(want, abs=1e-13)

    # with no disorder z_N is the probability of staying in the band, and
    # the dropped mass sits under the reported tail bound (B = 7 at N = 14)
    monkeypatch.setattr(P, "BAND_SIGMAS", 2.0)
    paths, prob = _in_band_paths(14, P.band_halfwidth(14))
    stay = P.partition_many(14, constant_disorder(0.0), [1])[0]
    assert stay == pytest.approx(len(paths) * prob, abs=1e-15)
    assert 0.0 < 1.0 - stay <= P.band_tail_bound(14) < 0.25


@pytest.mark.parametrize("horizon", [16, 64, 1024])
def test_band_matches_full_width(horizon, monkeypatch):
    amp = P.scaled_disorder(_wavy_amplitude(1.0), horizon ** (-0.25))
    seeds = _replayed_seeds(substream(8, horizon, 0), 6)

    def engines():
        return (P.partition_samples(horizon, amp, 6, substream(8, horizon)),
                P.partition_many(horizon, amp, seeds),
                P.chaos_terms(horizon, 1.0, amp, EnvironmentField(int(seeds[0])), max_order=6))

    banded = engines()
    monkeypatch.setattr(P, "BAND_SIGMAS", math.inf)
    assert P.band_halfwidth(horizon) == horizon
    full = engines()
    for b, f in zip(banded, full):
        if horizon <= 64:
            assert b.tobytes() == f.tobytes()
        else:
            np.testing.assert_allclose(b, f, rtol=1e-12, atol=0.0)


def test_partition_dp_is_a_partition_many_row():
    horizon = 1024
    amp = P.scaled_disorder(_wavy_amplitude(1.0), horizon ** (-0.25))
    seeds = _replayed_seeds(substream(10, 0), 5)
    batch = P.partition_many(horizon, amp, seeds)
    for i in (0, 3):
        value = P.partition_dp(horizon, amp, EnvironmentField(int(seeds[i]))).value
        assert np.float64(value).tobytes() == batch[i].tobytes()


def test_partition_many_blocks_are_bit_identical():
    # rows are independent: 600 seeds run as blocks of 256, 256 and 88 give
    # the bytes of one 600-row transfer pass and of three separate calls
    horizon = 100
    amp = P.scaled_disorder(_wavy_amplitude(1.0), horizon ** (-0.25))
    seeds = _replayed_seeds(substream(11, 0), 600)
    got = P.partition_many(horizon, amp, seeds)
    one_pass = P._transfer(horizon, amp, np.ones(600), seeds)
    assert got.tobytes() == one_pass.tobytes()
    per_block = [P.partition_many(horizon, amp, seeds[lo:lo + 256]) for lo in (0, 256, 512)]
    assert got.tobytes() == np.concatenate(per_block).tobytes()
    assert P.partition_many(horizon, amp, seeds[:0]).shape == (0,)


# float.hex values recorded under splitmix64/v1 with the band sliding (B < N),
# asserted through the v1 oracle: its hash and its transfer recursion
_SLIDING_BAND_PINS = {
    256: ["0x1.eb27c38cdbf71p+0", "0x1.c063f6fc2b3e4p-1",
          "0x1.707dea0c41e58p+1", "0x1.1dfe693729b8fp-1"],
    1024: ["0x1.6c7cd722c50bep+0", "0x1.5a4f1299974bcp+0",
           "0x1.3fb2db69e7a3ep-1", "0x1.372f7ffdba1c7p-1"],
}

# the same cases under splitmix64/v2: any change to the transfer's arithmetic
# or summation order moves a byte
_SLIDING_BAND_PINS_V2 = {
    256: ["0x1.c351ed0179d48p-1", "0x1.3ff099ae02753p-1",
          "0x1.49f097c942bfap+0", "0x1.709a37e24bf5cp+0"],
    1024: ["0x1.57b81484a8a5cp+2", "0x1.fb7bd5d7b5331p-4",
           "0x1.1592be749678cp-2", "0x1.07dd3f88a3751p-1"],
}


# the field seeds of the sliding-band cases, at which the pins were recorded
_SLIDING_BAND_SEEDS = {
    256: [2226783925380817263, 6531897704970299856, 1162343255113574749, 3441351399596956484],
    1024: [8622026903947687689, 5538635456758885729, 4005040966939744772, 5522408358601139263],
}


def _sliding_band_case(horizon):
    amp = P.scaled_disorder(_wavy_amplitude(1.0), horizon ** (-0.25))
    return amp, np.array(_SLIDING_BAND_SEEDS[horizon], dtype=np.int64)


@pytest.mark.parametrize("horizon", sorted(_SLIDING_BAND_PINS))
def test_partition_many_sliding_band_pins(horizon):
    assert P.band_halfwidth(horizon) < horizon
    amp, seeds = _sliding_band_case(horizon)
    got = [oracles.transfer_reference(horizon, amp, oracles.field_v1(int(s)))[0] for s in seeds]
    assert [float(v).hex() for v in got] == _SLIDING_BAND_PINS[horizon]


@pytest.mark.parametrize("horizon", sorted(_SLIDING_BAND_PINS_V2))
def test_partition_many_sliding_band_pins_v2(horizon):
    amp, seeds = _sliding_band_case(horizon)
    got = P.partition_many(horizon, amp, seeds)
    assert [float(v).hex() for v in got] == _SLIDING_BAND_PINS_V2[horizon]


@pytest.mark.parametrize("horizon", [256, 1024])
def test_partition_many_matches_omega_at_reference(horizon):
    # the band slides and the windows cross 64-site words: the word-unpacking
    # transfer equals the plain recursion on omega_at's +-1 signs bit for bit
    amp, seeds = _sliding_band_case(horizon)
    want = [oracles.transfer_reference(horizon, amp, EnvironmentField(int(s)).omega_at)[0]
            for s in seeds]
    assert P.partition_many(horizon, amp, seeds).tobytes() == np.array(want).tobytes()


def _chaos_pin_case():
    amp = P.scaled_disorder(_wavy_amplitude(1.0), 256 ** (-0.25))
    return amp, 726139677811401541  # the field seed the pins were recorded at


def test_chaos_terms_sliding_band_pins():
    amp, seed = _chaos_pin_case()
    terms = oracles.transfer_reference(256, amp, oracles.field_v1(seed), np.r_[1.0, np.zeros(8)],
                                       beta=1.0)
    assert [float(v).hex() for v in terms] == [
        "0x1.ffffffffffffep-1", "-0x1.16e553dc094f5p-1", "-0x1.129103c2f0a56p-1",
        "0x1.22f4d9ec1a57dp-2", "0x1.5092998995fd1p-3", "-0x1.399fdfa49ff70p-4",
        "-0x1.2426dc3ad86a4p-5", "0x1.cd552031ad976p-7", "0x1.5acff8afb6f4fp-8"]


def test_chaos_terms_sliding_band_pins_v2():
    amp, seed = _chaos_pin_case()
    field = EnvironmentField(seed)
    terms = P.chaos_terms(256, 1.0, amp, field, max_order=8)
    assert [float(v).hex() for v in terms] == [
        "0x1.ffffffffffffep-1", "0x1.3a12efd5ee39ap+0", "0x1.9016f3a08b000p-2",
        "-0x1.7529e468966b0p-3", "-0x1.754f99f1862c0p-3", "-0x1.381d91d908c13p-5",
        "0x1.0e32b9bf7c79bp-6", "0x1.6a9e2a33a1907p-7", "0x1.cb2824c969268p-10"]
    want = oracles.transfer_reference(256, amp, field.omega_at, np.r_[1.0, np.zeros(8)], beta=1.0)
    assert terms.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 256, 300])
def test_partition_dp_rows_of_partition_many(rows):
    # the amplitude blocks depend on (N, B) alone, so a one-row call reads
    # the values of every row count bit for bit, across _ROW_BLOCK splits too
    horizon = 1024
    wavy = P.scaled_disorder(_wavy_amplitude(1.0), horizon ** (-0.25))
    sizes = []

    def recorded(n, z):
        sizes.append(np.size(n))
        return wavy(n, z)

    amp = DisorderFunction(recorded, wavy.bound)
    seeds = _replayed_seeds(substream(14, 0), rows)
    batch = P.partition_many(horizon, amp, seeds)
    many_sizes = sizes[:]
    for i in sorted({0, rows // 2, rows - 1}):
        sizes.clear()
        value = P.partition_dp(horizon, amp, EnvironmentField(int(seeds[i]))).value
        assert np.float64(value).tobytes() == batch[i].tobytes()
    # every transfer pass evaluates the amplitude on the same blocks
    assert many_sizes == sizes * -(-rows // P._ROW_BLOCK)


@pytest.mark.parametrize("horizon,k", [(4, 4), (3, 5)])
def test_exact_bridge_by_enumeration(horizon, k):
    # E_env[z^k] = E_walks[prod_n (1 + X_n)] as an exact identity: both
    # sides by enumeration, every sign configuration against every k-tuple
    def theta_fn(n, z):
        n = np.asarray(n, dtype=float)
        z = np.asarray(z, dtype=float)
        return 0.3 + 0.2 * np.cos(0.9 * n + 0.6 * z) ** 2

    theta = DisorderFunction(theta_fn, 0.5)
    pos, prob = oracles.enumerate_paths(horizon)
    cells = [(n, z) for n in range(1, horizon + 1) for z in range(-n, n + 1, 2)]
    index = {cell: c for c, cell in enumerate(cells)}
    th = np.array([theta_fn(n, z) for n, z in cells])
    configs = np.arange(1 << len(cells))[:, None] >> np.arange(len(cells))[None, :] & 1
    omega = 1.0 - 2.0 * configs
    factors = 1.0 + th[None, :] * omega  # (configs, cells)
    z_vals = np.zeros(len(configs))
    for path in pos:
        visited = [index[(n, int(path[n]))] for n in range(1, horizon + 1)]
        z_vals += prob * factors[:, visited].prod(axis=1)
    env_side = (z_vals**k).mean()

    # prod(1 + X) is symmetric in the walks: one ensemble per multiset of
    # paths, counted by its number of orderings
    walk_side = 0.0
    for tup in itertools.combinations_with_replacement(range(len(pos)), k):
        ens = W.WalkEnsemble(tuple(W.WalkPath(pos[i]) for i in tup), horizon)
        orderings = math.factorial(k)
        for c in np.unique(tup, return_counts=True)[1]:
            orderings //= math.factorial(int(c))
        walk_side += orderings * float(np.prod(1.0 + P.collision_weights(ens, theta).per_step))
    walk_side *= prob**k
    assert env_side > 1.0
    assert walk_side == pytest.approx(env_side, rel=1e-12)

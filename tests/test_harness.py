import math

import numpy as np
import pytest

from collisim import collisions as C
from collisim import harness as H
from collisim import polymer as P
from collisim.collisions import constant_fn, gaussian_bump
from collisim.rngs import substream
from collisim.walks import WalkEnsemble, WalkPath, positions_from_steps


def test_summarize_constant():
    s = H.summarize(np.full(100, 3.0))
    assert s.mean == 3.0 and s.stderr == 0.0
    assert s.ci99 == (3.0, 3.0)


def test_summarize_rejects_nonfinite():
    with pytest.raises(H.NonFiniteSample):
        H.summarize([1.0, float("nan"), 2.0])


def test_ks_identical_samples():
    xs = np.arange(100, dtype=float)
    res = H.ks_two_sample(xs, xs)
    assert res.statistic == 0.0
    assert res.pvalue == pytest.approx(1.0)
    assert "integer" in res.note


def test_ks_power_on_shifted_normals():
    rng = substream(3, 3)
    xs = rng.standard_normal(10_000)
    ys = rng.standard_normal(10_000) + 1.0
    res = H.ks_two_sample(xs, ys)
    assert res.pvalue < 1e-6


def test_ks_null_behavior():
    rng = substream(4, 4)
    xs = rng.standard_normal(5000)
    ys = rng.standard_normal(5000)
    res = H.ks_two_sample(xs, ys)
    assert res.pvalue > 0.01


def test_jitter_preserves_integer_order():
    rng = substream(5, 5)
    vals = np.array([3.0, 1.0, 1.0, 7.0])
    out = H.jitter(vals, rng)
    assert np.all(np.floor(out) == vals)


def _measure_oracle(k, horizon, f, n_replicas, seed, chunk):
    """collision_statistics rebuilt replica by replica from the same chunked
    step stream, through the per-ensemble measures and collision weights."""
    theta = P.scaled_disorder(H._sqrt_f_disorder(f, horizon), horizon ** (-0.25))
    ref = {key: np.empty(n_replicas) for key in
           ("pi_f", "pi_prime_f", "mass", "distinct_mass", "t_sum", "prod_x", "max_abs")}
    ranges = H._chunk_ranges(n_replicas, chunk)
    assert len(ranges) >= 2
    for idx, start, size in ranges:
        rng = substream(seed, H._TAG_WALKS, idx)
        steps = rng.integers(0, 2, size=(size, k, horizon), dtype=np.int8) * 2 - 1
        pos = positions_from_steps(steps)
        for j in range(size):
            r = start + j
            ens = WalkEnsemble(tuple(
                WalkPath(np.concatenate(([0], pos[j, i]))) for i in range(k)), horizon)
            with_mult, distinct = C.detect_collisions(ens)
            x = P.collision_weights(ens, theta).per_step
            ref["pi_f"][r] = C.integrate(with_mult, f)
            ref["pi_prime_f"][r] = C.integrate(distinct, f)
            ref["mass"][r] = with_mult.total_mass()
            ref["distinct_mass"][r] = distinct.total_mass()
            ref["t_sum"][r] = x.sum()
            ref["prod_x"][r] = np.prod(1.0 + x)
            ref["max_abs"][r] = np.abs(pos[j]).max() / math.sqrt(horizon)
    return ref


def test_collision_statistics_match_measure_oracle():
    horizon, n_replicas, chunk, seed = 32, 150, 64, 99
    f = C.TestFunction(lambda t, x: (0.3 + 0.4 * t) * np.exp(-x * x / 2.0), 0.7, True)
    for k in (2, 3, 4, 5):
        stats = H.collision_statistics(k, horizon, f, n_replicas, seed, chunk=chunk)
        ref = _measure_oracle(k, horizon, f, n_replicas, seed, chunk)
        for key in ("mass", "distinct_mass", "max_abs"):
            assert np.array_equal(stats[key], ref[key]), (k, key)
        for key in ("pi_f", "pi_prime_f", "t_sum", "prod_x"):
            np.testing.assert_allclose(stats[key], ref[key], rtol=1e-12, atol=0,
                                       err_msg=f"k={k} {key}")
        if k >= 4:
            # some replica has a cell with m >= 4 or two collision sites at
            # one time, where X departs from the pair formula sum_pairs theta^2
            pair_formula = stats["pi_f"] / math.sqrt(horizon)
            assert np.any(np.abs(ref["t_sum"] - pair_formula) > 1e-9), k


@pytest.mark.parametrize("k", [2, 3, 4])
def test_collision_statistics_negative_f_clips_x_weights(k):
    # theta^2 = max(f, 0)/sqrt N as on the environment side; Pi keeps the sign
    stats = H.collision_statistics(k, 32, constant_fn(-0.5), 400, 12)
    assert np.all(stats["prod_x"] == 1.0)
    assert np.all(stats["t_sum"] == 0.0)
    hit = stats["mass"] > 0
    assert hit.any()
    assert np.all(stats["pi_f"][hit] < 0.0)
    assert np.all(stats["pi_prime_f"][hit] < 0.0)


def test_collision_statistics_k2_pi_equals_prime():
    f = gaussian_bump(0.5, 1.0)
    stats = H.collision_statistics(2, 64, f, 200, 7)
    assert np.array_equal(stats["pi_f"], stats["pi_prime_f"])
    assert np.array_equal(stats["mass"], stats["distinct_mass"])
    # a collision-free replicate carries no weight on either side of the duality
    free = stats["mass"] == 0
    assert free.any()
    assert np.all(stats["prod_x"][free] == 1.0)
    assert np.all(stats["exp_pi"][free] == 1.0)


def test_collision_statistics_worker_invariance():
    f = gaussian_bump(0.5, 1.0)
    for k in (3, 4):
        one = H.collision_statistics(k, 64, f, 300, 17, workers=1, chunk=64)
        two = H.collision_statistics(k, 64, f, 300, 17, workers=2, chunk=64)
        assert one.keys() == two.keys()
        for key in one:
            assert np.array_equal(one[key], two[key]), (k, key)


def test_duality_experiment_zero_function():
    rep = H.duality_experiment(2, constant_fn(0.0), [8, 16], 300, 300, 23)
    assert rep.passed
    for row in rep.tables["ladder"]:
        assert row["exp_pi"]["mean"] == 1.0
        assert row["prod_x"]["mean"] == 1.0
        assert row["z_to_k"]["mean"] == pytest.approx(1.0)


def test_duality_experiment_bridge_small():
    rep = H.duality_experiment(2, gaussian_bump(0.5, 1.0), [16, 64], 4000, 4000, 31)
    names = [v.name for v in rep.verdicts]
    assert "exact-bridge-N16" in names and "exact-bridge-N64" in names
    for v in rep.verdicts:
        if v.name.startswith("exact-bridge"):
            assert v.passed, v.detail


def test_exponential_moment_zero_beta():
    rep = H.exponential_moment_probe(0.0, [16, 32], 500, 3)
    for row in rep.tables["ladder"]:
        assert row["mean"] == 1.0


def test_exponential_moment_monotone_in_beta():
    means = []
    for beta in (0.5, 1.0, 2.0):
        rep = H.exponential_moment_probe(beta, [64], 4000, 44)
        means.append(rep.tables["ladder"][0]["mean"])
    assert means[0] < means[1] < means[2]


def test_tightness_probe_basics():
    rep = H.tightness_probe(3, [32, 64], [2, 4, 8, 16], 3000, 99)
    mass_rows = rep.tables["mass"]
    for row in mass_rows:
        assert all(b <= a + 1e-12 for a, b in zip(row["tails"], row["tails"][1:]))
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]


def test_tightness_extreme_threshold_zero():
    # m far beyond the deterministic mass bound: probability exactly 0
    rep = H.tightness_probe(2, [16], [1000.0], 500, 5)
    assert rep.tables["mass"][0]["tails"][0] == 0.0


def test_product_sum_deterministic_family():
    rep = H.product_sum_property_check("deterministic", [16, 64, 256, 1024], 50, 1)
    assert rep.passed
    rows = rep.tables["ladder"]
    # (1 + 1/N)^N / e -> 1 from below along the ladder
    devs = [row["ratio_dev_q99"] for row in rows]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    expected = 1.0 - (1 + 1 / 16) ** 16 / math.e
    assert devs[0] == pytest.approx(expected, rel=1e-10)


def test_product_sum_polymer_family():
    rep = H.product_sum_property_check("polymer", [16, 64], 2000, 12)
    assert rep.verdicts[0].passed, rep.verdicts[0].detail


def test_product_sum_unknown_family():
    with pytest.raises(ValueError):
        H.product_sum_property_check("bogus", [8], 10, 1)


def test_convergence_study_k2_pi_equals_prime():
    f = gaussian_bump(0.5, 1.0)
    rep = H.convergence_study(2, f, [16, 32], 500, 77)
    assert rep.tables["ks_pi_vs_prime"] == 0.0
    verdict = [v for v in rep.verdicts if v.name == "mass-gap-decays"][0]
    assert verdict.passed


def test_partition_experiment_small():
    rep = H.partition_experiment([16, 32, 64], 2, gaussian_bump(0.5, 1.0), 3000, 15)
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]


def test_collision_experiment_identity():
    for k in (2, 3):
        rep = H.collision_experiment(k, 64, 400, 21)
        names = [v.name for v in rep.verdicts]
        assert names == (["multiplicity-bounds", "mass-identity"] if k == 2
                         else ["multiplicity-bounds"]), k
        assert rep.passed, (k, [v.detail for v in rep.verdicts if not v.passed])


@pytest.mark.parametrize("k", [2, 3])
def test_collision_experiment_reads_kernel_mass(k):
    f = gaussian_bump(0.5, 1.0)
    rep = H.collision_experiment(k, 64, 700, 33, f)
    stats = H.collision_statistics(k, 64, f, 700, 33)
    assert rep.raw["mass"].tobytes() == stats["mass"].tobytes()
    assert rep.tables["mass"] == H._sum_dict(H.summarize(stats["mass"]))


def test_collision_experiment_worker_invariance():
    # 1100 replicates span three kernel chunks, so two workers share them out
    one = H.collision_experiment(3, 64, 1100, 8, workers=1)
    two = H.collision_experiment(3, 64, 1100, 8, workers=2)
    assert one.to_dict() == two.to_dict()
    assert np.array_equal(one.raw["mass"], two.raw["mass"])


@pytest.mark.parametrize("k", [2, 3])
def test_collision_experiment_flags_bad_replicate(monkeypatch, k):
    kernel = H.collision_statistics

    def corrupted(*args, **kwargs):
        stats = kernel(*args, **kwargs)
        hit = int(np.flatnonzero(stats["mass"] > 0)[0])
        stats["pi_f"][hit] = 0.5 * stats["pi_prime_f"][hit]
        stats["mass"][hit] += 1.0
        return stats

    monkeypatch.setattr(H, "collision_statistics", corrupted)
    rep = H.collision_experiment(k, 64, 300, 5)
    failed = {v.name for v in rep.verdicts if not v.passed}
    assert failed == ({"multiplicity-bounds", "mass-identity"} if k == 2
                      else {"multiplicity-bounds"})
    assert not rep.passed


def test_kernels_check_small():
    rep = H.kernels_check(2, 120_000, [16, 64, 256], 60_000, 31)
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]


def test_ustat_check_small():
    rep = H.ustat_check(4, 1500, 4)
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]


def test_chaos_experiment_small():
    rep = H.chaos_experiment(math.sqrt(2) * 0.5, 16, math.sqrt(1 / 16) * 0.999, 6.0,
                             5, 300, 41)
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]


def test_report_serialization_roundtrip():
    rep = H.exponential_moment_probe(0.0, [16], 100, 3)
    doc = rep.to_dict()
    assert doc["experiment"] == "expmoment"
    assert isinstance(doc["verdicts"], list)
    assert doc["passed"] is True
    assert all(isinstance(line, str) for line in rep.lines())


@pytest.mark.parametrize("k", [2, 3])
def test_t_sum_dominates_scaled_pi(k):
    # T_N >= Pi_N(f)/sqrt N pathwise, so exp(Pi_N(f)/sqrt N) <= exp(T_N); for
    # k <= 3 the two coincide since all odd Rademacher products vanish and at
    # most one site per time holds a collision
    stats = H.collision_statistics(k, 64, gaussian_bump(0.5, 1.0), 10_000, 404)
    assert np.all(stats["t_sum"] >= stats["pi_scaled"] - 1e-12)
    assert np.allclose(stats["t_sum"], stats["pi_scaled"], atol=1e-12)
    assert np.all(stats["exp_pi"] <= np.exp(stats["t_sum"]) * (1 + 1e-12))
    np.testing.assert_allclose(np.log(stats["exp_pi"]), stats["t_sum"], rtol=1e-12, atol=1e-15)
    assert np.any(stats["t_sum"] > 0)


def test_fair_coin_binomial_bound_at_scale():
    # the stated 1e6-replicate bound, checked on one vectorized draw from
    # the substream scheme
    vals = substream(606, 0).integers(0, 2, size=1_000_000) * 2 - 1
    assert abs(vals.mean()) < 4e-3


def test_duality_bridge_k2_N512():
    rep = H.duality_experiment(2, gaussian_bump(0.5, 1.0), [512], 4000, 4000, 515)
    verdict = [v for v in rep.verdicts if v.name == "exact-bridge-N512"][0]
    assert verdict.passed, verdict.detail

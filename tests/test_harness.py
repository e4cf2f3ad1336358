import math
import threading
import tracemalloc

import numpy as np
import pytest

from collisim import chaos as CH
from collisim import collisions as C
from collisim import harness as H
from collisim import kernels as K
from collisim import polymer as P
from collisim import ustat as U
from collisim.collisions import constant_fn, gaussian_bump
from collisim.environment import ContinuumAmplitude, EnvironmentField, disorder_from_function
from collisim.rngs import substream
from collisim.walks import WalkEnsemble, WalkPath, positions_from_steps, walk_positions
import oracles
from oracles import jitter


def test_summarize_constant():
    s = H.summarize(np.full(100, 3.0))
    assert s.mean == 3.0 and s.stderr == 0.0
    assert s.ci99 == (3.0, 3.0)


def test_summarize_rejects_nonfinite():
    with pytest.raises(H.NonFiniteSample):
        H.summarize([1.0, float("nan"), 2.0])


@pytest.mark.parametrize("values", [[1e308, 1e308], [0.0, 1e200]])
def test_summarize_rejects_overflowing_mean_or_stderr(values):
    # finite samples whose sum (first) or squared deviations (second) overflow
    with pytest.raises(H.NonFiniteSample):
        H.summarize(values)


def test_ks_identical_samples():
    xs = np.arange(100, dtype=float)
    stat = H.ks_two_sample(xs, xs)
    assert stat == 0.0
    assert oracles.ks_pvalue(stat, len(xs), len(xs)) == pytest.approx(1.0)


def test_ks_power_on_shifted_normals():
    rng = substream(3, 3)
    xs = rng.standard_normal(10_000)
    ys = rng.standard_normal(10_000) + 1.0
    stat = H.ks_two_sample(xs, ys)
    assert oracles.ks_pvalue(stat, len(xs), len(ys)) < 1e-6


def test_ks_null_behavior():
    rng = substream(4, 4)
    xs = rng.standard_normal(5000)
    ys = rng.standard_normal(5000)
    stat = H.ks_two_sample(xs, ys)
    assert oracles.ks_pvalue(stat, len(xs), len(ys)) > 0.01


def test_ks_statistic_matches_scipy():
    from scipy.stats import ks_2samp

    rng = substream(6, 6)
    for n, m in [(1, 1), (7, 3), (400, 250)]:
        xs = rng.standard_normal(n)
        ys = rng.standard_normal(m) + 0.3
        assert H.ks_two_sample(xs, ys) == pytest.approx(ks_2samp(xs, ys).statistic, abs=1e-14)


@pytest.mark.parametrize("stat, n, m", [(0.0, 10, 10), (0.05, 5000, 5000),
                                        (0.2, 300, 120), (0.5, 40, 60)])
def test_ks_pvalue_is_kolmogorov_tail(stat, n, m):
    from scipy.special import kolmogorov

    lam = math.sqrt(n * m / (n + m)) * stat
    assert oracles.ks_pvalue(stat, n, m) == float(kolmogorov(lam))
    if lam > 0.0:
        # Q(lam) = 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2)
        series = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
                           for k in range(1, 200))
        assert oracles.ks_pvalue(stat, n, m) == pytest.approx(series, abs=1e-12)


def test_jitter_preserves_integer_order():
    rng = substream(5, 5)
    vals = np.array([3.0, 1.0, 1.0, 7.0])
    out = jitter(vals, rng)
    assert np.all(np.floor(out) == vals)


def _polymer_amplitude(f, horizon):
    """A_N = N^(-1/4) sqrt(max(f, 0)), the amplitude of the duality's z_N."""
    amp = disorder_from_function(H.sqrt_amplitude(f), horizon)
    return P.scaled_disorder(amp, horizon ** (-0.25))


def _measure_oracle(k, horizon, f, n_replicas, seed, chunk):
    """collision_statistics rebuilt replica by replica from the same chunked
    step stream, through the per-ensemble measures and collision weights."""
    theta = _polymer_amplitude(f, horizon)
    ref = {key: np.empty(n_replicas) for key in
           ("pi_f", "pi_prime_f", "mass", "distinct_mass", "t_sum", "prod_x", "max_abs")}
    ranges = oracles.chunk_ranges(n_replicas, chunk)
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


def test_collision_statistics_match_measure_oracle(monkeypatch):
    horizon, n_replicas, chunk, seed = 32, 150, 64, 99
    monkeypatch.setattr(H, "_WALK_CHUNK", chunk)
    f = ContinuumAmplitude(lambda t, x: (0.3 + 0.4 * t) * np.exp(-x * x / 2.0), 0.7)
    for k in (2, 3, 4, 5):
        stats = H.collision_statistics(k, horizon, f, n_replicas, seed)
        ref = _measure_oracle(k, horizon, f, n_replicas, seed, chunk)
        for key in ("mass", "distinct_mass", "max_abs"):
            assert np.array_equal(stats[key], ref[key]), (k, key)
        # the pair count is ||Pi_N|| by definition, at every k
        assert np.array_equal(stats["pair_hits"], ref["mass"]), k
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


def test_collision_statistics_worker_invariance(monkeypatch):
    monkeypatch.setattr(H, "_WALK_CHUNK", 64)
    f = gaussian_bump(0.5, 1.0)
    for k in (3, 4):
        one = H.collision_statistics(k, 64, f, 300, 17, workers=1)
        two = H.collision_statistics(k, 64, f, 300, 17, workers=2)
        assert one.keys() == two.keys()
        for key in one:
            assert np.array_equal(one[key], two[key]), (k, key)


def test_sweep_chunks_streams_and_order():
    # 10 replicas in chunks of 4: sizes 4, 4 and a ragged 2
    total, chunk, seed, tag = 10, 4, 1234, 7
    first = [int(substream(seed, tag, idx).integers(2**62)) for idx in range(3)]
    want = [(4, first[0]), (4, first[1]), (2, first[2])]

    def body(rng, size):
        return size, int(rng.integers(2**62))

    assert H._sweep(body, total, chunk, seed, tag, 1) == want
    # with three threads chunk 0 waits until chunk 2 has finished, and the
    # results still come back in chunk order
    last_done = threading.Event()
    finished = []

    def racing(rng, size):
        out = body(rng, size)
        if out[1] == first[0]:
            assert last_done.wait(30)
        finished.append(out[1])
        if out[1] == first[2]:
            last_done.set()
        return out

    assert H._sweep(racing, total, chunk, seed, tag, 3) == want
    assert finished.index(first[2]) < finished.index(first[0])


def _record_blocks(monkeypatch):
    """Lead sizes of the walk_positions calls the harness makes, per stream."""
    sizes = {}

    def recording(rng, lead, horizon):
        sizes.setdefault(rng, []).append(lead[0])
        return walk_positions(rng, lead, horizon)

    monkeypatch.setattr(H, "walk_positions", recording)
    return sizes


def _split_in_blocks(sizes):
    # some chunk runs through at least 3 blocks of a multiple of 8 replicas
    # and ends on a ragged one
    block = max(max(s) for s in sizes.values())
    return block % 8 == 0 and any(
        len(s) >= 3 and s[-1] < block and set(s[:-1]) == {block} for s in sizes.values())


def test_local_time_counts_blocks_are_bit_identical(monkeypatch):
    # an odd horizon; the second chunk ends on a ragged block
    horizon, n_replicas = 1001, H._LOCAL_TIME_CHUNK + 700
    sizes = _record_blocks(monkeypatch)
    got = H.local_time_counts(horizon, n_replicas, 13)
    assert _split_in_blocks(sizes)
    want = oracles.local_time_counts_whole_chunk(horizon, n_replicas, 13)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# the statistics each experiment asks for
_EXPERIMENT_OUTPUTS = {
    "collisions": ("pi_f", "pi_prime_f", "mass", "pair_hits"),
    "convergence": ("pi_f", "pi_prime_f", "mass", "distinct_mass"),
    "tightness": ("mass", "max_abs"),
    "duality": ("pi_f", "t_sum", "prod_x"),
}


def _cells_per_time(positions):
    """Collision cells of each (replica, time) of (replicas, k, N) positions:
    the runs of two or more equal positions among the k sorted ones."""
    same = np.diff(np.sort(positions, axis=1), axis=1) == 0
    return same[:, 0] + (same[:, 1:] & ~same[:, :-1]).sum(axis=1)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_collision_statistics_blocks_are_bit_identical(monkeypatch, k):
    # a full 512-replica chunk, then a 300-replica one that ends on a ragged
    # block; each experiment's subset holds the same bits as the whole set
    horizon, n_replicas = 999, 812
    f = ContinuumAmplitude(lambda t, x: (0.3 + 0.4 * t) * np.exp(-x * x / 2.0), 0.7)
    first = walk_positions(substream(21, H._TAG_WALKS, 0), (512, k), horizon)
    # the first chunk has a cell of all k walks and, from k = 4, two cells at
    # one time
    assert (first == first[:, :1]).all(axis=1).any()
    assert (_cells_per_time(first) >= 2).any() == (k >= 4)
    sizes = _record_blocks(monkeypatch)
    every = oracles.collision_statistics_whole_chunk(k, horizon, f, n_replicas, 21)
    for outputs in (None, *_EXPERIMENT_OUTPUTS.values()):
        sizes.clear()
        kwargs = {} if outputs is None else {"outputs": outputs}
        got = H.collision_statistics(k, horizon, f, n_replicas, 21, workers=2, **kwargs)
        assert _split_in_blocks(sizes), outputs
        keys = every.keys() if outputs is None else (
            set(outputs) | ({"pi_scaled", "exp_pi"} if "pi_f" in outputs else set()))
        assert got.keys() == keys, outputs
        for key in keys:
            assert got[key].dtype == every[key].dtype, (outputs, key)
            assert got[key].tobytes() == every[key].tobytes(), (outputs, key)


def test_collision_statistics_without_a_meeting_are_zero(monkeypatch):
    # walk 0 only steps up and walk 1 only down, so no two walks ever meet
    horizon, n_replicas = 40, 70
    up = np.arange(1, horizon + 1, dtype=np.int16)

    def apart(rng, lead, horizon):
        return np.broadcast_to(np.stack([up, -up]), lead + (horizon,)).copy()

    monkeypatch.setattr(H, "walk_positions", apart)
    monkeypatch.setattr(oracles, "walk_positions", apart)
    f = gaussian_bump(0.5, 1.0)
    got = H.collision_statistics(2, horizon, f, n_replicas, 4)
    want = oracles.collision_statistics_whole_chunk(2, horizon, f, n_replicas, 4)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].tobytes() == want[key].tobytes(), key
    for key in ("pi_f", "pi_prime_f", "mass", "distinct_mass", "t_sum", "pair_hits"):
        assert not got[key].any(), key
    assert got["pair_hits"].dtype == np.int64
    assert np.array_equal(got["prod_x"], np.ones(n_replicas))
    assert np.array_equal(got["max_abs"], np.full(n_replicas, horizon / math.sqrt(horizon)))


def _recorded_substreams(monkeypatch):
    drawn = []

    def recording(*key):
        drawn.append(key)
        return substream(*key)

    monkeypatch.setattr(H, "substream", recording)
    return drawn


@pytest.mark.parametrize("call, argument", [
    (lambda: H.collision_statistics(3, 64, gaussian_bump(0.5, 1.0), 0, 5), "n_replicas"),
    (lambda: H.local_time_counts(64, 0, 5), "n_replicas"),
    (lambda: H.partition_sweep(gaussian_bump(0.5, 1.0), 16, 0, 5), "n_replicas"),
    (lambda: H.collision_statistics(3, 0, gaussian_bump(0.5, 1.0), 100, 5), "horizon"),
    (lambda: H.local_time_counts(0, 100, 5), "horizon"),
], ids=["collision_statistics-replicas", "local_time_counts-replicas",
        "partition_sweep-replicas", "collision_statistics-horizon", "local_time_counts-horizon"])
def test_empty_sweeps_are_rejected_before_sampling(monkeypatch, call, argument):
    drawn = _recorded_substreams(monkeypatch)
    with pytest.raises(ValueError, match=argument):
        call()
    assert drawn == []


def test_each_experiment_asks_for_its_statistics(monkeypatch):
    kernel = H.collision_statistics
    asked = []

    def recording(*args, **kwargs):
        asked.append(kwargs["outputs"])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(H, "collision_statistics", recording)
    f = gaussian_bump(0.5, 1.0)
    runs = {
        "collisions": lambda: H.collision_experiment(2, 16, 50, 1, f),
        "convergence": lambda: H.convergence_study(3, f, [4, 16], 50, 1),
        "tightness": lambda: H.tightness_probe(3, [4, 16], [1.0, 2.0], 50, 1),
        "duality": lambda: H.duality_experiment(3, f, [4, 16], 50, 0, 1),
    }
    for name, run in runs.items():
        asked.clear()
        run()
        assert asked and set(asked) == {_EXPERIMENT_OUTPUTS[name]}, name


def test_collision_statistics_rejects_an_unknown_statistic_before_sampling(monkeypatch):
    drawn = _recorded_substreams(monkeypatch)
    with pytest.raises(ValueError, match="pi_scaled"):
        H.collision_statistics(3, 64, gaussian_bump(0.5, 1.0), 100, 5,
                               outputs=("mass", "pi_scaled"))
    assert drawn == []
    H.collision_statistics(3, 64, gaussian_bump(0.5, 1.0), 100, 5, outputs=("mass",))
    assert drawn == [(5, H._TAG_WALKS, 0)]


def test_collision_statistics_mass_and_sup_never_evaluate_f():
    # the statistics tightness reads come from the cells and positions alone
    def unreachable(t, x):
        raise AssertionError("f evaluated")

    got = H.collision_statistics(3, 64, ContinuumAmplitude(unreachable, 1.0), 300, 9,
                                 outputs=("mass", "max_abs"))
    want = H.collision_statistics(3, 64, constant_fn(1.0), 300, 9)
    assert got.keys() == {"mass", "max_abs"}
    for key in got:
        assert got[key].tobytes() == want[key].tobytes(), key


def _traced_peak_mb(fn) -> float:
    """Peak of the memory traced while fn runs; tracemalloc sees NumPy's
    data buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_local_time_counts_memory_is_bounded():
    # 2048 walks of 16384 steps: whole-chunk positions and masks took 112 MB
    assert _traced_peak_mb(lambda: H.local_time_counts(16384, 2048, 3)) < 16.0


def test_collision_statistics_memory_is_bounded():
    # one 512-replica chunk of 3 walks at N=1024: the whole chunk took 16 MB
    f = gaussian_bump(0.5, 1.0)
    assert _traced_peak_mb(lambda: H.collision_statistics(3, 1024, f, 512, 3)) < 4.0


def test_importance_sampler_memory_is_bounded():
    # one full 2^18-draw chunk at order 4: whole-chunk proposals took 66 MB
    assert _traced_peak_mb(lambda: K.chain_norm_sq_mc(4, 2**18, substream(3, 4))) < 24.0


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


def test_product_sum_polymer_family():
    rep = H.duality_experiment(3, gaussian_bump(0.5, 1.0), [16, 64], 2000, 0, 12)
    sandwich = [v for v in rep.verdicts if v.name == "pathwise-sandwich"][0]
    assert sandwich.passed, sandwich.detail
    assert all(row["sandwich_holds"] for row in rep.tables["ladder"])


def test_duality_one_rung_has_sandwich_but_no_ratio_verdict():
    # one rung cannot show the ratio falling along the ladder
    rep = H.duality_experiment(3, gaussian_bump(0.5, 1.0), [32], 500, 0, 8)
    names = [v.name for v in rep.verdicts]
    assert "pathwise-sandwich" in names
    assert "ratio-concentrates" not in names
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]


def test_convergence_study_k2_pi_equals_prime():
    f = gaussian_bump(0.5, 1.0)
    rep = H.convergence_study(2, f, [16, 32], 500, 77)
    assert rep.tables["ks_pi_vs_prime"] == 0.0
    verdict = [v for v in rep.verdicts if v.name == "mass-gap-decays"][0]
    assert verdict.passed


def test_partition_experiment_small():
    rep = H.partition_experiment([16, 32, 64], 2, gaussian_bump(0.5, 1.0), 3000, 15)
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]


def test_partition_experiment_replicas_are_named_fields():
    # replica chunk + 4 is replica 4 of chunk 1 on each rung's stream
    # (seed + rung, _TAG_ENV, chunk); partition_dp recomputes it
    f = gaussian_bump(0.5, 1.0)
    ladder = [16, 128]
    chunk = H._ENV_CHUNK
    rep = H.partition_experiment(ladder, 2, f, chunk + 44, 15)
    for ni, horizon in enumerate(ladder):
        amp = _polymer_amplitude(f, horizon)
        seeds = substream(15 + ni, H._TAG_ENV, 1).integers(0, 2**63, size=44, dtype=np.int64)
        value = P.partition_dp(horizon, amp, EnvironmentField(int(seeds[4]))).value
        assert np.float64(value).tobytes() == rep.raw[f"z_N{horizon}"][chunk + 4].tobytes()


def test_partition_sweep_worker_invariance():
    # three chunks, so two workers share them out
    n = 2 * H._ENV_CHUNK + 10
    f = gaussian_bump(0.5, 1.0)
    one = H.partition_sweep(f, 16, n, 6, workers=1)
    two = H.partition_sweep(f, 16, n, 6, workers=2)
    assert len(one) == n
    assert one.tobytes() == two.tobytes()


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
    rep = H.kernels_check(2, [16, 64, 256])
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]
    assert [v.name for v in rep.verdicts] == ["norms-match", "clt-rate"]


def test_kernels_check_tables_hold_exact_values():
    ladder = [16, 64, 256]
    rep = H.kernels_check(3, ladder)
    fit = CH.extrapolated_chain_norms(3)
    for n, row in enumerate(rep.tables["norms"], start=1):
        assert row["closed_form"] == K.rho_chain_norm_sq(n)
        assert row["extrapolated"] == fit.value[n - 1]
        assert row["stated_error"] == fit.error[n - 1]
        assert row["rel_err"] <= 1e-3
    for row, horizon in zip(rep.tables["clt"], ladder):
        exact = K.local_clt_distance_sq(horizon)
        assert row == {"N": horizon, "distance": math.sqrt(exact.value), "d2": exact.value,
                       "band_tail_bound": exact.error}
    assert rep.config == {"max_order": 3, "clt_ladder": ladder}


def test_kernels_check_one_rung_has_no_rate_verdict():
    rep = H.kernels_check(1, [64])
    assert [v.name for v in rep.verdicts] == ["norms-match"]


def test_kernels_check_fails_a_closed_form_off_by_two_percent(monkeypatch):
    closed = K.rho_chain_norm_sq
    monkeypatch.setattr(K, "rho_chain_norm_sq", lambda n: 1.02 * closed(n))
    rep = H.kernels_check(2, [16, 64])
    assert {v.name for v in rep.verdicts if not v.passed} == {"norms-match"}


def test_kernels_check_fails_a_stated_error_above_tolerance():
    # n=10: the fit misses by 0.7% but can only state 7.5%, so the match is not shown
    rep = H.kernels_check(10, [16, 64])
    row = rep.tables["norms"][-1]
    assert row["rel_err"] <= H._NORM_TOL_REL < row["stated_error"] / row["closed_form"]
    assert {v.name for v in rep.verdicts if not v.passed} == {"norms-match"}


def test_kernels_check_fails_a_wrong_rate_ladder(monkeypatch):
    exact = K.local_clt_distance_sq
    # a distance that falls like N^(-1/2) instead of N^(-1/4)
    monkeypatch.setattr(K, "local_clt_distance_sq", lambda horizon: K.Stated(
        exact(horizon).value / math.sqrt(horizon), 0.0))
    rep = H.kernels_check(2, [16, 64, 256])
    assert "clt-rate" in {v.name for v in rep.verdicts if not v.passed}


def test_ustat_check_small():
    rep = H.ustat_check(4, 1500, 4)
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]


def test_ustat_check_fails_an_exact_moment_two_percent_high(monkeypatch):
    # 200k fields put the order-1 stderr near 0.3% of E[S_1^2]
    rep = H.ustat_check(4, 200_000, 5)
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]
    assert "variance-bound" not in {v.name for v in rep.verdicts}
    assert len(rep.tables["exact_second_moments"]) == 2
    exact = U.exact_second_moment
    monkeypatch.setattr(U, "exact_second_moment", lambda table: 1.02 * exact(table))
    rep = H.ustat_check(4, 200_000, 5)
    assert {v.name for v in rep.verdicts if not v.passed} == {"second-moment"}


def test_ustat_check_builds_one_table_and_sweeps_once(monkeypatch):
    calls = {"build_cell_table": 0, "evaluate_table": 0}

    def counted(name):
        fn = getattr(U, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(U, name, counted(name))
    H.ustat_check(16, 1000, 1)
    assert calls == {"build_cell_table": 1, "evaluate_table": 1}


def test_ustat_check_columns_are_the_row_summaries():
    # one summarize per order gives the axis-1 forms over the sampled rows, bit for bit
    rep = H.ustat_check(16, 1000, 3)
    values = np.stack([rep.raw["order1_values"], rep.raw["order2_values"]])
    root = math.sqrt(1000)
    squares = values**2
    assert rep.tables["means"] == values.mean(axis=1).tolist()
    assert rep.tables["mean_stderrs"] == (values.std(axis=1, ddof=1) / root).tolist()
    assert rep.tables["second_moments"] == squares.mean(axis=1).tolist()
    assert rep.tables["second_moment_stderrs"] == (squares.std(axis=1, ddof=1) / root).tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ustat_check_rejects_a_non_finite_statistic(monkeypatch, bad):
    evaluate = U.evaluate_table

    def poisoned(table, seeds):
        values = evaluate(table, seeds)
        values[1, 7] = bad
        return values

    monkeypatch.setattr(U, "evaluate_table", poisoned)
    with pytest.raises(H.NonFiniteSample):
        H.ustat_check(16, 1000, 1)


def test_chaos_experiment_small():
    grid = CH.WhiteNoiseGrid(32, math.sqrt(1 / 16) * 0.999 / 2, 6.0)
    rep = H.chaos_experiment(math.sqrt(2) * 0.5, grid, 5, 300, 41)
    assert rep.passed, [v.detail for v in rep.verdicts if not v.passed]


def test_chaos_experiment_rejects_a_grid_cut_below_six(monkeypatch):
    # at cutoff 2 the exact second moment is about 4.6e-5 above the sampled
    # grid's, so the experiment refuses the grid before it draws a sample
    def no_sample(*args, **kwargs):
        raise AssertionError("sampled a grid it should refuse")

    monkeypatch.setattr(CH, "estimate_Z_moments", no_sample)
    with pytest.raises(CH.GridError, match="cutoff") as err:
        H.chaos_experiment(math.sqrt(2) * 0.5, CH.WhiteNoiseGrid(64, 0.0875, 2.0), 6, 40, 5)
    assert err.value.fields == ("cutoff",)


def test_chaos_grid_second_moment_is_the_exact_scheme_value():
    gamma, dx = math.sqrt(2) * 0.5, math.sqrt(1 / 8) * 0.999 / 2
    sampled = CH.WhiteNoiseGrid(16, dx, 6.0)
    rep = H.chaos_experiment(gamma, sampled, 4, 40, 5)
    # the given grid is sampled and named in the report
    assert (rep.config["time_cells"], rep.config["dx"]) == (16, dx)
    exact = 1.0 + float(CH.scheme_order_variances(sampled, gamma, 4).sum())
    assert rep.tables["grid_second_moment"] == exact
    # replica r keyed (seed, n + r)
    amp = ContinuumAmplitude(lambda t, x: np.full(np.broadcast(t, x).shape, gamma), gamma)
    terms = CH.simulate_Z_batch(amp, sampled, 4, 5, 40, replica_offset=40)
    assert rep.raw["z_values"].tobytes() == terms.sum(axis=1).tobytes()
    assert "coarse_moments" not in rep.tables and "refinement_drift" not in rep.tables
    detail = [v.detail for v in rep.verdicts if v.name == "second-moment"][0]
    assert f"grid value {exact:.4f}" in detail


def test_chaos_second_moment_verdict_reads_the_grid_value(monkeypatch):
    gamma, grid = math.sqrt(2) * 0.5, CH.WhiteNoiseGrid(16, math.sqrt(1 / 8) * 0.999 / 2, 6.0)
    rep = H.chaos_experiment(gamma, grid, 4, 40, 5)
    assert rep.tables["series_bias"] == rep.tables["series_target"] - rep.tables["grid_second_moment"]
    assert rep.tables["series_bias"] > 0.0
    # a wrong series moves only the reported bias, not the verdict
    monkeypatch.setattr(CH, "second_moment_series", lambda g: 100.0)
    moved = H.chaos_experiment(gamma, grid, 4, 40, 5)
    assert [v.passed for v in moved.verdicts] == [v.passed for v in rep.verdicts] == [True, True]
    assert moved.tables["series_bias"] == 100.0 - rep.tables["grid_second_moment"]
    # a wrong grid value fails it
    monkeypatch.setattr(CH, "scheme_order_variances", lambda *a: np.array([10.0]))
    wrong = H.chaos_experiment(gamma, grid, 4, 40, 5)
    assert {v.name for v in wrong.verdicts if not v.passed} == {"second-moment"}


def test_chaos_moments_match_the_column_means():
    # summarize on each column of the antithetic powers against the old
    # axis-0 forms: the sums run in another order, so the last digit may move
    gamma, grid, order, n, seed = math.sqrt(2) * 0.5, CH.WhiteNoiseGrid(16, 0.0875), 4, 300, 9
    rep = H.chaos_experiment(gamma, grid, order, n, seed)
    powers, _ = CH.estimate_Z_moments(constant_fn(gamma), grid, order, 2, n, seed)
    np.testing.assert_allclose(rep.tables["moments"], powers.mean(axis=0), rtol=1e-15, atol=0)
    np.testing.assert_allclose(rep.tables["stderrs"],
                               powers.std(axis=0, ddof=1) / math.sqrt(n), rtol=1e-15, atol=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_chaos_experiment_rejects_a_non_finite_power(monkeypatch, bad):
    simulate = CH.simulate_Z_batch

    def poisoned(*args, **kwargs):
        terms = simulate(*args, **kwargs)
        terms[3, 2] = bad
        return terms

    monkeypatch.setattr(CH, "simulate_Z_batch", poisoned)
    with pytest.raises(H.NonFiniteSample):
        H.chaos_experiment(math.sqrt(2) * 0.5, CH.WhiteNoiseGrid(16, 0.0875), 4, 40, 5)


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

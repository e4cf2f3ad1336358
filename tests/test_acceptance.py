"""Acceptance suite: one test per criterion, at the stated scale and
tolerance, with a printed pass/fail line each.

Run `pytest -v tests/test_acceptance.py` (add -s to stream the lines live).
The full module takes about a minute on two cores (50-60 s, of which
criterion 10 is 17-26 s, criterion 11 is 7-12 s, criterion 2 is 3-6 s and
criterion 13 is 3-5 s).
"""

import math
import time

import numpy as np

from collisim import harness as H
from collisim import kernels as K
from collisim import polymer as P
from collisim.collisions import gaussian_bump
from collisim.environment import DisorderFunction, EnvironmentField, disorder_from_function
from collisim.rngs import substream
import oracles

BUMP = gaussian_bump(0.5, 1.0)


def _line(name, passed, detail, elapsed, limit):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert passed, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: runtime {elapsed:.1f}s over {limit}s"


def _rand_amplitude(rng):
    a = float(rng.uniform(0.2, 0.8))
    b = float(rng.uniform(0.5, 2.0))
    return DisorderFunction(
        lambda n, z: a * np.cos(b * np.asarray(n, dtype=float)
                                + 0.5 * np.asarray(z, dtype=float)), a)


def test_criterion_01_partition_dp_oracle():
    started = time.perf_counter()
    rng = substream(1001, 0)
    worst = 0.0
    for _ in range(100):
        horizon = int(rng.integers(1, 11))
        field = EnvironmentField(int(rng.integers(0, 2**62)))
        amp = _rand_amplitude(rng)
        dp = P.partition_dp(horizon, amp, field).value
        pos, prob = oracles.enumerate_paths(horizon)
        weights = np.full(len(pos), prob)
        for n in range(1, horizon + 1):
            sites = pos[:, n]
            signs = field.omega_at(np.full_like(sites, n), sites)
            weights *= 1.0 + np.asarray(amp(n, sites), dtype=float) * signs
        worst = max(worst, abs(weights.sum() - dp))
    elapsed = time.perf_counter() - started
    _line("criterion-1 exact DP oracle", worst <= 1e-12,
          f"max |enumeration - DP| = {worst:.2e} <= 1e-12 over 100 seeds", elapsed, 1.0)


def test_criterion_02_chaos_decomposition_identity():
    started = time.perf_counter()
    rng = substream(1002, 0)
    worst = 0.0
    for trial in range(20):
        horizon = int(rng.integers(1, 9))
        field = EnvironmentField(int(rng.integers(0, 2**62)))
        amp = _rand_amplitude(rng)
        unit_terms = oracles.chaos_terms_enumerated(horizon, 1.0, amp, field)
        for beta in (0.3, 1.0):
            series = sum(beta**n * unit_terms[n] for n in range(horizon + 1))
            dp = P.partition_dp(horizon, P.scaled_disorder(amp, beta), field).value
            worst = max(worst, abs(series - dp) / abs(dp))
    elapsed = time.perf_counter() - started
    _line("criterion-2 chaos decomposition identity", worst <= 1e-10,
          f"max relative gap {worst:.2e} <= 1e-10 over 20 seeds x 2 betas",
          elapsed, 30.0)


def test_criterion_03_closed_form_norms():
    started = time.perf_counter()
    details = []
    ok = True
    for n in (1, 2, 3, 4):
        est = K.chain_norm_sq_mc(n, 1_000_000, substream(1003, n))
        closed = K.rho_chain_norm_sq(n)
        rel = abs(est.value - closed) / closed
        ok &= rel <= 0.01
        details.append(f"n={n}: {rel:.4%}")
    elapsed = time.perf_counter() - started
    _line("criterion-3 closed-form chain norms", ok,
          "IS vs closed form, 1e6 samples: " + ", ".join(details), elapsed, 60.0)


def test_criterion_04_local_clt_ladder():
    started = time.perf_counter()
    rng = substream(1004, 0)
    prev = None
    ok = True
    dists = []
    for horizon in (16, 64, 256, 1024, 4096):
        est = K.local_clt_l2_error(1, horizon, 120_000, rng)
        dist = math.sqrt(max(est.value, 0.0))
        se = est.stderr / (2.0 * dist)
        dists.append(f"{dist:.4f}")
        if prev is not None:
            ok &= (prev[0] - dist) > 2.0 * math.hypot(prev[1], se)
        prev = (dist, se)
    elapsed = time.perf_counter() - started
    _line("criterion-4 local CLT ladder", ok,
          "L2 distances strictly decrease beyond 2 stderr: " + " > ".join(dists),
          elapsed, 120.0)


def test_criterion_05_return_time_pmf():
    started = time.perf_counter()
    pmf = oracles.return_time_pmf(10)
    n_walks = 1_000_000
    times = oracles.first_return_times(n_walks, 20, substream(1005, 0))
    ok = True
    worst = 0.0
    for k in range(1, 11):
        freq = np.count_nonzero(times == 2 * k) / n_walks
        band = 2.576 * math.sqrt(pmf[k - 1] * (1 - pmf[k - 1]) / n_walks)
        worst = max(worst, abs(freq - pmf[k - 1]) / band)
        ok &= abs(freq - pmf[k - 1]) < band
    elapsed = time.perf_counter() - started
    _line("criterion-5 return-time pmf", ok,
          f"1e6 walks inside 99% bands for k <= 10 (worst z/band {worst:.2f})",
          elapsed, 60.0)


def test_criterion_06_local_time_law():
    started = time.perf_counter()
    horizon = 512
    stats = H.collision_statistics(2, horizon, BUMP, 10_000, 1006)
    mass = stats["mass"]
    local = H.local_time_counts(2 * horizon, 10_000, 1007)
    rng = substream(1008, 0)
    stat = H.ks_two_sample(oracles.jitter(mass, rng), oracles.jitter(local, rng))
    pvalue = oracles.ks_pvalue(stat, len(mass), len(local))
    elapsed = time.perf_counter() - started
    _line("criterion-6 k=2 local-time law", pvalue > 0.01,
          f"KS D={stat:.4f}, p={pvalue:.3f} > 0.01", elapsed, 120.0)


def test_criterion_07_exact_moment_bridge():
    started = time.perf_counter()
    ok = True
    details = []
    for horizon in (64, 256):
        amp = disorder_from_function(H.sqrt_amplitude(BUMP), horizon)
        z_vals = P.partition_samples(horizon, P.scaled_disorder(amp, horizon**-0.25),
                                     10_000, substream(1010, horizon))
        for k in (2, 3):
            stats = H.collision_statistics(k, horizon, BUMP, 10_000, 1011 + horizon + k)
            walk_sum = H.summarize(stats["prod_x"])
            env_sum = H.summarize(z_vals**k)
            ok &= walk_sum.overlaps(env_sum)
            details.append(
                f"(k={k},N={horizon}): {walk_sum.mean:.3f}|{env_sum.mean:.3f}")
    elapsed = time.perf_counter() - started
    _line("criterion-7 exact moment bridge", ok,
          "99% CI overlap of E[prod(1+X)] vs E[z^k] at " + ", ".join(details),
          elapsed, 600.0)


def test_criterion_08_asymptotic_duality():
    started = time.perf_counter()
    rep = H.duality_experiment(3, BUMP, [64, 256, 1024, 4096], 10_000, 0, 1012)
    gaps = [row["gap_ab"] for row in rep.tables["ladder"]]
    verdict = [v for v in rep.verdicts if v.name == "asymptotic-gap-shrinks"][0]
    elapsed = time.perf_counter() - started
    _line("criterion-8 asymptotic duality", verdict.passed,
          f"|E e^(Pi/sqrt N) - E prod(1+X)| gaps {['%.4f' % g for g in gaps]}, "
          f"end-to-end factor {gaps[0] / gaps[-1]:.1f} >= 2", elapsed, 900.0)


def test_criterion_09_chaos_second_moment():
    started = time.perf_counter()
    gamma = math.sqrt(2.0) * 0.5
    rep = H.chaos_experiment(gamma, 64, math.sqrt(1 / 32) * 0.999 / 2, 6.0, 6, 1000, 1013)
    verdict = [v for v in rep.verdicts if v.name == "second-moment"][0]
    elapsed = time.perf_counter() - started
    _line("criterion-9 chaos second moment", verdict.passed, verdict.detail,
          elapsed, 600.0)


def test_criterion_10_moment_plateau():
    started = time.perf_counter()
    ladder = [2**e for e in range(6, 15)]
    rep = H.partition_experiment(ladder, 2, BUMP, 10_000, 1014,
                                 env_budget=1_500_000)
    verdict = [v for v in rep.verdicts if v.name == "moment-plateau"][0]
    positive = [v for v in rep.verdicts if v.name == "positivity"][0]
    elapsed = time.perf_counter() - started
    _line("criterion-10 moment plateau", verdict.passed and positive.passed,
          verdict.detail, elapsed, 600.0)


def test_criterion_11_exponential_moment_plateau():
    started = time.perf_counter()
    ladder = [2**e for e in range(6, 15)]
    rep = H.exponential_moment_probe(1.0, ladder, 100_000, 1015)
    verdict = [v for v in rep.verdicts if v.name == "plateau"][0]
    elapsed = time.perf_counter() - started
    _line("criterion-11 exponential-moment plateau", rep.passed, verdict.detail,
          elapsed, 300.0)


def test_criterion_12_measure_merging():
    started = time.perf_counter()
    rep = H.convergence_study(3, BUMP, [64, 256, 1024], 10_000, 1016)
    gap = [v for v in rep.verdicts if v.name == "mass-gap-decays"][0]
    merge = [v for v in rep.verdicts if v.name == "measures-merge"][0]
    elapsed = time.perf_counter() - started
    _line("criterion-12 measure merging", gap.passed and merge.passed,
          f"{gap.detail}; {merge.detail}", elapsed, 600.0)


def test_criterion_13_product_sum_sandwich():
    started = time.perf_counter()
    rep = H.duality_experiment(3, BUMP, [64, 256, 1024], 100_000, 0, 1017)
    sandwich = [v for v in rep.verdicts if v.name == "pathwise-sandwich"][0]
    ratio = [v for v in rep.verdicts if v.name == "ratio-concentrates"][0]
    elapsed = time.perf_counter() - started
    _line("criterion-13 product-sum sandwich", sandwich.passed and ratio.passed,
          f"{sandwich.detail}; {ratio.detail}", elapsed, 300.0)

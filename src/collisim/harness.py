"""Monte-Carlo estimators, distribution tests, and the end-to-end
verification experiments.

Every experiment is a pure function of (config, master seed): replicate r of
purpose tag p draws from a stream derived from (seed, p, chunk), so reruns
and worker counts cannot change results. Verdicts are computed from the
statistics stored in the report tables; thresholds live in the config.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import kolmogorov

from .collisions import TestFunction, constant_fn, gaussian_bump
from .environment import (ContinuumAmplitude, DisorderFunction, EnvironmentField,
                          disorder_from_function)
from .polymer import band_tail_bound, partition_samples, scaled_disorder
from .rngs import substream
from .walks import walk_positions
# No experiment calls sample_ensemble, positions_from_steps, detect_collisions,
# integrate or collision_weights: they are imported only because
# perfbench/tracer.py wraps these names here and Tracer.install fails if one is
# missing. For the same reason collisim.polymer keeps integrate and
# collisim.walks keeps substream.
from .collisions import detect_collisions, integrate  # noqa: F401
from .polymer import collision_weights  # noqa: F401
from .walks import positions_from_steps, sample_ensemble  # noqa: F401

# purpose tags for seed derivation (keep stable across versions)
_TAG_WALKS = 1
_TAG_ENV = 2
_TAG_MC = 5

_ENV_CHUNK = 256  # environments per partition_sweep chunk: a few MB of transfer state


class NonFiniteSample(RuntimeError):
    """A replicate produced NaN or infinity."""


@dataclass(frozen=True)
class MonteCarloSummary:
    n: int
    mean: float
    stderr: float
    ci99: tuple[float, float]

    def overlaps(self, other: "MonteCarloSummary") -> bool:
        return self.ci99[0] <= other.ci99[1] and other.ci99[0] <= self.ci99[1]


_Z99 = 2.576


def summarize(values) -> MonteCarloSummary:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteSample("non-finite replicate value")
    n = len(values)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MonteCarloSummary(n, mean, stderr, (mean - _Z99 * stderr, mean + _Z99 * stderr))


@dataclass(frozen=True)
class KSResult:
    statistic: float
    pvalue: float
    note: str = ""


def ks_two_sample(xs, ys) -> KSResult:
    """Classical two-sample KS statistic with the asymptotic p-value.

    Integer-valued inputs are flagged: ties make the asymptotic p-value
    conservative, and callers should rank-jitter first.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("samples must be nonempty")
    n, m = len(xs), len(ys)
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / n
    cdf_y = np.searchsorted(ys, grid, side="right") / m
    stat = float(np.abs(cdf_x - cdf_y).max())
    en = math.sqrt(n * m / (n + m))
    pvalue = float(kolmogorov(en * stat))
    note = ""
    if np.allclose(xs, np.round(xs)) and np.allclose(ys, np.round(ys)):
        note = "integer-valued samples: ties make the p-value conservative"
    return KSResult(stat, pvalue, note)


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    name: str
    config: dict
    tables: dict
    verdicts: list
    raw: dict = dc_field(default_factory=dict)  # per-replicate arrays, CSV-exported on demand

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "experiment": self.name,
            "config": self.config,
            "tables": self.tables,
            "verdicts": [
                {"name": v.name, "passed": bool(v.passed), "detail": v.detail}
                for v in self.verdicts
            ],
            "passed": bool(self.passed),
        }

    def lines(self) -> list[str]:
        out = [f"== {self.name} =="]
        for v in self.verdicts:
            out.append(f"[{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.detail}")
        return out


# ---------------------------------------------------------------------------
# batched walk-side collision statistics


def _chunk_ranges(total: int, chunk: int):
    return [(idx, start, min(chunk, total - start))
            for idx, start in enumerate(range(0, total, chunk))]


def _map_chunks(fn, ranges, workers: int):
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, ranges))
    return [fn(r) for r in ranges]


def collision_statistics(k: int, horizon: int, f: TestFunction, n_replicas: int,
                         master_seed: int, workers: int = 1, chunk: int = 512) -> dict:
    """Per-replicate collision functionals for k walks of the given horizon.

    Returns arrays: pi_f, pi_prime_f, mass, distinct_mass, t_sum, prod_x,
    pi_scaled = pi_f/sqrt(N), exp_pi = exp(pi_scaled), max_abs (sup |S|/sqrt(N)),
    pair_hits (||Pi_N|| by definition, the (n, i<j) with S^i_n = S^j_n = mass).
    Each collision cell (occupancy m >= 2) is visited once: it carries
    weight binom(m, 2) in Pi_N, weight 1 in Pi'_N, and the site factor
    1 + sum_{j>=1} binom(m, 2j) theta^(2j) of 1 + X_n, with
    theta^2 = max(f, 0)/sqrt(N). Distinct cells at one time multiply.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    # keep the per-chunk (replicas x horizon) work arrays around 32 MB
    chunk = max(32, min(chunk, (1 << 22) // max(horizon, 1)))
    sqrt_n = math.sqrt(horizon)
    times = np.arange(1, horizon + 1, dtype=float) / horizon
    # even_binom[m, j-1] = binom(m, 2j), the coefficient of theta^(2j)
    even_binom = np.array([[math.comb(m, 2 * j) for j in range(1, k // 2 + 1)]
                           for m in range(k + 1)], dtype=float)

    def run(chunk_spec):
        idx, start, size = chunk_spec
        rng = substream(master_seed, _TAG_WALKS, idx)
        # walk-major: pos[i, s] is walk i at slot s = replica * horizon + (time - 1)
        walks = np.ascontiguousarray(walk_positions(rng, (size, k), horizon).transpose(1, 0, 2))
        pos = walks.reshape(k, size * horizon)
        # a cell is visited through its lowest-indexed (lead) walk; below[i]
        # marks the slots where a lower walk shares walk i's position
        below = np.zeros((k - 1, size * horizon), dtype=bool)
        pair_hits = np.zeros(size, dtype=np.int64)
        slots, occ, sites = [], [], []
        for i in range(k - 1):
            above = pos[i + 1:] == pos[i]
            pair_hits += above.reshape(k - 1 - i, size, horizon).sum(axis=(0, 2))
            # walk i leads a collision cell: a higher walk is there, no lower one
            s = np.flatnonzero(above.any(axis=0) > below[i])
            below[i + 1:] |= above[:k - 2 - i]
            slots.append(s)
            occ.append(1 + above[:, s].sum(axis=0))
            sites.append(pos[i, s])
        seg = np.cumsum([0] + [len(s) for s in slots])
        slot, occ = np.concatenate(slots), np.concatenate(occ)
        ridx, nidx = np.divmod(slot, horizon)
        fv = np.asarray(f(times[nidx], np.concatenate(sites) / sqrt_n), dtype=float)
        pair = even_binom[occ, 0]
        theta2 = np.maximum(fv, 0.0) / sqrt_n
        x_cell = np.zeros_like(theta2)
        for j in range(k // 2, 0, -1):  # Horner in theta^2
            x_cell = (x_cell + even_binom[occ, j - 1]) * theta2
        x_mat = np.zeros(size * horizon)
        for lo, hi in zip(seg[:-1], seg[1:]):
            # one lead walk's cells hold distinct slots; the update is
            # (1+x)(1+xc) - 1 without rounding through 1 + x
            s, xc = slot[lo:hi], x_cell[lo:hi]
            x = x_mat[s]
            x_mat[s] = x + xc + x * xc
        x_mat = x_mat.reshape(size, horizon)
        return {
            "pi_f": np.bincount(ridx, pair * fv, minlength=size),
            "mass": np.bincount(ridx, pair, minlength=size),
            "t_sum": x_mat.sum(axis=1),
            "prod_x": np.prod(1.0 + x_mat, axis=1),
            "pi_prime_f": np.bincount(ridx, fv, minlength=size),
            "max_abs": np.maximum(walks.max(axis=(0, 2)), -walks.min(axis=(0, 2))) / sqrt_n,
            "distinct_mass": np.bincount(ridx, minlength=size).astype(float),
            "pair_hits": pair_hits,
        }

    parts = _map_chunks(run, _chunk_ranges(n_replicas, chunk), workers)
    merged = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    merged["pi_scaled"] = merged["pi_f"] / sqrt_n
    merged["exp_pi"] = np.exp(merged["pi_scaled"])
    return merged


def partition_sweep(f: TestFunction, horizon: int, n_replicas: int, master_seed: int,
                    workers: int = 1) -> np.ndarray:
    """z_N at A_N(n, z) = N^(-1/4) sqrt(max(f(n/N, z/sqrt N), 0)) over n_replicas
    hashed fields. Chunk idx draws its field seeds from the stream
    (master_seed, _TAG_ENV, idx), so the values do not depend on the workers."""
    amplitude = disorder_from_function(sqrt_amplitude(f), horizon)
    amplitude = scaled_disorder(amplitude, horizon ** (-0.25))

    def run(chunk_spec):
        idx, start, size = chunk_spec
        return partition_samples(horizon, amplitude, size, substream(master_seed, _TAG_ENV, idx))

    return np.concatenate(_map_chunks(run, _chunk_ranges(n_replicas, _ENV_CHUNK), workers))


def local_time_counts(horizon: int, n_replicas: int, master_seed: int,
                      workers: int = 1, chunk: int = 2048) -> np.ndarray:
    """Zero counts of single walks up to the horizon (integer-valued samples)."""

    def run(chunk_spec):
        idx, start, size = chunk_spec
        walks = walk_positions(substream(master_seed, _TAG_WALKS, idx), (size,), horizon)
        return (walks == 0).sum(axis=1).astype(float)

    parts = _map_chunks(run, _chunk_ranges(n_replicas, chunk), workers)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# experiments


def duality_experiment(k: int, f: TestFunction, n_ladder, n_walk_replicas: int,
                       n_env_replicas: int, master_seed: int, workers: int = 1,
                       chaos_target: MonteCarloSummary | None = None,
                       gap_factor: float = 2.0) -> ExperimentReport:
    """Three estimates per ladder horizon: (a) E[exp(Pi_N(f)/sqrt N)] and
    (b) E[prod(1+X)] over walks, (c) E[z_N^k] over environments; the (b)=(c)
    bridge is an exact identity, the (a)-(b) gap shrinks along the ladder."""
    n_ladder = list(n_ladder)
    rows = []
    raw = {}
    verdicts = []
    for ni, horizon in enumerate(n_ladder):
        stats = collision_statistics(k, horizon, f, n_walk_replicas,
                                     master_seed + ni, workers)
        a_sum = summarize(stats["exp_pi"])
        b_sum = summarize(stats["prod_x"])
        row = {
            "N": horizon,
            "exp_pi": _sum_dict(a_sum),
            "prod_x": _sum_dict(b_sum),
            "gap_ab": abs(a_sum.mean - b_sum.mean),
        }
        raw[f"exp_pi_N{horizon}"] = stats["exp_pi"]
        raw[f"prod_x_N{horizon}"] = stats["prod_x"]
        if n_env_replicas > 0:
            z_vals = partition_sweep(f, horizon, n_env_replicas, master_seed + ni, workers)
            c_sum = summarize(z_vals**k)
            row["z_to_k"] = _sum_dict(c_sum)
            row["band_tail_bound"] = band_tail_bound(horizon)
            raw[f"z_to_k_N{horizon}"] = z_vals**k
            verdicts.append(Verdict(
                f"exact-bridge-N{horizon}",
                b_sum.overlaps(c_sum),
                f"prod(1+X)={b_sum.mean:.5f}±{b_sum.stderr:.5f} vs "
                f"E[z^{k}]={c_sum.mean:.5f}±{c_sum.stderr:.5f} (99% CIs overlap)",
            ))
        rows.append(row)
    gaps = [row["gap_ab"] for row in rows]
    if len(gaps) >= 2:
        shrink = gaps[0] / gaps[-1] if gaps[-1] > 0 else math.inf
        verdicts.append(Verdict(
            "asymptotic-gap-shrinks",
            shrink >= gap_factor,
            f"|a-b| gaps {['%.5f' % g for g in gaps]}: end-to-end factor {shrink:.2f} "
            f">= {gap_factor}",
        ))
    if chaos_target is not None:
        a_last = rows[-1]["exp_pi"]
        tol = 0.1 * abs(chaos_target.mean) + 3.0 * math.hypot(
            a_last["stderr"], chaos_target.stderr)
        err = abs(a_last["mean"] - chaos_target.mean)
        verdicts.append(Verdict(
            "chaos-target",
            err <= tol,
            f"E[exp(Pi/sqrt N)]={a_last['mean']:.5f} vs E[Z^k]={chaos_target.mean:.5f} "
            f"(err {err:.5f} <= tol {tol:.5f})",
        ))
    cfg = {"k": k, "n_ladder": n_ladder, "walk_replicas": n_walk_replicas,
           "env_replicas": n_env_replicas, "gap_factor": gap_factor}
    return ExperimentReport("duality", cfg, {"ladder": rows}, verdicts, raw)


def sqrt_amplitude(f: TestFunction, c: float = 1.0) -> ContinuumAmplitude:
    """a(t, x) = sqrt(c max(f(t, x), 0)): a negative f gives no disorder."""
    return ContinuumAmplitude(lambda t, x: np.sqrt(c * np.maximum(f(t, x), 0.0)),
                              math.sqrt(c * max(f.bound, 0.0)))


def _sum_dict(s: MonteCarloSummary) -> dict:
    return {"n": s.n, "mean": s.mean, "stderr": s.stderr,
            "ci99": [s.ci99[0], s.ci99[1]]}


def exponential_moment_probe(beta: float, n_ladder, n_replicas: int, master_seed: int,
                             workers: int = 1, plateau_sigma: float = 3.0) -> ExperimentReport:
    """E[exp(beta N^(-1/2) local time)] along the ladder; verdict: finite
    everywhere and the final two rungs agree within plateau_sigma stderr."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    n_ladder = list(n_ladder)
    rows = []
    raw = {}
    for ni, horizon in enumerate(n_ladder):
        counts = local_time_counts(horizon, n_replicas, master_seed + ni, workers)
        vals = np.exp(beta * counts / math.sqrt(horizon))
        raw[f"exp_moment_N{horizon}"] = vals
        rows.append({"N": horizon, **_sum_dict(summarize(vals))})
    verdicts = [Verdict("all-finite", all(math.isfinite(r["mean"]) for r in rows),
                        "every ladder estimate is finite")]
    if len(rows) >= 2:
        a, b = rows[-2], rows[-1]
        tol = plateau_sigma * math.hypot(a["stderr"], b["stderr"])
        verdicts.append(Verdict(
            "plateau",
            abs(a["mean"] - b["mean"]) <= tol,
            f"final rungs {a['mean']:.5f} vs {b['mean']:.5f}, "
            f"|diff|={abs(a['mean'] - b['mean']):.5f} <= {tol:.5f}",
        ))
    cfg = {"beta": beta, "n_ladder": n_ladder, "replicas": n_replicas}
    return ExperimentReport("expmoment", cfg, {"ladder": rows}, verdicts, raw)


def tightness_probe(k: int, n_ladder, m_ladder, n_replicas: int, master_seed: int,
                    workers: int = 1, tail_prob: float = 0.01) -> ExperimentReport:
    """Tail probabilities of the rescaled total mass and the rescaled sup of
    the walks, over an (N, m) grid."""
    n_ladder, m_ladder = list(n_ladder), list(m_ladder)
    f1 = constant_fn(1.0)  # only mass/max statistics are used below
    mass_rows, sup_rows = [], []
    mass_tail = np.zeros((len(n_ladder), len(m_ladder)))
    sup_tail = np.zeros_like(mass_tail)
    for ni, horizon in enumerate(n_ladder):
        stats = collision_statistics(k, horizon, f1, n_replicas, master_seed + ni, workers)
        scaled_mass = stats["mass"] / math.sqrt(horizon)
        for mi, m in enumerate(m_ladder):
            mass_tail[ni, mi] = float((scaled_mass > m).mean())
            sup_tail[ni, mi] = float((stats["max_abs"] > m).mean())
        mass_rows.append({"N": horizon, "tails": mass_tail[ni].tolist()})
        sup_rows.append({"N": horizon, "tails": sup_tail[ni].tolist()})
    sup_over_n_mass = mass_tail.max(axis=0)
    sup_over_n_sup = sup_tail.max(axis=0)
    verdicts = [
        Verdict("mass-tails-decrease",
                bool(np.all(np.diff(sup_over_n_mass) <= 0)),
                f"sup_N P(mass/sqrt N > m) over m={m_ladder}: {sup_over_n_mass.tolist()}"),
        Verdict("mass-tail-small",
                bool(sup_over_n_mass[-1] < tail_prob),
                f"largest m tail {sup_over_n_mass[-1]:.5f} < {tail_prob}"),
        Verdict("support-tails-decrease",
                bool(np.all(np.diff(sup_over_n_sup) <= 0)),
                f"sup_N P(max|S|/sqrt N > m): {sup_over_n_sup.tolist()}"),
        Verdict("support-tail-small",
                bool(sup_over_n_sup[-1] < tail_prob),
                f"largest m tail {sup_over_n_sup[-1]:.5f} < {tail_prob}"),
    ]
    cfg = {"k": k, "n_ladder": n_ladder, "m_ladder": m_ladder, "replicas": n_replicas}
    return ExperimentReport("tightness", cfg,
                            {"mass": mass_rows, "support": sup_rows}, verdicts)


def product_sum_property_check(n_ladder, n_replicas: int, master_seed: int,
                               k: int = 3, f: TestFunction | None = None,
                               workers: int = 1) -> ExperimentReport:
    """Pathwise sandwich exp(S - c_N S / 2) <= prod(1+X) <= exp(S) and
    concentration of the ratio prod(1+X)/exp(S) at 1 along the ladder, for
    the collision weights X of k walks at intermediate-disorder scale."""
    if f is None:
        f = gaussian_bump(0.5, 1.0)
    n_ladder = list(n_ladder)
    rows = []
    sandwich_ok = True
    q99s = []
    c = math.sqrt(max(f.bound, 0.0))
    for ni, horizon in enumerate(n_ladder):
        stats = collision_statistics(k, horizon, f, n_replicas, master_seed + ni, workers)
        s_vals = stats["t_sum"]
        p_vals = stats["prod_x"]
        c_n = (c + 1.0) ** k / math.sqrt(horizon)
        lower = np.exp(s_vals * (1.0 - 0.5 * c_n))
        upper = np.exp(s_vals)
        ok = bool(np.all(p_vals <= upper * (1 + 1e-12)) and
                  np.all(p_vals >= lower * (1 - 1e-12)))
        sandwich_ok = sandwich_ok and ok
        ratio_dev = np.abs(p_vals / np.exp(s_vals) - 1.0)
        q99 = float(np.quantile(ratio_dev, 0.99))
        q99s.append(q99)
        rows.append({"N": horizon, "sandwich_holds": ok, "ratio_dev_q99": q99,
                     "max_x_bound": c_n})
    verdicts = [
        Verdict("pathwise-sandwich", sandwich_ok,
                f"exp bounds hold in all {n_replicas} replicates at every N"),
        Verdict("ratio-concentrates", q99s[-1] < q99s[0] or q99s[-1] == 0.0,
                f"q99 |prod/exp(S) - 1| along ladder: {['%.2e' % q for q in q99s]}"),
    ]
    cfg = {"n_ladder": n_ladder, "replicas": n_replicas, "k": k}
    return ExperimentReport("product-sum", cfg, {"ladder": rows}, verdicts)


def convergence_study(k: int, f: TestFunction, n_ladder, n_replicas: int,
                      master_seed: int, workers: int = 1) -> ExperimentReport:
    """Distributional convergence probes for Pi_N(f)/sqrt N and the merging
    of the multiplicity and distinct-event measures."""
    n_ladder = list(n_ladder)
    samples, samples_prime, mean_diff = [], [], []
    rows = []
    raw = {}
    for ni, horizon in enumerate(n_ladder):
        stats = collision_statistics(k, horizon, f, n_replicas, master_seed + ni, workers)
        pi = stats["pi_scaled"]
        pip = stats["pi_prime_f"] / math.sqrt(horizon)
        samples.append(pi)
        samples_prime.append(pip)
        raw[f"pi_scaled_N{horizon}"] = pi
        raw[f"pi_prime_scaled_N{horizon}"] = pip
        diff = (stats["mass"] - stats["distinct_mass"]) / math.sqrt(horizon)
        mean_diff.append(summarize(diff))
        rows.append({"N": horizon, "pi_mean": float(pi.mean()),
                     "mass_gap": _sum_dict(mean_diff[-1])})
    consec = []
    for a, b in zip(samples[:-1], samples[1:]):
        consec.append(ks_two_sample(a, b).statistic)
    ks_pi_pip = ks_two_sample(samples[-1], samples_prime[-1]).statistic
    verdicts = []
    if len(consec) >= 2:
        verdicts.append(Verdict(
            "consecutive-ks-decreases",
            bool(np.all(np.diff(consec) <= 0)),
            f"KS between consecutive rungs: {['%.4f' % c for c in consec]}"))
    if consec:
        # the Pi/Pi' discrepancy and the rung-to-rung drift both decay like
        # sqrt-N with log corrections; the merge test compares against the
        # ladder's dominant drift
        verdicts.append(Verdict(
            "measures-merge",
            ks_pi_pip <= max(consec),
            f"KS(Pi, Pi') at N={n_ladder[-1]} is {ks_pi_pip:.4f} <= "
            f"ladder drift {max(consec):.4f}"))
    means = [s.mean for s in mean_diff]
    verdicts.append(Verdict(
        "mass-gap-decays",
        bool(np.all(np.diff(means) <= 0)) if k >= 3 else means[-1] == 0.0,
        f"mean |Pi - Pi'|/sqrt N along ladder: {['%.5f' % m for m in means]}"))
    cfg = {"k": k, "n_ladder": n_ladder, "replicas": n_replicas}
    tables = {"ladder": rows, "consecutive_ks": consec, "ks_pi_vs_prime": ks_pi_pip}
    return ExperimentReport("convergence", cfg, tables, verdicts, raw)


def partition_experiment(n_ladder, k: int, f: TestFunction, n_env_replicas: int,
                         master_seed: int, workers: int = 1, plateau_sigma: float = 3.0,
                         env_budget: int | None = None) -> ExperimentReport:
    """Mean-one, positivity, and k-th moment plateau of the partition
    function at intermediate-disorder scale with A_N = sqrt(f).

    env_budget, when set, caps replicas per rung at max(96, budget / N) so
    the sweeps stay affordable on tall ladders. Each row carries the bound
    on the environment-mean mass the transfer band drops at that N.
    """
    n_ladder = list(n_ladder)
    rows = []
    raw = {}
    all_positive = True
    mean_one = True
    for ni, horizon in enumerate(n_ladder):
        reps = n_env_replicas
        if env_budget is not None:
            reps = int(min(n_env_replicas, max(96, env_budget // horizon)))
        vals = partition_sweep(f, horizon, reps, master_seed + ni, workers)
        raw[f"z_N{horizon}"] = vals
        s_mean = summarize(vals)
        s_k = summarize(vals**k)
        all_positive = all_positive and bool(np.all(vals > 0.0))
        mean_one = mean_one and abs(s_mean.mean - 1.0) <= 4.0 * s_mean.stderr
        rows.append({"N": horizon, "replicas": reps, "mean": _sum_dict(s_mean),
                     "moment_k": _sum_dict(s_k), "band_tail_bound": band_tail_bound(horizon)})
    verdicts = [
        Verdict("mean-one", mean_one, "E[z_N] = 1 within 4 stderr at every rung"),
        Verdict("positivity", all_positive, "every sampled z_N > 0"),
    ]
    if len(rows) >= 2:
        a, b = rows[-2]["moment_k"], rows[-1]["moment_k"]
        tol = plateau_sigma * math.hypot(a["stderr"], b["stderr"])
        verdicts.append(Verdict(
            "moment-plateau",
            abs(a["mean"] - b["mean"]) <= tol,
            f"E[z^{k}] final rungs {a['mean']:.4f} vs {b['mean']:.4f} "
            f"(|diff| <= {tol:.4f})"))
    cfg = {"k": k, "n_ladder": n_ladder, "env_replicas": n_env_replicas}
    return ExperimentReport("partition", cfg, {"ladder": rows}, verdicts, raw)


def collision_experiment(k: int, horizon: int, n_replicas: int, master_seed: int,
                         f: TestFunction | None = None, workers: int = 1) -> ExperimentReport:
    """Collision-measure invariants on the batched occupancy kernel: the
    multiplicity bounds Pi' <= Pi <= binom(k,2) Pi' on every replicate and,
    for k = 2, the pathwise total-mass identity: ||Pi|| from the collision
    cells equals the count of times with S^1_n = S^2_n (pair_hits), the
    zero count of the difference walk."""
    if f is None:
        f = gaussian_bump(0.5, 1.0)
    stats = collision_statistics(k, horizon, f, n_replicas, master_seed, workers)
    pi, pip = stats["pi_f"], stats["pi_prime_f"]
    bounds_ok = bool(np.all(pip <= pi + 1e-12) and
                     np.all(pi <= math.comb(k, 2) * pip + 1e-12))
    verdicts = [Verdict("multiplicity-bounds", bounds_ok,
                        "Pi' <= Pi <= binom(k,2) Pi' on every replicate")]
    if k == 2:
        verdicts.append(Verdict(
            "mass-identity", bool(np.array_equal(stats["mass"], stats["pair_hits"])),
            "||Pi|| equals the difference-walk zero count pathwise"))
    cfg = {"k": k, "N": horizon, "replicas": n_replicas}
    tables = {"mass": _sum_dict(summarize(stats["mass"]))}
    return ExperimentReport("collisions", cfg, tables, verdicts, {"mass": stats["mass"]})


def chaos_experiment(gamma: float, time_cells: int, dx: float, cutoff: float,
                     order: int, n_replicas: int, master_seed: int,
                     moment_sigma: float = 3.0) -> ExperimentReport:
    """Simulated chaos value at constant amplitude against the closed-form
    second-moment series, after one grid refinement."""
    from .chaos import WhiteNoiseGrid, estimate_Z_moments, second_moment_series

    amp = ContinuumAmplitude(
        lambda t, x: np.full(np.broadcast(t, x).shape, float(gamma)), abs(gamma))
    grid = WhiteNoiseGrid(time_cells, dx, cutoff)
    rep = estimate_Z_moments(amp, grid, order, 2, n_replicas, master_seed)
    target = second_moment_series(gamma)
    m2, se2 = float(rep.moments[1]), float(rep.stderrs[1])
    m1, se1 = float(rep.moments[0]), float(rep.stderrs[0])
    verdicts = [
        Verdict("mean-one", abs(m1 - 1.0) <= 4.0 * se1,
                f"E[Z]={m1:.4f}±{se1:.4f} within 4 stderr of 1"),
        Verdict("second-moment",
                abs(m2 - target) <= moment_sigma * se2,
                f"E[Z^2]={m2:.4f}±{se2:.4f} vs series {target:.4f} "
                f"(drift diagnostic {rep.refinement_drift[1]:.4f})"),
    ]
    cfg = {"gamma": gamma, "time_cells": time_cells, "dx": dx, "cutoff": cutoff,
           "order": order, "replicas": n_replicas}
    tables = {
        "moments": rep.moments.tolist(),
        "stderrs": rep.stderrs.tolist(),
        "coarse_moments": rep.coarse_moments.tolist(),
        "refinement_drift": rep.refinement_drift.tolist(),
        "truncation_bound": rep.truncation_bound,
        "series_target": target,
    }
    raw = {"z_values": rep.refined_values}
    return ExperimentReport("chaos", cfg, tables, verdicts, raw)


def kernels_check(max_order: int, norm_samples: int, clt_ladder, clt_budget: int,
                  master_seed: int, norm_tol_rel: float = 0.01) -> ExperimentReport:
    """Closed-form chain norms against importance sampling, and the local
    CLT L2 distance ladder."""
    from .kernels import chain_norm_sq_mc, local_clt_l2_error, rho_chain_norm_sq

    rows = []
    norm_ok = True
    for n in range(1, max_order + 1):
        rng = substream(master_seed, _TAG_MC, n)
        est = chain_norm_sq_mc(n, norm_samples, rng)
        closed = rho_chain_norm_sq(n)
        rel = abs(est.value - closed) / closed
        norm_ok &= rel <= norm_tol_rel
        rows.append({"n": n, "closed_form": closed, "mc_estimate": est.value,
                     "stderr": est.stderr, "rel_err": rel})
    clt_ladder = list(clt_ladder)
    clt_rows = []
    prev = None
    ladder_ok = True
    for ni, horizon in enumerate(clt_ladder):
        rng = substream(master_seed, _TAG_MC, 100 + ni)
        est = local_clt_l2_error(1, horizon, clt_budget, rng)
        dist = math.sqrt(max(est.value, 0.0))
        dist_se = est.stderr / (2.0 * dist) if dist > 0 else 0.0
        clt_rows.append({"N": horizon, "distance": dist, "stderr": dist_se})
        if prev is not None:
            drop = prev[0] - dist
            ladder_ok &= drop > 2.0 * math.hypot(prev[1], dist_se)
        prev = (dist, dist_se)
    verdicts = [
        Verdict("norms-match", norm_ok,
                f"IS norm estimates within {norm_tol_rel:.0%} of closed form "
                f"for n <= {max_order}"),
        Verdict("clt-ladder-decreases", ladder_ok,
                "L2 distance strictly decreases beyond 2 combined stderr: "
                + ", ".join(f"N={r['N']}: {r['distance']:.4f}" for r in clt_rows)),
    ]
    cfg = {"max_order": max_order, "norm_samples": norm_samples,
           "clt_ladder": clt_ladder, "clt_budget": clt_budget}
    return ExperimentReport("kernels-check", cfg,
                            {"norms": rows, "clt": clt_rows}, verdicts)


def ustat_check(horizon: int, n_replicas: int, master_seed: int) -> ExperimentReport:
    """Zero mean, variance bound, and cross-order uncorrelatedness of the
    U-statistics at orders 1 and 2, for integrands supported on |x| <= 2."""
    from .ustat import Integrand, UStatSpec, ustat_moment_suite

    support_radius = 2.0

    def g1(ts, xs):
        return np.exp(-xs[:, 0] ** 2) * (np.abs(xs[:, 0]) <= support_radius)

    def g2(ts, xs):
        inside = (np.abs(xs) <= support_radius).all(axis=1)
        return np.exp(-(xs**2).sum(axis=1)) * inside

    amp = DisorderFunction(
        lambda n, z: 1.0 / (1.0 + 0.1 * np.abs(np.asarray(z, dtype=float))), 1.0)
    field = EnvironmentField(master_seed)
    specs = [
        UStatSpec(Integrand(g1, 1, support_radius, True), horizon, amp, field),
        UStatSpec(Integrand(g2, 2, support_radius, True), horizon, amp, field),
    ]
    suite = ustat_moment_suite(specs, n_replicas, master_seed)
    mean_ok = all(abs(m) <= 4.0 * se for m, se in zip(suite.means, suite.mean_stderrs))
    # L2 bound with c = sup A = 1 and ||g||_2^2 over the touched window
    bounds = []
    for spec in specs:
        n = spec.integrand.order
        norm = _window_l2_norm_sq(spec)
        bounds.append(float(horizon ** (1.5 * n) * norm))
    var_ok = all(v <= b * 1.05 for v, b in zip(suite.variances, bounds))
    cov, cov_se = suite.cross[(0, 1)]
    cross_ok = abs(cov) <= 4.0 * cov_se
    verdicts = [
        Verdict("zero-mean", mean_ok,
                f"means {suite.means.tolist()} within 4 stderr of 0"),
        Verdict("variance-bound", var_ok,
                f"variances {suite.variances.tolist()} <= bounds {bounds}"),
        Verdict("cross-order-uncorrelated", cross_ok,
                f"cov={cov:.4f}±{cov_se:.4f} within 4 stderr of 0"),
    ]
    cfg = {"N": horizon, "replicas": n_replicas}
    tables = {"means": suite.means.tolist(), "variances": suite.variances.tolist()}
    raw = {f"order{spec.integrand.order}_values": suite.values[i]
           for i, spec in enumerate(specs)}
    return ExperimentReport("ustat-check", cfg, tables, verdicts, raw)


def _window_l2_norm_sq(spec) -> float:
    """Numeric ||g||_2^2 over [0,1]^n x window^n (tensor Gauss grid)."""
    g = spec.integrand
    n = g.order
    r = g.support_radius
    u, w = np.polynomial.legendre.leggauss(24)
    t_nodes = 0.5 + 0.5 * u
    t_w = 0.5 * w
    x_nodes = r * u
    x_w = r * w
    grids = np.meshgrid(*([t_nodes] * n + [x_nodes] * n), indexing="ij")
    pts = np.stack([grid.reshape(-1) for grid in grids], axis=1)
    vals = np.asarray(g(pts[:, :n], pts[:, n:]), dtype=float) ** 2
    weight = np.ones(len(pts))
    wlists = [t_w] * n + [x_w] * n
    for ax, wl in enumerate(wlists):
        shape = [1] * (2 * n)
        shape[ax] = len(wl)
        weight = weight * np.broadcast_to(
            wl.reshape(shape), [len(t_nodes)] * n + [len(x_nodes)] * n).reshape(-1)
    return float((vals * weight).sum())

"""Monte-Carlo estimators, distribution tests, and the end-to-end
verification experiments.

Every experiment is a pure function of (config, master seed). The walk and
environment sweeps share one chunk rule (_sweep): chunk idx of a sweep of
horizon N at seed s draws from the stream substream(s, purpose, N, idx)
(see rngs), so reruns and worker counts cannot change results. Each
experiment calls its samplers itself, with the grids and functions it is
given. Verdicts are computed from the statistics stored in the report
tables, at the fixed tolerances below.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .chaos import CUTOFF, WhiteNoiseGrid
from .collisions import constant_fn
from .environment import ContinuumAmplitude, disorder_from_function
from .kernels import MonteCarloSummary, summarize
from .polymer import band_tail_bound, partition_samples, scaled_disorder
from .rngs import ENVIRONMENT, WALKS, substream
from .walks import walk_positions
# No experiment calls sample_ensemble, positions_from_steps, detect_collisions,
# integrate or collision_weights: they are imported only because
# perfbench/tracer.py wraps these names here and Tracer.install fails if one is
# missing. For the same reason collisim.polymer keeps integrate and
# collisim.walks keeps substream.
from .collisions import detect_collisions, integrate  # noqa: F401
from .polymer import collision_weights  # noqa: F401
from .walks import positions_from_steps, sample_ensemble  # noqa: F401

_ENV_CHUNK = 256  # environments per partition_sweep chunk: a few MB of transfer state
# Chunks fix the walk streams: chunk idx draws from (seed, WALKS, N, idx).
# Blocks bound memory: a chunk is drawn from its stream in blocks of about
# _BLOCK_STEPS walk-steps, and no block changes a bit (see _walk_sweep).
_LOCAL_TIME_CHUNK = 2048  # walks per local_time_counts chunk
_WALK_CHUNK = 512  # most replicas per collision_statistics chunk
_BLOCK_STEPS = 1 << 18  # walk-steps per block: at most about 3 MB of arrays


# verdict tolerances
_GAP_FACTOR = 2.0      # duality: the |a-b| gap shrinks at least this much end to end
_PLATEAU_SIGMA = 3.0   # expmoment, partition: final two rungs agree in combined stderr
_TAIL_PROB = 0.01      # tightness: the largest-m tail probability stays below this
_NORM_TOL_REL = 0.01   # kernels-check: extrapolated chain norms, relative error and stated error
_CLT_RATE_TOL = 0.05   # kernels-check: log-log slopes of the exact local-CLT distance near -1/4
_MOMENT_SIGMA = 3.0    # chaos: E[Z^2] against the sampled grid's exact value, in stderr
_MEAN_SIGMA = 4.0      # chaos, partition, ustat-check: a sampled mean against its exact value


def ks_two_sample(xs, ys) -> float:
    """Classical two-sample KS statistic: the largest gap between the two
    empirical distribution functions.

    Ties make the asymptotic Kolmogorov law of the statistic conservative,
    so callers should rank-jitter integer-valued samples first.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("samples must be nonempty")
    n, m = len(xs), len(ys)
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / n
    cdf_y = np.searchsorted(ys, grid, side="right") / m
    return float(np.abs(cdf_x - cdf_y).max())


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
        return [f"== {self.name} =="] + [
            f"[{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.detail}" for v in self.verdicts]


# ---------------------------------------------------------------------------
# batched walk-side collision statistics


def _sweep(body, total: int, chunk: int, key: tuple, workers: int) -> list:
    """body(rng, size) for each chunk of the total replicas, in chunk order:
    chunk idx holds min(chunk, total - idx chunk) replicas and draws from the
    stream substream(*key, idx), key being (master_seed, purpose, size). The
    chunks are shared over a pool of workers threads, and neither the pool
    nor the order in which chunks finish changes a result."""
    if total < 1:
        raise ValueError(f"n_replicas must be >= 1, got {total}")

    def run(idx):
        return body(substream(*key, idx), min(chunk, total - idx * chunk))

    chunks = range(-(-total // chunk))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, chunks))
    return [run(idx) for idx in chunks]


def _concat(parts: list) -> dict:
    """Each key's arrays of the parts, joined in order."""
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _walk_sweep(block_fn, shape: tuple, horizon: int, total: int, chunk: int,
                master_seed: int, workers: int) -> dict:
    """The per-replica arrays of block_fn(positions), a dict, concatenated over
    every block of a _sweep of walks (key (master_seed, WALKS, horizon)).
    Each chunk is drawn from its stream one block after another, each of
    shape (block, *shape, horizon), and joined before the next chunk starts,
    so no block's arrays outlive their chunk. A block is a multiple of 8
    replicas, so every block but a chunk's ragged last covers a multiple of 8
    steps and the blocks reproduce walk_positions(rng, (size, *shape),
    horizon) bit for bit."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    block = max(8, _BLOCK_STEPS // (math.prod(shape) * horizon) // 8 * 8)

    def run(rng, size):
        return _concat([block_fn(walk_positions(rng, (min(block, size - start),) + shape,
                                                horizon))
                        for start in range(0, size, block)])

    return _concat(_sweep(run, total, chunk, (master_seed, WALKS, horizon), workers))


STATISTICS = ("pi_f", "pi_prime_f", "mass", "distinct_mass", "t_sum", "prod_x", "max_abs",
              "pair_hits")


def collision_statistics(k: int, horizon: int, f: ContinuumAmplitude, n_replicas: int,
                         master_seed: int, workers: int = 1,
                         outputs=STATISTICS) -> dict:
    """Per-replicate collision functionals for k walks of the given horizon.

    outputs names the statistics to compute, any of STATISTICS; the arrays
    returned are those, plus pi_scaled = pi_f/sqrt(N) and
    exp_pi = exp(pi_scaled) when pi_f is named. Every block finds the
    collision cells (occupancy, lead-walk slot and site) in one cell pass;
    each further pass runs only for a statistic that needs it:
    - mass (||Pi_N||, the sum of binom(m, 2)) and distinct_mass (||Pi'_N||,
      the cell count): the cells only;
    - pi_f (Pi_N(f)) and pi_prime_f (Pi'_N(f)): f on the cells;
    - t_sum (sum_n X_n) and prod_x (prod_n (1 + X_n)): f on the cells and
      a dense float (replica, time) scatter;
    - max_abs (sup |S|/sqrt(N)): two reductions over the block, read as
      (replica, k N);
    - pair_hits (the (n, i<j) with S^i_n = S^j_n, ||Pi_N|| by definition):
      a bool sum over every walk pair's matches.
    The cell pass compares each walk pair on the (replica, time) views of
    the (replica, k, N) block and ORs the k(k-1)/2 matches into one mask;
    one flatnonzero finds its met slots, and each walk's positions there
    are gathered into (k, m) arrays. On those m slots, lead walks are taken
    in turn: walk i leads a cell where a higher walk shares its position and
    no lower walk does, and the cell's occupancy is 1 plus the higher walks
    there. So the cells come out by lead walk, then by slot, and every sum
    over them runs in that order.
    Each collision cell (occupancy m >= 2) is visited once: it carries
    weight binom(m, 2) in Pi_N, weight 1 in Pi'_N, and the site factor
    1 + sum_{j>=1} binom(m, 2j) theta^(2j) of 1 + X_n, with
    theta^2 = max(f, 0)/sqrt(N). Distinct cells at one time multiply. A
    statistic runs the same operations whichever others are named, so a
    subset changes no bit.

    Chunk idx holds min(_WALK_CHUNK, 2^22 / N) replicas (at least 32) and
    draws from the stream (master_seed, WALKS, horizon, idx), in blocks from
    _walk_sweep. Every output is per replica, and each replica's sums run
    in the same order inside a block as inside a whole chunk, so the blocks
    change no bit.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    want = set(outputs)
    if not want <= set(STATISTICS):
        raise ValueError(f"unknown collision statistics {sorted(want - set(STATISTICS))}; "
                         f"known: {', '.join(STATISTICS)}")
    dense = not want.isdisjoint({"t_sum", "prod_x"})
    with_f = dense or not want.isdisjoint({"pi_f", "pi_prime_f"})
    chunk = max(32, min(_WALK_CHUNK, (1 << 22) // max(horizon, 1)))
    sqrt_n = math.sqrt(horizon)
    times = np.arange(1, horizon + 1, dtype=float) / horizon
    # even_binom[m, j-1] = binom(m, 2j), the coefficient of theta^(2j)
    even_binom = np.array([[math.comb(m, 2 * j) for j in range(1, k // 2 + 1)]
                           for m in range(k + 1)], dtype=float)

    def block_stats(block):
        # block[r, i] is walk i of replica r; slot r * horizon + (n - 1) is
        # replica r at time n. met marks the slots where some two walks meet.
        size = block.shape[0]
        met = np.zeros((size, horizon), dtype=bool)
        pair_hits = np.zeros(size, dtype=np.int64)
        for i, j in itertools.combinations(range(k), 2):
            eq = block[:, i] == block[:, j]
            met |= eq
            if "pair_hits" in want:
                pair_hits += eq.sum(axis=1)
        # int32 slots halve the index arrays whenever they fit
        slot = np.flatnonzero(met).astype(np.int32 if block.size < 2**31 else np.intp)
        del met, eq
        ridx = slot // horizon
        # pos[i, c] is walk i at met slot c; at is its index in the flat block
        at = slot + ridx * ((k - 1) * horizon)
        pos = np.empty((k, len(slot)), dtype=block.dtype)
        for i in range(k):
            np.take(block.reshape(-1), at, out=pos[i])
            at += horizon
        # a cell is visited through its lowest-indexed (lead) walk; below[i]
        # marks the met slots where a lower walk shares walk i's position
        below = np.zeros((k - 1, len(slot)), dtype=bool)
        cells, occ, sites = [], [], []
        for i in range(k - 1):
            above = pos[i + 1:] == pos[i]
            # walk i leads a collision cell: a higher walk is there, no lower one
            c = np.flatnonzero(above.any(axis=0) > below[i])
            below[i + 1:] |= above[:k - 2 - i]
            count = np.ones(len(c), dtype=np.min_scalar_type(k))
            for row in above:
                count += row[c]
            cells.append(c)
            occ.append(count)
            sites.append(pos[i, c])
        cell, occ = np.concatenate(cells), np.concatenate(occ)
        del pos, at, below, above
        slot, ridx = slot[cell], ridx[cell]
        pair = even_binom[occ, 0]
        out = {"pair_hits": pair_hits} if "pair_hits" in want else {}
        if "mass" in want:
            out["mass"] = np.bincount(ridx, pair, minlength=size)
        if "distinct_mass" in want:
            out["distinct_mass"] = np.bincount(ridx, minlength=size).astype(float)
        if "max_abs" in want:
            flat = block.reshape(size, k * horizon)
            out["max_abs"] = np.maximum(flat.max(axis=1), -flat.min(axis=1)) / sqrt_n
        if with_f:
            fv = np.asarray(f(times[slot - ridx * horizon], np.concatenate(sites) / sqrt_n),
                            dtype=float)
        if "pi_f" in want:
            out["pi_f"] = np.bincount(ridx, pair * fv, minlength=size)
        if "pi_prime_f" in want:
            out["pi_prime_f"] = np.bincount(ridx, fv, minlength=size)
        if dense:
            theta2 = np.maximum(fv, 0.0) / sqrt_n
            x_cell = np.zeros_like(theta2)
            for j in range(k // 2, 0, -1):  # Horner in theta^2
                x_cell = (x_cell + even_binom[occ, j - 1]) * theta2
            x_mat = np.zeros(size * horizon)
            seg = np.cumsum([0] + [len(c) for c in cells])
            for lo, hi in zip(seg[:-1], seg[1:]):
                # one lead walk's cells hold distinct slots; the update is
                # (1+x)(1+xc) - 1 without rounding through 1 + x
                s, xc = slot[lo:hi], x_cell[lo:hi]
                x = x_mat[s]
                x_mat[s] = x + xc + x * xc
            x_mat = x_mat.reshape(size, horizon)
            out["t_sum"] = x_mat.sum(axis=1)
            out["prod_x"] = np.prod(1.0 + x_mat, axis=1)
        return out

    merged = _walk_sweep(block_stats, (k,), horizon, n_replicas, chunk, master_seed, workers)
    if "pi_f" in want:
        merged["pi_scaled"] = merged["pi_f"] / sqrt_n
        merged["exp_pi"] = np.exp(merged["pi_scaled"])
    return merged


def partition_sweep(f: ContinuumAmplitude, horizon: int, n_replicas: int, master_seed: int,
                    workers: int = 1) -> np.ndarray:
    """z_N at A_N(n, z) = N^(-1/4) sqrt(max(f(n/N, z/sqrt N), 0)) over n_replicas
    hashed fields. Chunk idx draws its field seeds from the stream
    (master_seed, ENVIRONMENT, horizon, idx), so the values do not depend on
    the workers or on the other horizons of a ladder."""
    amplitude = disorder_from_function(sqrt_amplitude(f), horizon)
    amplitude = scaled_disorder(amplitude, horizon ** (-0.25))

    def run(rng, size):
        return partition_samples(horizon, amplitude, size, rng)

    key = (master_seed, ENVIRONMENT, horizon)
    return np.concatenate(_sweep(run, n_replicas, _ENV_CHUNK, key, workers))


def local_time_counts(horizon: int, n_replicas: int, master_seed: int,
                      workers: int = 1) -> np.ndarray:
    """Zero counts of single walks up to the horizon (integer-valued samples)."""
    def zeros(walks):
        return {"zeros": np.count_nonzero(walks == 0, axis=1)}

    counts = _walk_sweep(zeros, (), horizon, n_replicas, _LOCAL_TIME_CHUNK, master_seed, workers)
    return counts["zeros"].astype(float)


# ---------------------------------------------------------------------------
# experiments


def duality_experiment(k: int, f: ContinuumAmplitude, n_ladder, n_walk_replicas: int,
                       n_env_replicas: int, master_seed: int, workers: int = 1,
                       chaos_grid: WhiteNoiseGrid | None = None, chaos_order: int = 0,
                       chaos_replicas: int = 0) -> ExperimentReport:
    """Three estimates per ladder horizon: (a) E[exp(Pi_N(f)/sqrt N)] and
    (b) E[prod(1+X)] over walks, (c) E[z_N^k] over environments; the (b)=(c)
    bridge is an exact identity, the (a)-(b) gap shrinks along the ladder.
    Given a chaos_grid, the chaos target E[Z^k] at amplitude sqrt(2 f) is
    sampled on it to chaos_order with chaos_replicas replicas, on the CHAOS
    streams of master_seed, and held against the largest horizon's (a).

    The same walks carry the pathwise sandwich
    exp(S - c_N S / 2) <= prod(1+X) <= exp(S), S = sum X_n and
    c_N = (sqrt(max(f, 0)) + 1)^k / sqrt N, and the 99% quantile of
    |prod(1+X)/exp(S) - 1|, which should fall along the ladder."""
    n_ladder = list(n_ladder)
    rows = []
    tables = {"ladder": rows}
    raw = {}
    verdicts = []
    c = math.sqrt(max(f.bound, 0.0))
    for horizon in n_ladder:
        stats = collision_statistics(k, horizon, f, n_walk_replicas, master_seed, workers,
                                     outputs=("pi_f", "t_sum", "prod_x"))
        a_sum = summarize(stats["exp_pi"])
        b_sum = summarize(stats["prod_x"])
        s_vals, p_vals = stats["t_sum"], stats["prod_x"]
        c_n = (c + 1.0) ** k / math.sqrt(horizon)
        upper = np.exp(s_vals)
        lower = np.exp(s_vals * (1.0 - 0.5 * c_n))
        row = {
            "N": horizon,
            "exp_pi": _sum_dict(a_sum),
            "prod_x": _sum_dict(b_sum),
            "gap_ab": abs(a_sum.mean - b_sum.mean),
            "sandwich_holds": bool(np.all(p_vals <= upper * (1 + 1e-12)) and
                                   np.all(p_vals >= lower * (1 - 1e-12))),
            "ratio_dev_q99": float(np.quantile(np.abs(p_vals / upper - 1.0), 0.99)),
        }
        raw[f"exp_pi_N{horizon}"] = stats["exp_pi"]
        raw[f"prod_x_N{horizon}"] = stats["prod_x"]
        if n_env_replicas > 0:
            z_to_k = partition_sweep(f, horizon, n_env_replicas, master_seed, workers)**k
            c_sum = summarize(z_to_k)
            row["z_to_k"] = _sum_dict(c_sum)
            row["band_tail_bound"] = band_tail_bound(horizon)
            raw[f"z_to_k_N{horizon}"] = z_to_k
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
            shrink >= _GAP_FACTOR,
            f"|a-b| gaps {['%.5f' % g for g in gaps]}: end-to-end factor {shrink:.2f} "
            f">= {_GAP_FACTOR}",
        ))
    holds = [row["sandwich_holds"] for row in rows]
    verdicts.append(Verdict(
        "pathwise-sandwich", all(holds),
        f"exp(S - c_N S/2) <= prod(1+X) <= exp(S) in all {n_walk_replicas} "
        f"replicates, per rung: {holds}"))
    q99s = [row["ratio_dev_q99"] for row in rows]
    if len(q99s) >= 2:
        verdicts.append(Verdict(
            "ratio-concentrates", q99s[-1] < q99s[0] or q99s[-1] == 0.0,
            f"q99 |prod/exp(S) - 1| along ladder: {['%.2e' % q for q in q99s]}"))
    if chaos_grid is not None:
        from .chaos import estimate_Z_moments

        powers, _ = estimate_Z_moments(sqrt_amplitude(f, 2.0), chaos_grid, chaos_order, k,
                                       chaos_replicas, master_seed)
        chaos_target = summarize(powers[:, k - 1])
        a_last = rows[-1]["exp_pi"]
        tol = 0.1 * abs(chaos_target.mean) + 3.0 * math.hypot(
            a_last["stderr"], chaos_target.stderr)
        err = abs(a_last["mean"] - chaos_target.mean)
        tables["chaos_target"] = _sum_dict(chaos_target)
        verdicts.append(Verdict(
            "chaos-target",
            err <= tol,
            f"E[exp(Pi/sqrt N)]={a_last['mean']:.5f} vs E[Z^k]={chaos_target.mean:.5f} "
            f"(err {err:.5f} <= tol {tol:.5f})",
        ))
    cfg = {"k": k, "n_ladder": n_ladder, "walk_replicas": n_walk_replicas,
           "env_replicas": n_env_replicas, "gap_factor": _GAP_FACTOR}
    return ExperimentReport("duality", cfg, tables, verdicts, raw)


def sqrt_amplitude(f: ContinuumAmplitude, c: float = 1.0) -> ContinuumAmplitude:
    """a(t, x) = sqrt(c max(f(t, x), 0)): a negative f gives no disorder."""
    return ContinuumAmplitude(lambda t, x: np.sqrt(c * np.maximum(f(t, x), 0.0)),
                              math.sqrt(c * max(f.bound, 0.0)))


def _sum_dict(s: MonteCarloSummary) -> dict:
    return {"n": s.n, "mean": s.mean, "stderr": s.stderr,
            "ci99": [s.ci99[0], s.ci99[1]]}


def exponential_moment_probe(beta: float, n_ladder, n_replicas: int, master_seed: int,
                             workers: int = 1) -> ExperimentReport:
    """E[exp(beta N^(-1/2) local time)] along the ladder; verdict: finite
    everywhere and the final two rungs agree within _PLATEAU_SIGMA stderr."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    n_ladder = list(n_ladder)
    rows = []
    raw = {}
    for horizon in n_ladder:
        counts = local_time_counts(horizon, n_replicas, master_seed, workers)
        vals = np.exp(beta * counts / math.sqrt(horizon))
        raw[f"exp_moment_N{horizon}"] = vals
        rows.append({"N": horizon, **_sum_dict(summarize(vals))})
    verdicts = [Verdict("all-finite", all(math.isfinite(r["mean"]) for r in rows),
                        "every ladder estimate is finite")]
    if len(rows) >= 2:
        a, b = rows[-2], rows[-1]
        tol = _PLATEAU_SIGMA * math.hypot(a["stderr"], b["stderr"])
        verdicts.append(Verdict(
            "plateau",
            abs(a["mean"] - b["mean"]) <= tol,
            f"final rungs {a['mean']:.5f} vs {b['mean']:.5f}, "
            f"|diff|={abs(a['mean'] - b['mean']):.5f} <= {tol:.5f}",
        ))
    cfg = {"beta": beta, "n_ladder": n_ladder, "replicas": n_replicas}
    return ExperimentReport("expmoment", cfg, {"ladder": rows}, verdicts, raw)


def tightness_probe(k: int, n_ladder, m_ladder, n_replicas: int, master_seed: int,
                    workers: int = 1) -> ExperimentReport:
    """Tail probabilities of the rescaled total mass and the rescaled sup of
    the walks, over an (N, m) grid."""
    n_ladder, m_ladder = list(n_ladder), list(m_ladder)
    f1 = constant_fn(1.0)
    mass_rows, sup_rows = [], []
    mass_tail = np.zeros((len(n_ladder), len(m_ladder)))
    sup_tail = np.zeros_like(mass_tail)
    for ni, horizon in enumerate(n_ladder):
        stats = collision_statistics(k, horizon, f1, n_replicas, master_seed, workers,
                                     outputs=("mass", "max_abs"))
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
                bool(sup_over_n_mass[-1] < _TAIL_PROB),
                f"largest m tail {sup_over_n_mass[-1]:.5f} < {_TAIL_PROB}"),
        Verdict("support-tails-decrease",
                bool(np.all(np.diff(sup_over_n_sup) <= 0)),
                f"sup_N P(max|S|/sqrt N > m): {sup_over_n_sup.tolist()}"),
        Verdict("support-tail-small",
                bool(sup_over_n_sup[-1] < _TAIL_PROB),
                f"largest m tail {sup_over_n_sup[-1]:.5f} < {_TAIL_PROB}"),
    ]
    cfg = {"k": k, "n_ladder": n_ladder, "m_ladder": m_ladder, "replicas": n_replicas}
    return ExperimentReport("tightness", cfg,
                            {"mass": mass_rows, "support": sup_rows}, verdicts)


def convergence_study(k: int, f: ContinuumAmplitude, n_ladder, n_replicas: int,
                      master_seed: int, workers: int = 1) -> ExperimentReport:
    """Distributional convergence probes for Pi_N(f)/sqrt N and the merging
    of the multiplicity and distinct-event measures."""
    n_ladder = list(n_ladder)
    samples, samples_prime, mean_diff = [], [], []
    rows = []
    raw = {}
    for horizon in n_ladder:
        stats = collision_statistics(k, horizon, f, n_replicas, master_seed, workers,
                                     outputs=("pi_f", "pi_prime_f", "mass", "distinct_mass"))
        pi = stats["pi_scaled"]
        pip = stats["pi_prime_f"] / math.sqrt(horizon)
        samples.append(pi)
        samples_prime.append(pip)
        raw[f"pi_scaled_N{horizon}"] = pi
        raw[f"pi_prime_scaled_N{horizon}"] = pip
        diff = (stats["mass"] - stats["distinct_mass"]) / math.sqrt(horizon)
        mean_diff.append(summarize(diff))
        rows.append({"N": horizon, "pi_mean": summarize(pi).mean,
                     "mass_gap": _sum_dict(mean_diff[-1])})
    consec = [ks_two_sample(a, b) for a, b in zip(samples, samples[1:])]
    ks_pi_pip = ks_two_sample(samples[-1], samples_prime[-1])
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


def partition_experiment(n_ladder, k: int, f: ContinuumAmplitude, n_env_replicas: int,
                         master_seed: int, workers: int = 1, *,
                         env_budget: int) -> ExperimentReport:
    """Mean-one, positivity, and k-th moment plateau of the partition
    function at intermediate-disorder scale with A_N = sqrt(f).

    env_budget caps replicas per rung at max(96, budget / N), so tall ladders stay
    affordable; n_env_replicas * max(n_ladder) caps none. Each row carries the
    bound on the environment-mean mass the transfer band drops at that N.
    """
    n_ladder = list(n_ladder)
    rows = []
    raw = {}
    all_positive = True
    mean_one = True
    for horizon in n_ladder:
        reps = int(min(n_env_replicas, max(96, env_budget // horizon)))
        vals = partition_sweep(f, horizon, reps, master_seed, workers)
        raw[f"z_N{horizon}"] = vals
        s_mean = summarize(vals)
        s_k = summarize(vals**k)
        all_positive = all_positive and bool(np.all(vals > 0.0))
        mean_one = mean_one and abs(s_mean.mean - 1.0) <= _MEAN_SIGMA * s_mean.stderr
        rows.append({"N": horizon, "replicas": reps, "mean": _sum_dict(s_mean),
                     "moment_k": _sum_dict(s_k), "band_tail_bound": band_tail_bound(horizon)})
    verdicts = [
        Verdict("mean-one", mean_one, "E[z_N] = 1 within 4 stderr at every rung"),
        Verdict("positivity", all_positive, "every sampled z_N > 0"),
    ]
    if len(rows) >= 2:
        a, b = rows[-2]["moment_k"], rows[-1]["moment_k"]
        tol = _PLATEAU_SIGMA * math.hypot(a["stderr"], b["stderr"])
        verdicts.append(Verdict(
            "moment-plateau",
            abs(a["mean"] - b["mean"]) <= tol,
            f"E[z^{k}] final rungs {a['mean']:.4f} vs {b['mean']:.4f} "
            f"(|diff| <= {tol:.4f})"))
    cfg = {"k": k, "n_ladder": n_ladder, "env_replicas": n_env_replicas}
    return ExperimentReport("partition", cfg, {"ladder": rows}, verdicts, raw)


def collision_experiment(k: int, horizon: int, n_replicas: int, master_seed: int,
                         f: ContinuumAmplitude, workers: int = 1) -> ExperimentReport:
    """Collision-measure invariants on the batched occupancy kernel: the
    multiplicity bounds, Pi between Pi' and binom(k,2) Pi' on every
    replicate (Pi' <= Pi <= binom(k,2) Pi' where f >= 0; Pi - Pi' has the
    sign of f, so the bounds reverse where f < 0) and, for k = 2, the
    pathwise total-mass identity: ||Pi|| from the collision cells equals the
    count of times with S^1_n = S^2_n (pair_hits), the zero count of the
    difference walk."""
    outputs = ("pi_f", "pi_prime_f", "mass") + (("pair_hits",) if k == 2 else ())
    stats = collision_statistics(k, horizon, f, n_replicas, master_seed, workers,
                                 outputs=outputs)
    pi, pip = stats["pi_f"], stats["pi_prime_f"]
    scaled = math.comb(k, 2) * pip
    bounds_ok = bool(np.all(np.minimum(pip, scaled) <= pi + 1e-12) and
                     np.all(pi <= np.maximum(pip, scaled) + 1e-12))
    verdicts = [Verdict("multiplicity-bounds", bounds_ok,
                        "Pi between Pi' and binom(k,2) Pi' on every replicate")]
    if k == 2:
        verdicts.append(Verdict(
            "mass-identity", bool(np.array_equal(stats["mass"], stats["pair_hits"])),
            "||Pi|| equals the difference-walk zero count pathwise"))
    cfg = {"k": k, "N": horizon, "replicas": n_replicas}
    tables = {"mass": _sum_dict(summarize(stats["mass"]))}
    return ExperimentReport("collisions", cfg, tables, verdicts, {"mass": stats["mass"]})


def chaos_experiment(gamma: float, grid: WhiteNoiseGrid, order: int, n_replicas: int,
                     master_seed: int) -> ExperimentReport:
    """Simulated chaos value at constant amplitude on the grid against that
    grid's exact second moment, next to the closed-form series and the
    grid's bias to it. The report names the grid's window [-CUTOFF, CUTOFF]."""
    from .chaos import (chaos_tail_bound, estimate_Z_moments, scheme_order_variances,
                        second_moment_series)

    amplitude = constant_fn(gamma)
    powers, z_values = estimate_Z_moments(amplitude, grid, order, 2, n_replicas, master_seed)
    first, second = (summarize(column) for column in powers.T)
    series = second_moment_series(gamma)
    grid_m2 = 1.0 + float(scheme_order_variances(grid, gamma, order).sum())
    verdicts = [
        Verdict("mean-one", abs(first.mean - 1.0) <= _MEAN_SIGMA * first.stderr,
                f"E[Z]={first.mean:.4f}±{first.stderr:.4f} within 4 stderr of 1"),
        Verdict("second-moment",
                abs(second.mean - grid_m2) <= _MOMENT_SIGMA * second.stderr,
                f"E[Z^2]={second.mean:.4f}±{second.stderr:.4f} vs grid value {grid_m2:.4f} "
                f"(series {series:.6g}, bias {series - grid_m2:.6g})"),
    ]
    cfg = {"gamma": gamma, "time_cells": grid.time_cells, "dx": grid.dx,
           "cutoff": CUTOFF, "order": order, "replicas": n_replicas}
    tables = {
        "moments": [first.mean, second.mean],
        "stderrs": [first.stderr, second.stderr],
        "grid_second_moment": grid_m2,
        "truncation_bound": chaos_tail_bound(amplitude.bound, order),
        "series_target": series,
        "series_bias": series - grid_m2,
    }
    raw = {"z_values": z_values}
    return ExperimentReport("chaos", cfg, tables, verdicts, raw)


def kernels_check(max_order: int, clt_ladder) -> ExperimentReport:
    """Closed-form chain norms against their grid extrapolation, and the local
    CLT L2 distance ladder computed exactly. No sample is drawn, so the report
    does not depend on the seed."""
    from .chaos import extrapolated_chain_norms
    from .kernels import local_clt_distance_sq, rho_chain_norm_sq

    fit = extrapolated_chain_norms(max_order)
    rows = []
    for n, value, error in zip(range(1, max_order + 1), fit.value.tolist(), fit.error.tolist()):
        closed = rho_chain_norm_sq(n)
        rows.append({"n": n, "closed_form": closed, "extrapolated": value,
                     "stated_error": error, "rel_err": abs(value - closed) / closed})
    # a stated error above the tolerance fails: the fit could not show the match
    norm_ok = all(max(r["rel_err"], r["stated_error"] / r["closed_form"]) <= _NORM_TOL_REL
                  for r in rows)
    clt_ladder = list(clt_ladder)
    clt_rows = []
    for horizon in clt_ladder:
        exact = local_clt_distance_sq(horizon)
        clt_rows.append({"N": horizon, "distance": math.sqrt(exact.value), "d2": exact.value,
                         "band_tail_bound": exact.error})
    verdicts = [
        Verdict("norms-match", norm_ok,
                f"grid-extrapolated norms and their stated errors within "
                f"{_NORM_TOL_REL:.0%} of closed form for n <= {max_order}: worst "
                f"{max(r['rel_err'] for r in rows):.2e} (stated "
                f"{max(r['stated_error'] / r['closed_form'] for r in rows):.2e})"),
    ]
    if len(clt_rows) >= 2:
        # a slope needs two rungs
        slopes = [math.log(b["distance"] / a["distance"]) / math.log(b["N"] / a["N"])
                  for a, b in zip(clt_rows, clt_rows[1:])]
        verdicts.append(Verdict(
            "clt-rate", all(abs(sl + 0.25) <= _CLT_RATE_TOL for sl in slopes),
            f"log-log slopes of the exact L2 distance within {_CLT_RATE_TOL} of -1/4: "
            + ", ".join(f"{sl:.3f}" for sl in slopes)))
    cfg = {"max_order": max_order, "clt_ladder": clt_ladder}
    return ExperimentReport("kernels-check", cfg,
                            {"norms": rows, "clt": clt_rows}, verdicts)


def ustat_check(horizon: int, n_replicas: int, master_seed: int) -> ExperimentReport:
    """Zero mean, exact second moment, and cross-order uncorrelatedness of the
    U-statistics at orders 1 and 2, for the product integrands
    g = prod_j h(t_j, x_j) of the slot factor h(t, x) = exp(-x^2) 1{|x| <= 2}
    and the amplitude a(t, x) = 1/(1 + 0.8|x|) at the rescaled position. One
    cell table and one pass over the times serve both orders (see
    collisim.ustat); each sampled mean of S_n^2 is tested against the exact
    E[S_n^2] in its stderr."""
    from .ustat import build_cell_table, exact_second_moment, ustat_moment_suite

    support_radius = 2.0

    def h(ts, xs):
        return np.exp(-xs**2) * (np.abs(xs) <= support_radius)

    amp = disorder_from_function(
        ContinuumAmplitude(lambda t, x: 1.0 / (1.0 + 0.8 * np.abs(x)), 1.0), horizon)
    table = build_cell_table(h, 2, support_radius, horizon, amp)
    values = ustat_moment_suite(table, n_replicas, master_seed)
    firsts = [summarize(v) for v in values]
    seconds = [summarize(v**2) for v in values]
    exact = exact_second_moment(table)
    # per-order columns, entry n - 1 for order n
    tables = {"means": [s.mean for s in firsts], "mean_stderrs": [s.stderr for s in firsts],
              "second_moments": [s.mean for s in seconds],
              "second_moment_stderrs": [s.stderr for s in seconds],
              "exact_second_moments": exact.tolist()}
    mean_ok = all(abs(s.mean) <= _MEAN_SIGMA * s.stderr for s in firsts)
    moment_ok = all(abs(s.mean - e) <= _MEAN_SIGMA * s.stderr for s, e in zip(seconds, exact))
    # S_1 and S_2 are uncorrelated: their sample covariance against its stderr
    cov = float(np.cov(values[0], values[1], ddof=1)[0, 1])
    cov_se = float(np.sqrt((values[0]**2 * values[1]**2).mean() / n_replicas))
    cross_ok = abs(cov) <= _MEAN_SIGMA * cov_se
    verdicts = [
        Verdict("zero-mean", mean_ok,
                f"means {tables['means']} within 4 stderr of 0"),
        Verdict("second-moment", moment_ok,
                f"means of S_n^2 {tables['second_moments']} within 4 stderr "
                f"{tables['second_moment_stderrs']} of exact {tables['exact_second_moments']}"),
        Verdict("cross-order-uncorrelated", cross_ok,
                f"cov={cov:.4f}±{cov_se:.4f} within 4 stderr of 0"),
    ]
    cfg = {"N": horizon, "replicas": n_replicas}
    raw = {f"order{n}_values": row for n, row in enumerate(values, 1)}
    return ExperimentReport("ustat-check", cfg, tables, verdicts, raw)

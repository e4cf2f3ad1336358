"""Command-line experiment runner.

One binary, one subcommand per experiment. Config is a JSON file with
sections per module; command-line flags override file values. Every run
writes a deterministic report.json (byte-identical across reruns of the
same config and seed) and a manifest.json that quarantines the timestamp
and wall-clock so byte comparison of reports stays meaningful.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, harness, polymer
from .collisions import gaussian_bump
from .kernels import CLT_MIN_BUDGET
from .rngs import HASH_VERSION
from .ustat import MIN_REPLICAS as USTAT_MIN_REPLICAS

COMMANDS = (
    "collisions", "partition", "chaos", "duality", "expmoment",
    "tightness", "convergence", "kernels-check", "ustat-check",
)

DEFAULT_CONFIG = {
    "run": {
        "seed": None,          # required: reproducibility forbids wall-clock defaults
        "out": "runs/out",
        "replicas": 10_000,
        "env_replicas": 2_000,
        "workers": 1,
        "raw": False,
    },
    "walks": {
        "k": 3,
        "n_ladder": [64, 256, 1024],
        "m_ladder": [2, 4, 8, 16],
    },
    "harness": {
        "alpha": 0.5,
        "sigma": 1.0,
        "beta": 1.0,
        "with_chaos_target": False,
        "env_budget": 2_000_000,
        "norm_samples": 1_000_000,
        "clt_budget": 120_000,
        "max_order": 4,
    },
    "chaos": {
        "gamma": 0.7071067811865476,
        "time_cells": 32,
        "dx": 0.175,
        "cutoff": 6.0,
        "order": 6,
        "replicas": 1_000,
    },
}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config field: {where}")
        if isinstance(out[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where}: must be an object, got {val!r}")
            out[key] = _merge(out[key], val, where)
        else:
            out[key] = val
    return out


def parse_seed(text) -> int:
    """Seeds are U64: decimal or hex strings, or plain ints, in [0, 2**64)."""
    if isinstance(text, bool):
        raise ConfigError(f"run.seed: must be an integer, got {text!r}")
    try:
        seed = text if isinstance(text, int) else int(str(text), 0)
    except ValueError as exc:
        raise ConfigError(f"run.seed: cannot parse {text!r} as an integer") from exc
    if not 0 <= seed < 2**64:
        raise ConfigError(f"run.seed: must lie in [0, 2**64), got {text!r}")
    return seed


def _parse(kind, value, where: str):
    """kind(value), finite, or a ConfigError naming the field."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: cannot parse {value!r} as {kind.__name__}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return number


def _int_at_least(value, where: str, minimum: int) -> int:
    """value as an integer >= minimum; fractions and booleans are rejected,
    not truncated."""
    number = _parse(int, value, where)
    fractional = isinstance(value, float) and value != number
    if isinstance(value, bool) or fractional or number < minimum:
        raise ConfigError(f"{where}: must be an integer >= {minimum}, got {value!r}")
    return number


def _require_bool(value, where: str) -> None:
    # a JSON string such as "false" would otherwise be truthy
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: must be true or false, got {value!r}")


def validate(cfg: dict) -> dict:
    """Check and normalise every field, so a bad value fails before any work."""
    run = cfg["run"]
    if run["seed"] is None:
        raise ConfigError("run.seed: a seed is required (no wall-clock default)")
    run["seed"] = parse_seed(run["seed"])
    if not isinstance(run["out"], str) or not run["out"]:
        raise ConfigError(f"run.out: must be a non-empty path string, got {run['out']!r}")
    _require_bool(run["raw"], "run.raw")
    for field in ("replicas", "env_replicas", "workers"):
        run[field] = _int_at_least(run[field], f"run.{field}", 1)
    walks = cfg["walks"]
    walks["k"] = _int_at_least(walks["k"], "walks.k", 2)
    ladder = [_int_at_least(n, "walks.n_ladder", 1) for n in walks["n_ladder"]]
    if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("walks.n_ladder: must be a strictly increasing list")
    walks["n_ladder"] = ladder
    mlad = [_parse(float, m, "walks.m_ladder") for m in walks["m_ladder"]]
    if not mlad or any(b <= a for a, b in zip(mlad, mlad[1:])):
        raise ConfigError("walks.m_ladder: must be a nonempty, strictly increasing list")
    walks["m_ladder"] = mlad
    hz = cfg["harness"]
    _require_bool(hz["with_chaos_target"], "harness.with_chaos_target")
    for field in ("alpha", "sigma", "beta"):
        hz[field] = _parse(float, hz[field], f"harness.{field}")
    if hz["sigma"] <= 0:
        raise ConfigError("harness.sigma: must be > 0")
    if hz["beta"] < 0:
        raise ConfigError("harness.beta: must be >= 0")
    budget = hz["env_budget"]
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, int)
                               or budget < 1):
        raise ConfigError(f"harness.env_budget: must be null or a positive integer, "
                          f"got {budget!r}")
    hz["max_order"] = _int_at_least(hz["max_order"], "harness.max_order", 1)
    if hz["max_order"] > 99:
        # kernels_check keys order n as (seed, 5, n) and CLT rung i as
        # (seed, 5, 100 + i): order 100 would reuse rung 0's stream
        raise ConfigError(f"harness.max_order: must be <= 99, got {hz['max_order']}")
    hz["norm_samples"] = _int_at_least(hz["norm_samples"], "harness.norm_samples", 2)
    hz["clt_budget"] = _int_at_least(hz["clt_budget"], "harness.clt_budget",
                                     CLT_MIN_BUDGET)
    ch = cfg["chaos"]
    for field in ("gamma", "dx", "cutoff"):
        ch[field] = _parse(float, ch[field], f"chaos.{field}")
    ch["time_cells"] = _int_at_least(ch["time_cells"], "chaos.time_cells", 1)
    if ch["dx"] <= 0 or ch["cutoff"] <= 0:
        raise ConfigError("chaos.dx / chaos.cutoff: must be > 0")
    if ch["dx"] > math.sqrt(1.0 / ch["time_cells"]) + 1e-12:
        raise ConfigError("chaos.dx: need dx <= sqrt(dt) for stable kernels")
    if round(2.0 * ch["cutoff"] / ch["dx"]) < 1:
        raise ConfigError("chaos.cutoff: [-cutoff, cutoff] holds no space cell of width "
                          "chaos.dx (2 cutoff / dx rounds to 0)")
    ch["order"] = _int_at_least(ch["order"], "chaos.order", 0)
    if ch["order"] >= 1 and ch["time_cells"] <= ch["order"]:
        raise ConfigError("chaos.time_cells: must exceed chaos.order to time-order its chains")
    # the moment stderrs need two replicas
    ch["replicas"] = _int_at_least(ch["replicas"], "chaos.replicas", 2)
    return cfg


def check_exponents(command: str, cfg: dict) -> None:
    """Reject, before any sampling, a config whose R samples 0 < x <= exp(E) at
    the largest rung N can overflow summarize: their squared deviations sum to at
    most R exp(2 E), so E <= log(float max / R)/2. Each bound on E is pathwise."""
    n = cfg["walks"]["n_ladder"][-1]
    limit = math.log(sys.float_info.max / cfg["run"]["replicas"]) / 2
    if command == "duality":
        # f <= max(alpha, 0) and each time holds at most binom(k, 2) colliding
        # pairs, so Pi_N(f)/sqrt N <= binom(k, 2) sqrt(N) max(alpha, 0). A cell of
        # m walks has 1 + x = ((1+t)^m + (1-t)^m)/2 <= exp(binom(m, 2) t^2) with
        # t^2 = max(f, 0)/sqrt N, so log prod(1+X) <= Pi_N(max(f, 0))/sqrt N obeys
        # the same bound.
        field, scale = "alpha", math.comb(cfg["walks"]["k"], 2) * math.sqrt(n)
    elif command == "expmoment":
        # a walk is at 0 only at even times: beta L_N/sqrt N <= beta (N // 2)/sqrt N
        field, scale = "beta", (n // 2) / math.sqrt(n)
    else:
        return
    value = cfg["harness"][field]
    if scale * max(value, 0.0) > limit:
        raise ConfigError(f"harness.{field}: exp can overflow at N={n}; need "
                          f"{field} <= {limit / scale:.6g}, got {value!r}")


def load_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        try:
            file_cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {args.config}: {exc}") from exc
        cfg = _merge(cfg, file_cfg)
    # flags win over file values
    if args.seed is not None:
        cfg["run"]["seed"] = args.seed
    if args.out is not None:
        cfg["run"]["out"] = args.out
    if args.replicas is not None:
        cfg["run"]["replicas"] = args.replicas
    if args.workers is not None:
        cfg["run"]["workers"] = args.workers
    if args.raw:
        cfg["run"]["raw"] = True
    cfg = validate(cfg)
    check_exponents(args.command, cfg)
    if args.command == "ustat-check" and cfg["run"]["replicas"] < USTAT_MIN_REPLICAS:
        raise ConfigError(f"run.replicas: ustat-check needs at least {USTAT_MIN_REPLICAS}, "
                          f"got {cfg['run']['replicas']}")
    return cfg


def _test_function(cfg):
    hz = cfg["harness"]
    return gaussian_bump(float(hz["alpha"]), float(hz["sigma"]))


def _chaos_target_summary(cfg, f):
    """E[Z_{sqrt(2f)}^k] from the grid simulator, as a summary the duality
    verdict can hold against its largest-horizon estimate."""
    from .chaos import WhiteNoiseGrid, estimate_Z_moments

    ch, k = cfg["chaos"], cfg["walks"]["k"]
    grid = WhiteNoiseGrid(int(ch["time_cells"]), float(ch["dx"]), float(ch["cutoff"]))
    rep = estimate_Z_moments(harness.sqrt_amplitude(f, 2.0), grid, int(ch["order"]), k,
                             int(ch["replicas"]), cfg["run"]["seed"] + 99)
    mean, se = float(rep.moments[k - 1]), float(rep.stderrs[k - 1])
    return harness.MonteCarloSummary(rep.n_replicas, mean, se)


def dispatch(command: str, cfg: dict) -> harness.ExperimentReport:
    run, walks, hz, ch = cfg["run"], cfg["walks"], cfg["harness"], cfg["chaos"]
    seed, workers = run["seed"], run["workers"]
    f = _test_function(cfg)
    if command == "collisions":
        return harness.collision_experiment(walks["k"], walks["n_ladder"][-1],
                                            run["replicas"], seed, f, workers)
    if command == "partition":
        return harness.partition_experiment(
            walks["n_ladder"], walks["k"], f, run["env_replicas"], seed, workers,
            env_budget=hz["env_budget"])
    if command == "chaos":
        return harness.chaos_experiment(ch["gamma"], ch["time_cells"], ch["dx"],
                                        ch["cutoff"], ch["order"], ch["replicas"], seed)
    if command == "duality":
        chaos_target = _chaos_target_summary(cfg, f) if hz["with_chaos_target"] else None
        return harness.duality_experiment(
            walks["k"], f, walks["n_ladder"], run["replicas"], run["env_replicas"],
            seed, workers, chaos_target=chaos_target)
    if command == "expmoment":
        return harness.exponential_moment_probe(
            hz["beta"], walks["n_ladder"], run["replicas"], seed, workers)
    if command == "tightness":
        return harness.tightness_probe(walks["k"], walks["n_ladder"], walks["m_ladder"],
                                       run["replicas"], seed, workers)
    if command == "convergence":
        return harness.convergence_study(
            walks["k"], f, walks["n_ladder"], run["replicas"], seed, workers)
    if command == "kernels-check":
        return harness.kernels_check(
            hz["max_order"], hz["norm_samples"], walks["n_ladder"], hz["clt_budget"], seed)
    if command == "ustat-check":
        return harness.ustat_check(walks["n_ladder"][0], run["replicas"], seed)
    raise ConfigError(f"command: unknown command {command!r}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (2^20 bytes).
    ru_maxrss counts KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def write_outputs(report: harness.ExperimentReport, cfg: dict, command: str,
                  elapsed: float, to_stdout: bool) -> Path:
    out_dir = Path(cfg["run"]["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = report.to_dict()
    doc["schema"] = 1
    doc["command"] = command
    doc["seed"] = cfg["run"]["seed"]
    report_text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    (out_dir / "report.json").write_text(report_text)
    manifest = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": elapsed,
        "peak_rss_mb": peak_rss_mb(),
        "command": command,
        "seed": cfg["run"]["seed"],
        "artifact_version": __version__,
        "hash_function": HASH_VERSION,
        "band_sigmas": polymer.BAND_SIGMAS,
        "report_schema": 1,
        "config": cfg,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    if cfg["run"]["raw"] and report.raw:
        raw_dir = out_dir / "raw"
        raw_dir.mkdir(exist_ok=True)
        for key, values in report.raw.items():
            lines = [f"# collisim={__version__} hash={HASH_VERSION} "
                     f"command={command} seed={cfg['run']['seed']}", "value"]
            lines += [repr(float(v)) for v in np.asarray(values).ravel()]
            (raw_dir / f"{key}.csv").write_text("\n".join(lines) + "\n")
    if to_stdout:
        sys.stdout.write(report_text)
    return out_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collisim",
        description="Collision-measure and polymer partition-function experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file with per-module sections")
    parser.add_argument("--seed", type=parse_seed, help="master seed (decimal or hex)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--replicas", type=int, help="walk-side replicate count")
    parser.add_argument("--workers", type=int, help="worker pool size")
    parser.add_argument("--raw", action="store_true", help="write per-replicate CSVs")
    parser.add_argument("--stdout", action="store_true",
                        help="print the machine-readable report to stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    print(f"running {args.command} (seed={cfg['run']['seed']})", file=sys.stderr)
    report = dispatch(args.command, cfg)
    elapsed = time.perf_counter() - started
    out_dir = write_outputs(report, cfg, args.command, elapsed, args.stdout)
    for line in report.lines():
        print(line, file=sys.stderr)
    print(f"report written to {out_dir} ({elapsed:.1f}s)", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

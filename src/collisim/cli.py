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
from .chaos import (NORM_LADDER, GridError, GridResolutionError, WhiteNoiseGrid,
                    estimate_Z_moments)
from .collisions import gaussian_bump
from .kernels import CLT_MIN_BUDGET
from .rngs import HASH_VERSION
from .ustat import MIN_REPLICAS as USTAT_MIN_REPLICAS

COMMANDS = (
    "collisions", "partition", "chaos", "duality", "expmoment",
    "tightness", "convergence", "kernels-check", "ustat-check",
)


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def parse_seed(text) -> int:
    """Seeds are U64: decimal or hex strings, or plain ints, in [0, 2**64)."""
    if text is None:
        raise ConfigError("run.seed: a seed is required (no wall-clock default)")
    if isinstance(text, bool):
        raise ConfigError(f"run.seed: must be an integer, got {text!r}")
    try:
        seed = text if isinstance(text, int) else int(str(text), 0)
    except ValueError as exc:
        raise ConfigError(f"run.seed: cannot parse {text!r} as an integer") from exc
    if not 0 <= seed < 2**64:
        raise ConfigError(f"run.seed: must lie in [0, 2**64), got {text!r}")
    return seed


# A check takes (value, "section.field") and returns the normalised value,
# or raises a ConfigError naming the field.

def _number(kind, minimum: float = -math.inf, strict: bool = False):
    """A finite kind (int or float) >= minimum, or > minimum if strict. A JSON
    boolean is not a number, and a fraction is rejected, not truncated."""
    def check(value, where: str):
        try:
            number = kind(value)
            finite = math.isfinite(number)  # an int beyond float range overflows
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: cannot parse {value!r} as {kind.__name__}") from exc
        if (isinstance(value, bool) or not finite or number < minimum
                or (strict and number == minimum)
                or (isinstance(value, float) and value != number)):
            bound = f" {'>' if strict else '>='} {minimum}" if minimum > -math.inf else ""
            raise ConfigError(f"{where}: must be a finite {kind.__name__}{bound}, "
                              f"got {value!r}")
        return number
    return check


def _ladder(entry):
    """A nonempty, strictly increasing list of entry values."""
    def check(value, where: str) -> list:
        # a string or an object would otherwise be iterated item by item
        if not isinstance(value, list):
            raise ConfigError(f"{where}: must be a list, got {value!r}")
        ladder = [entry(item, where) for item in value]
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError(f"{where}: must be a nonempty, strictly increasing list")
        return ladder
    return check


def _optional(check):
    return lambda value, where: None if value is None else check(value, where)


def _flag(value, where: str) -> bool:
    # a JSON string such as "false" would otherwise be truthy
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: must be true or false, got {value!r}")
    return value


def _path(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: must be a non-empty path string, got {value!r}")
    return value


#: every config field: its default and its check
FIELDS = {
    "run": {
        # required: reproducibility forbids wall-clock defaults
        "seed": (None, lambda value, where: parse_seed(value)),
        "out": ("runs/out", _path),
        "replicas": (10_000, _number(int, 1)),
        "env_replicas": (2_000, _number(int, 1)),
        "workers": (1, _number(int, 1)),
        "raw": (False, _flag),
    },
    "walks": {
        "k": (3, _number(int, 2)),
        "n_ladder": ([64, 256, 1024], _ladder(_number(int, 1))),
        "m_ladder": ([2, 4, 8, 16], _ladder(_number(float))),
    },
    "harness": {
        "alpha": (0.5, _number(float)),
        "sigma": (1.0, _number(float, 0, strict=True)),
        "beta": (1.0, _number(float, 0)),
        "with_chaos_target": (False, _flag),
        "env_budget": (2_000_000, _optional(_number(int, 1))),
        # still validated, since perfbench's frozen configs set them; no subcommand reads them
        "norm_samples": (1_000_000, _number(int, 2)),
        "clt_budget": (120_000, _number(int, CLT_MIN_BUDGET)),
        "max_order": (4, _number(int, 1)),
    },
    "chaos": {
        # the sampled grid is WhiteNoiseGrid(time_cells, dx, cutoff)
        "gamma": (0.7071067811865476, _number(float)),
        "time_cells": (64, _number(int, 1)),
        "dx": (0.0875, _number(float)),
        "cutoff": (6.0, _number(float)),
        "order": (6, _number(int, 0)),
        "replicas": (1_000, _number(int, 2)),  # the moment stderrs need two replicas
    },
}

DEFAULT_CONFIG = {section: {name: default for name, (default, _) in fields.items()}
                  for section, fields in FIELDS.items()}


def _merge(base: dict, override, path: str = "") -> dict:
    if not isinstance(override, dict):
        raise ConfigError(f"{path or 'config'}: must be an object, got {override!r}")
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config field: {where}")
        if isinstance(out[key], dict):
            out[key] = _merge(out[key], val, where)
        else:
            out[key] = val
    return out


def _chaos_grid(ch: dict) -> WhiteNoiseGrid:
    return WhiteNoiseGrid(ch["time_cells"], ch["dx"], ch["cutoff"])


def validate(cfg: dict) -> dict:
    """Check and normalise every field, so a bad value fails before any work."""
    for section, fields in FIELDS.items():
        for name, (_, check) in fields.items():
            cfg[section][name] = check(cfg[section][name], f"{section}.{name}")
    # the grid rules, each stated once in chaos
    try:
        # kernels_check extrapolates the chain norms from a grid ladder whose
        # coarsest grid must time-order chains of length max_order
        NORM_LADDER[0].check_order(cfg["harness"]["max_order"])
    except GridResolutionError as exc:
        raise ConfigError(f"harness.max_order: {exc} on the chain-norm ladder's coarsest "
                          f"grid ({NORM_LADDER[0].time_cells} time cells)") from exc
    ch = cfg["chaos"]
    try:
        _chaos_grid(ch).check_order(ch["order"])
    except GridError as exc:
        fields = ", ".join(f"chaos.{name}" for name in exc.fields)
        raise ConfigError(f"{fields}: {exc}") from exc
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
    for name in ("seed", "out", "replicas", "workers", "raw"):
        if getattr(args, name) is not None:
            cfg["run"][name] = getattr(args, name)
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
    ch, k = cfg["chaos"], cfg["walks"]["k"]
    rep = estimate_Z_moments(harness.sqrt_amplitude(f, 2.0), _chaos_grid(ch), ch["order"], k,
                             ch["replicas"], cfg["run"]["seed"] + 99)
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
        return harness.kernels_check(hz["max_order"], walks["n_ladder"])
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
    parser.add_argument("--raw", action="store_true", default=None,
                        help="write per-replicate CSVs")
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

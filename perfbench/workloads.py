"""The benchmark's workloads: which collisim calls one pass makes, at which sizes.

One workload per side of the paper's three-way link, each doing almost no
work in the other two sides' layers:

* ``polymer``: the O(N^2) transfer recursion for z_N (``partition`` on a
  ladder up to N=4096, plus the hashed-field library path).
* ``walks``: k-walk sampling and occupancy counting (``collisions``,
  ``convergence`` at k=3 and k=4, ``tightness``, ``expmoment``).
* ``limit``: white-noise chaos propagation, kernel sampling and
  U-statistics (``chaos``, ``kernels-check``, ``ustat-check``).

An operation is one CLI subcommand or one library call. Building a
workload (``build``) writes and validates every config and makes every
library input; that is the set-up the benchmark times.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# Replica counts only set the run length; sizes the issue fixed (ladders,
# grids, orders) are the CLI defaults or named below. "tiny" is for the
# smoke test and exercises the same calls.
SIZES = {
    "full": {
        "polymer": {
            # env_budget = 96 * 4096: the top rung runs the 96-replica floor
            # and does about 3/4 of the cells
            "ladder": [256, 1024, 4096], "env_replicas": 2000, "env_budget": 393_216,
            "hashed_horizon": 1024, "batch": 64, "chaos_fields": 4, "max_order": 8,
        },
        "walks": {
            "collisions_horizon": 1024, "collisions_replicas": 4000,
            "ladder": [64, 256, 1024], "k3_replicas": 20_000, "k4_replicas": 1500,
            "tightness_replicas": 10_000,
            "exp_ladder": [1024, 4096, 16384], "exp_replicas": 8000,
        },
        "limit": {
            "chaos": {"replicas": 250},
            "kernels": {},
            "ustat_horizon": 16, "ustat_replicas": 1000,
        },
    },
    "tiny": {
        "polymer": {
            "ladder": [16, 64], "env_replicas": 200, "env_budget": 2000,
            "hashed_horizon": 64, "batch": 8, "chaos_fields": 2, "max_order": 8,
        },
        "walks": {
            "collisions_horizon": 64, "collisions_replicas": 100,
            "ladder": [16, 32, 64], "k3_replicas": 200, "k4_replicas": 50,
            "tightness_replicas": 200,
            "exp_ladder": [64, 128, 256], "exp_replicas": 200,
        },
        "limit": {
            "chaos": {"replicas": 8, "time_cells": 8},
            "kernels": {"harness": {"max_order": 2, "norm_samples": 20_000,
                                    "clt_budget": 10_000},
                        "walks": {"n_ladder": [16, 64]}},
            "ustat_horizon": 4, "ustat_replicas": 1000,
        },
    },
}

WORKLOADS = ("polymer", "walks", "limit")

# Verdicts that fail at the seed code; they are reported, not gated.
KNOWN_VERDICT_FAILURES = {
    "ustat-check/variance-bound":
        "order-2 variance above its bound at N=16 (7091 vs 6433*1.05 seen at "
        "1000 replicas); a defect for a later issue",
    "convergence.k4/measures-merge":
        "KS(Pi, Pi') above the ladder drift at k=4 (0.104 vs 0.079 seen); "
        "a defect for a later issue",
}

# ustat-check runs at N=16 because at the CLI default N=64
# block_average_cells materialises about 600k tuples x 256 quadrature
# points and the process is OOM-killed on a 7 GB machine (a defect).


class OpFailure(Exception):
    """An operation broke an exact check, returned non-finite values or
    wrote no report."""


@dataclass
class OpOutcome:
    digest: str
    verdicts: list = field(default_factory=list)  # (name, passed)


@dataclass
class Op:
    label: str
    run: object  # callable(state: dict) -> OpOutcome
    is_cli: bool = False


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reject_constant(token):
    raise OpFailure(f"non-finite value {token} in report")


def _require_finite(values, what: str):
    import numpy as np

    if not np.all(np.isfinite(values)):
        raise OpFailure(f"non-finite value in {what}")


def _cli_op(label: str, command: str, config: dict, extra: list, seed: int,
            out_root: Path, exact_verdicts=()) -> Op:
    """Write and validate the config now; the op runs ``collisim <command>``
    in-process and checks its report."""
    from collisim import cli

    op_dir = out_root / label
    op_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = op_dir / "config.json"
    cfg_path.write_text(json.dumps(config, sort_keys=True))
    report_dir = op_dir / "out"
    argv = [command, "--config", str(cfg_path), "--seed", str(seed),
            "--out", str(report_dir), *extra]
    cli.load_config(cli.build_parser().parse_args(argv))

    def run(state):
        import contextlib
        import io

        shutil.rmtree(report_dir, ignore_errors=True)
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            cli.main(argv)
        report = report_dir / "report.json"
        if not report.is_file():
            raise OpFailure(f"{command} wrote no report:\n{log.getvalue()}")
        raw = report.read_bytes()
        doc = json.loads(raw, parse_constant=_reject_constant)
        verdicts = [(v["name"], bool(v["passed"])) for v in doc["verdicts"]]
        for name, passed in verdicts:
            if name in exact_verdicts and not passed:
                raise OpFailure(f"exact check {name} broken")
        return OpOutcome(_sha(raw), verdicts)

    return Op(label, run, is_cli=True)


def _polymer(sz, seed, out_root):
    import numpy as np
    from collisim import polymer
    from collisim.collisions import gaussian_bump
    from collisim.environment import ContinuumAmplitude, EnvironmentField, disorder_from_function

    cfg = {"walks": {"k": 2, "n_ladder": sz["ladder"]},
           "run": {"env_replicas": sz["env_replicas"]},
           "harness": {"env_budget": sz["env_budget"]}}
    ops = [_cli_op("partition", "partition", cfg, [], seed, out_root)]

    # the amplitude partition uses at one rung: A_N = N^(-1/4) sqrt(f(n/N, z/sqrt N)).
    # Library calls go through the module attribute, the name a caller looks
    # up, so that a traced run sees them.
    horizon = sz["hashed_horizon"]
    f = gaussian_bump(0.5, 1.0)
    sqrt_f = ContinuumAmplitude(lambda t, x: np.sqrt(f(t, x)), math.sqrt(f.bound))
    amp = polymer.scaled_disorder(disorder_from_function(sqrt_f, horizon), horizon ** (-0.25))
    field_seeds = np.random.Generator(np.random.PCG64(seed)).integers(
        0, 2**62, size=sz["batch"], dtype=np.int64)

    def run_many(state):
        values = polymer.partition_many(horizon, amp, field_seeds)
        _require_finite(values, "partition_many")
        state["batch"] = values
        return OpOutcome(_sha(values.tobytes()))

    ops.append(Op("partition_many", run_many))

    def dp_check(i):
        def run(state):
            value = polymer.partition_dp(horizon, amp, EnvironmentField(int(field_seeds[i]))).value
            batch = state.get("batch")
            if batch is None:
                raise OpFailure("no partition_many batch to compare against")
            if np.float64(value).tobytes() != batch[i].tobytes():
                raise OpFailure(f"partition_dp {value!r} != partition_many {batch[i]!r} "
                                f"for field seed {int(field_seeds[i])}")
            return OpOutcome(_sha(np.float64(value).tobytes()))
        return run

    ops += [Op(f"partition_dp.{i}", dp_check(i)) for i in range(2)]

    def terms(i):
        def run(state):
            t = polymer.chaos_terms(horizon, 1.0, amp, EnvironmentField(int(field_seeds[i])),
                                    max_order=sz["max_order"])
            _require_finite(t, "chaos_terms")
            return OpOutcome(_sha(t.tobytes()))
        return run

    ops += [Op(f"chaos_terms.{i}", terms(i)) for i in range(sz["chaos_fields"])]
    return ops


def _walks(sz, seed, out_root):
    ladder = {"n_ladder": sz["ladder"]}
    specs = [
        ("collisions", "collisions", {"k": 2, "n_ladder": [sz["collisions_horizon"]]},
         sz["collisions_replicas"], ("mass-identity",)),
        ("convergence.k3", "convergence", {"k": 3, **ladder}, sz["k3_replicas"], ()),
        ("convergence.k4", "convergence", {"k": 4, **ladder}, sz["k4_replicas"], ()),
        ("tightness", "tightness", {"k": 3, **ladder}, sz["tightness_replicas"], ()),
        ("expmoment", "expmoment", {"n_ladder": sz["exp_ladder"]}, sz["exp_replicas"], ()),
    ]
    return [_cli_op(label, command, {"walks": walks}, ["--replicas", str(reps)],
                    seed, out_root, exact)
            for label, command, walks, reps, exact in specs]


def _limit(sz, seed, out_root):
    return [
        _cli_op("chaos", "chaos", {"chaos": sz["chaos"]}, [], seed, out_root),
        _cli_op("kernels-check", "kernels-check", sz["kernels"], [], seed, out_root),
        _cli_op("ustat-check", "ustat-check", {"walks": {"n_ladder": [sz["ustat_horizon"]]}},
                ["--replicas", str(sz["ustat_replicas"])], seed, out_root),
    ]


_BUILDERS = {"polymer": _polymer, "walks": _walks, "limit": _limit}


def build(workload: str, seed: int, size: str, out_root: Path) -> list:
    """Import collisim, write and validate every config, build every input."""
    # every module the tracer may patch, imported up front so set-up owns the cost
    import collisim.chaos, collisim.harness, collisim.kernels, collisim.ustat  # noqa: E401,F401

    out_root.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](SIZES[size][workload], seed, out_root)

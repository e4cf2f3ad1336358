#!/usr/bin/env python3
"""collisim benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

Builds the workload's inputs from --seed, times set-up in fresh child
processes, then repeats whole passes of the workload (every operation
once) until --seconds have passed, at least once. With --trace 0 it
reports the end-to-end metrics; with --trace 1 untraced and traced
passes alternate and it reports the per-layer metrics. Every operation
is checked (see workloads.py); the last stdout line is the JSON result,
earlier lines give each metric with its unit, each report's sha256 and
a machine block.
Exit status: 0 on a correct run, 1 when a check failed, 2 when the
workload could not be set up (no result is printed then).
"""

from __future__ import annotations

import os

# one single-threaded process: pin the BLAS pools before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = {"full": 5, "tiny": 2}
PROBE_TIMEOUT_S = 120


class SetupError(Exception):
    """The workload cannot be built here; no result is printed."""


def import_collisim():
    """Import collisim from this checkout's src/, never from elsewhere."""
    if not (SRC / "collisim" / "__init__.py").is_file():
        raise SetupError(f"no collisim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import collisim

    if Path(collisim.__file__).resolve().parent != (SRC / "collisim").resolve():
        raise SetupError(f"collisim imported from {collisim.__file__}, not {SRC}")


class SetupProbe:
    """Times set-up in fresh interpreters: seconds from spawning one until
    it has imported collisim, validated the configs and built the inputs.

    Probes are spread over the run (one before the first pass, one after
    each pass, more at the end up to the minimum) so that the reported
    median does not hinge on one short window of a shared machine.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--size", args.size,
                     "--setup-probe", str(OUT / f"{args.workload}-probe")]
        self.times = []

    def __call__(self):
        t0 = time.perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise SetupError("set-up probe timed out")
        if proc.returncode != 0 or line != "ready":
            raise SetupError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        self.times.append(elapsed)


class Runner:
    """Runs whole passes over a workload's operations and keeps the checks."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.op_times = {op.label: [] for op in ops}
        self.verdicts_evaluated = 0
        self.verdicts_failed = 0
        self.failing_verdicts = set()

    def one_pass(self, tracer: Tracer | None = None) -> float:
        state = {}
        start = time.perf_counter()
        for op in self.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is not None and op.is_cli:
                    with tracer.span(f"cli.{op.label}"):
                        outcome = op.run(state)
                else:
                    outcome = op.run(state)
            except Exception:  # an operation that raised counts as failed; keep going
                self.failed += 1
                self.failures.append(f"{op.label}: {traceback.format_exc()}")
                continue
            finally:
                self.op_times[op.label].append(time.perf_counter() - t0)
            first = self.digests.setdefault(op.label, outcome.digest)
            if outcome.digest != first:
                self.failed += 1
                self.failures.append(f"{op.label}: output changed between passes at one seed")
            for name, passed in outcome.verdicts:
                self.verdicts_evaluated += 1
                if not passed:
                    self.verdicts_failed += 1
                    self.failing_verdicts.add(f"{op.label}/{name}")
        return time.perf_counter() - start


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def machine_block(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "caches": _cache_sizes(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' runs the same calls at toy sizes (smoke test)")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(args, runner: Runner, probe: SetupProbe):
    """Whole passes until --seconds have passed (at least one), a set-up
    probe after each. Returns (untraced walls, traced walls, tracer)."""
    deadline = time.perf_counter() + args.seconds
    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    while not untraced or time.perf_counter() < deadline:
        untraced.append(runner.one_pass())
        probe()
        if tracer is not None:
            # traced passes alternate with untraced ones, so both see the same machine
            tracer.install()
            try:
                traced.append(runner.one_pass(tracer))
            finally:
                tracer.uninstall()
            probe()
    while len(probe.times) < SETUP_PROBES[args.size]:
        probe()
    return untraced, traced, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_collisim()
        if args.setup_probe:
            workloads.build(args.workload, args.seed, args.size, Path(args.setup_probe))
            print("ready", flush=True)
            return 0
        probe = SetupProbe(args)
        probe()
        run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(run_dir, ignore_errors=True)
        runner = Runner(workloads.build(args.workload, args.seed, args.size, run_dir / "ops"))
        walls, traced, tracer = measure(args, runner, probe)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        values = metrics.per_layer(metrics.TracedRun(
            tracer, traced, walls, runner.attempted, runner.failed,
            runner.verdicts_evaluated, runner.verdicts_failed))
    else:
        e2e = {
            "setup_s": statistics.median(probe.times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values = {name: {"value": e2e[name], "unit": unit}
                  for name, unit, _ in metrics.END_TO_END}

    correct = runner.failed == 0
    machine = machine_block(args.seed)
    verdict_fail_frac = (runner.verdicts_failed / runner.verdicts_evaluated
                         if runner.verdicts_evaluated else 0.0)
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} untraced pass(es), walls {[round(w, 4) for w in walls]} s, "
          f"set-up samples {[round(t, 4) for t in probe.times]} s")
    for op in runner.ops:
        times = runner.op_times[op.label]
        print(f"op {op.label} median_s {statistics.median(times):.4f} runs {len(times)} "
              f"sha256 {runner.digests.get(op.label, 'missing')}")
    for name in sorted(runner.failing_verdicts):
        known = workloads.KNOWN_VERDICT_FAILURES.get(name)
        print(f"verdict FAIL {name}" + (f" (known baseline failure: {known})" if known
                                        else " (not a known baseline failure)"))
    print(f"gate attempted {runner.attempted} failed {runner.failed} "
          f"failed_frac {runner.failed / runner.attempted:.6f} frac, "
          f"verdict_fail_frac {verdict_fail_frac:.6f} frac "
          f"({runner.verdicts_failed}/{runner.verdicts_evaluated} verdicts)")
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in values.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")

    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": values}
    (run_dir / "result.json").write_text(json.dumps({
        **result, "machine": machine, "workload": args.workload, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "untraced_walls": walls,
        "setup_samples": probe.times, "digests": runner.digests,
        "op_times": runner.op_times, "failing_verdicts": sorted(runner.failing_verdicts),
        "verdict_fail_frac": verdict_fail_frac, "failures": runner.failures,
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

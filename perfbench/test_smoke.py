"""Smoke test for the benchmark: every workload at toy size, through run.py.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that BENCHMARK.json and metrics.py name the same metrics, that a run
emits every one of them, and that same-seed runs agree on report digests,
operation counts and the verdict failure fraction.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

SEED = 5
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.01", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    detail = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}"
                         / "result.json").read_text())
    return result, detail


def _declared(section):
    return {m["name"]: (m["unit"], m["better"]) for m in BENCH[section]}


def test_benchmark_json_matches_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == {n: (u, b) for n, u, b in metrics.END_TO_END}
    assert _declared("per_layer") == {n: (u, b) for n, u, b, _ in metrics.PER_LAYER}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric_and_repeats(workload):
    plain, plain_detail = _run(workload, 0)
    units = {name: unit for name, (unit, _) in _declared("end_to_end").items()}
    assert {n: m["unit"] for n, m in plain["metrics"].items()} == units

    traced = [_run(workload, 1) for _ in range(2)]
    units = {name: unit for name, (unit, _) in _declared("per_layer").items()}
    for result, detail in traced:
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        # tracing changes no output, and every op produced one
        assert detail["digests"] == plain_detail["digests"]
        assert len(detail["digests"]) == len(detail["op_times"])

    (first, first_detail), (second, second_detail) = traced
    assert first["attempted"] == second["attempted"]
    assert first_detail["verdict_fail_frac"] == second_detail["verdict_fail_frac"]
    counts = [name for name, unit, _, _ in metrics.PER_LAYER if unit == "count"]
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})

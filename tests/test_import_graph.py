"""Which modules a fresh interpreter loads: importing collisim, and running
every subcommand that evaluates no special function, needs numpy alone.

scipy.special is imported inside the kernels that call gammaln or ndtr, so
only the commands that reach them (chaos, kernels-check, and duality with
its chaos target) pay for it. The test process itself already holds scipy,
so each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"

_TINY = {"walks": {"n_ladder": [4, 16]}, "run": {"replicas": 2100, "env_replicas": 600},
         "harness": {"max_order": 2, "norm_samples": 20000, "clt_budget": 10000},
         "chaos": {"time_cells": 16, "replicas": 50}}

_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
code = None
if argv:
    from collisim import cli
    code = cli.main(argv)
else:
    import collisim, collisim.cli, collisim.chaos, collisim.harness, collisim.kernels
    import collisim.ustat, collisim.polymer, collisim.walks
print(json.dumps({"code": code,
                  "loaded": [m for m in ("scipy", "concurrent.futures") if m in sys.modules]}))
"""


def _fresh(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_command(command, tmp_path, harness=None):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({**_TINY, "harness": {**_TINY["harness"], **(harness or {})}}))
    out = tmp_path / "out"
    result = _fresh([command, "--config", str(cfg), "--seed", "1", "--out", str(out)], tmp_path)
    # a verdict may fail (exit 1) at this size; the command must still finish
    assert result["code"] in (0, 1)
    assert (out / "report.json").is_file()
    return result["loaded"]


def test_import_loads_neither_scipy_nor_thread_pool(tmp_path):
    assert _fresh([], tmp_path)["loaded"] == []


@pytest.mark.parametrize("command", ["partition", "collisions", "convergence", "tightness",
                                     "expmoment", "ustat-check", "duality"])
def test_command_runs_without_scipy(command, tmp_path):
    # at one worker no thread pool is started either
    assert _run_command(command, tmp_path) == []


@pytest.mark.parametrize("command, harness", [("chaos", None), ("kernels-check", None),
                                              ("duality", {"with_chaos_target": True})],
                         ids=["chaos", "kernels-check", "duality-chaos-target"])
def test_special_function_commands_load_scipy(command, harness, tmp_path):
    assert "scipy" in _run_command(command, tmp_path, harness)

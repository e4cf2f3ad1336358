import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from collisim import cli
from collisim.chaos import WhiteNoiseGrid, estimate_Z_moments, extrapolated_chain_norms
from collisim.environment import ContinuumAmplitude


def run_cli(args):
    return cli.main(args)


def write_cfg(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_requires_seed(tmp_path, capsys):
    code = run_cli(["expmoment", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "run.seed" in capsys.readouterr().err


def test_unknown_field_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"walks": {"n_ladders": [4, 8]}})
    code = run_cli(["expmoment", "--config", cfg, "--seed", "1"])
    assert code == 2
    assert "walks.n_ladders" in capsys.readouterr().err


def test_bad_ladder_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"walks": {"n_ladder": [64, 8]}})
    code = run_cli(["expmoment", "--config", cfg, "--seed", "1"])
    assert code == 2
    assert "walks.n_ladder" in capsys.readouterr().err


def test_empty_m_ladder_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"walks": {"m_ladder": []}})
    code = run_cli(["tightness", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "t")])
    assert code == 2
    assert "walks.m_ladder" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["abc", 0, -5, 1.5, True])
def test_bad_env_budget_named(tmp_path, capsys, budget):
    cfg = write_cfg(tmp_path, {"harness": {"env_budget": budget}})
    code = run_cli(["partition", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "p")])
    assert code == 2
    assert "harness.env_budget" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("command, doc, field", [
    ("expmoment", {"run": {"replicas": "abc"}}, "run.replicas"),
    ("collisions", {"run": {"replicas": 1.5}}, "run.replicas"),
    ("partition", {"run": {"env_replicas": "abc"}}, "run.env_replicas"),
    ("expmoment", {"run": {"workers": "abc"}}, "run.workers"),
    ("expmoment", {"run": {"workers": math.inf}}, "run.workers"),
    ("collisions", {"walks": {"k": "x"}}, "walks.k"),
    ("expmoment", {"walks": {"n_ladder": [8, "x"]}}, "walks.n_ladder"),
    ("expmoment", {"walks": {"n_ladder": [8, 16.5]}}, "walks.n_ladder"),
    ("tightness", {"walks": {"m_ladder": [2, "x"]}}, "walks.m_ladder"),
    ("kernels-check", {"harness": {"clt_budget": 5000}}, "harness.clt_budget"),
    ("kernels-check", {"harness": {"max_order": 0}}, "harness.max_order"),
    ("kernels-check", {"harness": {"norm_samples": 1}}, "harness.norm_samples"),
    ("chaos", {"chaos": {"replicas": 1}}, "chaos.replicas"),
    ("collisions", {"harness": {"sigma": math.nan}}, "harness.sigma"),
    ("duality", {"harness": {"alpha": math.inf}}, "harness.alpha"),
    ("expmoment", {"harness": {"thresholds": 5}}, "harness.thresholds"),
    ("chaos", {"chaos": {"cutoff": 0.01}}, "chaos.cutoff"),
    # the string "false" is truthy: only JSON booleans switch these
    ("duality", {"harness": {"with_chaos_target": "false"}}, "harness.with_chaos_target"),
    ("expmoment", {"run": {"raw": "false"}}, "run.raw"),
    ("ustat-check", {"run": {"out": 5}}, "run.out"),
    ("expmoment", {"run": {"out": ""}}, "run.out"),
    ("expmoment", {"run": {"seed": -1}}, "run.seed"),
    ("expmoment", {"run": {"seed": 2**64}}, "run.seed"),
    ("expmoment", {"run": {"seed": True}}, "run.seed"),
    ("kernels-check", {"harness": {"max_order": 100}}, "harness.max_order"),
    # verdict tolerances are fixed in collisim.harness, not configurable
    ("partition", {"harness": {"thresholds": {"plateau_sigma": 100.0}}}, "harness.thresholds"),
    # finite parameters whose exponentials overflow at the largest rung
    ("duality", {"harness": {"alpha": 1e4}, "walks": {"k": 2, "n_ladder": [64, 256]}},
     "harness.alpha"),
    ("expmoment", {"harness": {"beta": 1000}, "walks": {"n_ladder": [64, 256]}}, "harness.beta"),
    # a config section set to a non-object
    ("expmoment", {"walks": 5}, "walks: must be an object"),
    # each sample is finite, but the squares in the stderr of 10,000 of them overflow
    ("expmoment", {"harness": {"beta": 88}, "walks": {"n_ladder": [64, 256]}}, "harness.beta"),
    # the moment suite needs 1000 fields; a shorter run is rejected, not lengthened
    ("ustat-check", {"run": {"replicas": 999}}, "run.replicas"),
    # the chain-norm ladder's coarsest grid (T=32) time-orders chains of length <= 31
    ("kernels-check", {"harness": {"max_order": 32}}, "harness.max_order"),
    # values of the wrong shape: a ladder that is not a list, a file that is not an object
    ("expmoment", {"walks": {"n_ladder": 64}}, "walks.n_ladder"),
    ("tightness", {"walks": {"m_ladder": None}}, "walks.m_ladder"),
    ("expmoment", [{"run": {"seed": 1}}], "config"),
    # an integer beyond float range
    ("collisions", {"walks": {"k": 10**400}}, "walks.k"),
])
def test_bad_config_value_named(tmp_path, capsys, command, doc, field):
    cfg = write_cfg(tmp_path, doc)
    # flags win over the file, so they are left out for the fields under test
    run = doc.get("run", {}) if isinstance(doc, dict) else {}
    argv = [command, "--config", cfg]
    argv += [] if "seed" in run else ["--seed", "1"]
    argv += [] if "out" in run else ["--out", str(tmp_path / "o")]
    code = run_cli(argv)
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("leaf", [f"{name}.{field}" for name, section in cli.DEFAULT_CONFIG.items()
                                  for field in section])
def test_every_config_field_validated(tmp_path, capsys, leaf):
    # an object fits no leaf field, so each one must be rejected by name
    section, field = leaf.split(".")
    cfg = write_cfg(tmp_path, {section: {field: {}}})
    argv = ["expmoment", "--config", cfg]
    argv += [] if leaf == "run.seed" else ["--seed", "1"]
    argv += [] if leaf == "run.out" else ["--out", str(tmp_path / "o")]
    assert run_cli(argv) == 2
    assert leaf in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _boolean_cases():
    """Every numeric leaf of DEFAULT_CONFIG set to true and to false; a ladder
    gets each of its entries set to true and to false in turn."""
    cases = []
    for section, fields in cli.DEFAULT_CONFIG.items():
        for field, default in fields.items():
            leaf = f"{section}.{field}"
            if isinstance(default, list):
                cases += [pytest.param(leaf, default[:i] + [flag] + default[i + 1:], flag,
                                       id=f"{leaf}[{i}]={flag}")
                          for i in range(len(default)) for flag in (True, False)]
            elif default is None or type(default) in (int, float):  # run.seed defaults to None
                cases += [pytest.param(leaf, flag, flag, id=f"{leaf}={flag}")
                          for flag in (True, False)]
    return cases


@pytest.mark.parametrize("leaf, value, flag", _boolean_cases())
def test_boolean_is_not_a_number(tmp_path, capsys, leaf, value, flag):
    # float(True) is 1.0, but a JSON boolean is rejected wherever a number
    # goes, and for being a boolean: not for breaking a rule as 1 or 0
    section, field = leaf.split(".")
    cfg = write_cfg(tmp_path, {section: {field: value}})
    argv = ["expmoment", "--config", cfg, "--out", str(tmp_path / "o")]
    argv += [] if leaf == "run.seed" else ["--seed", "1"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert leaf in err and f"got {flag!r}" in err
    assert not (tmp_path / "o").exists()


def _accepts(doc: dict) -> bool:
    try:
        cli.validate(cli._merge(cli.DEFAULT_CONFIG, {"run": {"seed": 1}, **doc}))
    except cli.ConfigError:
        return False
    return True


def _runs(call) -> bool:
    try:
        call()
    except ValueError:  # the grid errors and a negative order
        return False
    return True


@pytest.mark.parametrize("dx", [-0.25, 0.25, 0.3, 0.5])
def test_validate_accepts_exactly_the_grids_the_sampler_runs(dx):
    # 2 cutoff / dx rounds to 0 space cells at cutoff 0.06 and dx 0.25, to 1 at 0.1;
    # dx <= sqrt(dt) holds up to T=16 at dx 0.25, T=11 at 0.3 and T=4 at 0.5
    amp = ContinuumAmplitude(lambda t, x: np.full(np.broadcast(t, x).shape, 0.7), 0.7)
    for cutoff in (0.06, 0.1, 1.0):
        for time_cells in range(1, 13):
            for order in range(13):
                chaos = {"time_cells": time_cells, "dx": dx, "cutoff": cutoff, "order": order,
                         "replicas": 2}
                sampled = _runs(lambda: estimate_Z_moments(
                    amp, WhiteNoiseGrid(time_cells, dx, cutoff), order, 2, 2, 1))
                assert _accepts({"chaos": chaos}) == sampled, (time_cells, dx, cutoff, order)


def test_validate_accepts_exactly_the_max_orders_the_chain_norms_take():
    for max_order in (0, 1, 2, 31, 32, 33, 64):
        taken = _runs(lambda: extrapolated_chain_norms(max_order))
        assert _accepts({"harness": {"max_order": max_order}}) == taken, max_order


def test_null_env_budget_accepted():
    cfg = cli._merge(cli.DEFAULT_CONFIG, {"run": {"seed": 1}, "harness": {"env_budget": None}})
    assert cli.validate(cfg)["harness"]["env_budget"] is None


def test_integral_float_env_budget_accepted():
    # the same integer rule as every other count: 2e6 is 2,000,000
    cfg = cli._merge(cli.DEFAULT_CONFIG, {"run": {"seed": 1}, "harness": {"env_budget": 2e6}})
    budget = cli.validate(cfg)["harness"]["env_budget"]
    assert budget == 2_000_000 and isinstance(budget, int)


def test_max_order_edge_accepted():
    # the largest order the chain-norm ladder's coarsest grid can time-order
    cfg = cli._merge(cli.DEFAULT_CONFIG, {"run": {"seed": 1}, "harness": {"max_order": 31}})
    assert cli.validate(cfg)["harness"]["max_order"] == 31


def test_kernels_check_report_leaves_norm_samples_out(tmp_path):
    report = json.loads(_tiny_report(tmp_path, "kernels-check", "kc"))
    assert set(report["config"]) == {"max_order", "clt_ladder"}
    assert set(report["tables"]["norms"][0]) == {"n", "closed_form", "extrapolated",
                                                 "stated_error", "rel_err"}
    assert set(report["tables"]["clt"][0]) == {"N", "distance", "d2", "band_tail_bound"}
    assert [v["name"] for v in report["verdicts"]] == ["norms-match", "clt-rate"]


def test_kernels_check_draws_no_sample(tmp_path):
    # at the defaults, the tables and verdicts are the same for every seed
    docs = []
    for seed in (1, 2, 3):
        out = tmp_path / f"kc{seed}"
        assert run_cli(["kernels-check", "--seed", str(seed), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        docs.append((report["tables"], report["verdicts"]))
    assert docs[0] == docs[1] == docs[2]


@pytest.mark.parametrize("command, field, scale", [
    ("expmoment", "beta", 128 / 16),  # (N // 2)/sqrt N at N = 256
    ("duality", "alpha", 3 * 16),     # binom(3, 2) sqrt N at N = 256
])
def test_exponent_bound_edges(command, field, scale):
    limit = (math.log(sys.float_info.max) - math.log(10_000)) / 2 / scale
    for value, ok in ((limit * 0.999, True), (limit * 1.001, False)):
        cfg = cli.validate(cli._merge(cli.DEFAULT_CONFIG, {
            "run": {"seed": 1}, "walks": {"n_ladder": [64, 256]}, "harness": {field: value}}))
        if ok:
            cli.check_exponents(command, cfg)
        else:
            with pytest.raises(cli.ConfigError, match=f"harness.{field}"):
                cli.check_exponents(command, cfg)


def test_coarse_chaos_grid_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"chaos": {"time_cells": 4, "dx": 0.25, "order": 4}})
    code = run_cli(["chaos", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "c")])
    assert code == 2
    assert "chaos.time_cells" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("seed", ["-1", "0x10000000000000000"])
def test_seed_flag_outside_u64_rejected(tmp_path, capsys, seed):
    with pytest.raises(SystemExit) as exc:
        run_cli(["expmoment", f"--seed={seed}", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_hex_seed_accepted(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, {"walks": {"n_ladder": [8, 16]}, "run": {"replicas": 200}})
    code = run_cli(["expmoment", "--config", cfg, "--seed", "0xBEEF", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0xBEEF
    assert manifest["hash_function"] == "splitmix64/v2"
    # the run's peak RSS so far, in MB; the in-process run never exceeds
    # this process's peak, and the report stays free of it
    assert 0.0 < manifest["peak_rss_mb"] <= cli.peak_rss_mb()
    assert manifest["peak_rss_mb"] > 10.0
    assert "peak_rss_mb" not in (out / "report.json").read_text()


def test_duality_zero_function_all_ones(tmp_path):
    out = tmp_path / "dual"
    cfg = write_cfg(tmp_path, {
        "walks": {"k": 2, "n_ladder": [8, 16]},
        "run": {"replicas": 200, "env_replicas": 200},
        "harness": {"alpha": 0.0},
    })
    code = run_cli(["duality", "--config", cfg, "--seed", "5", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for row in report["tables"]["ladder"]:
        assert row["exp_pi"]["mean"] == 1.0
        assert row["prod_x"]["mean"] == 1.0
        assert row["z_to_k"]["mean"] == 1.0
    assert report["passed"] is True


def test_partition_one_step_formula(tmp_path):
    out = tmp_path / "part"
    cfg = write_cfg(tmp_path, {
        "walks": {"k": 2, "n_ladder": [1]},
        "run": {"replicas": 100, "env_replicas": 500},
    })
    code = run_cli(["partition", "--config", cfg, "--seed", "9", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    row = report["tables"]["ladder"][0]
    # at N=1 the partition value is 1 + (A w(1,1) + A w(1,-1))/2 with
    # A = sqrt(f(1, +-1)): mean over environments stays within the two-point
    # range and the row echoes N=1
    assert row["N"] == 1
    assert code in (0, 1)
    a = math.sqrt(0.5 * math.exp(-0.5))
    assert row["mean"]["mean"] <= 1 + a + 1e-9
    assert row["mean"]["mean"] >= 1 - a - 1e-9


# every subcommand in well under a second; 2100 replicates span several
# walk chunks (512 per chunk for k walks, 2048 for local times), and 600
# environments span three environment chunks (256 per chunk)
TINY = {
    "walks": {"n_ladder": [4, 16]},
    "run": {"replicas": 2100, "env_replicas": 600},
    "harness": {"max_order": 2, "norm_samples": 20_000, "clt_budget": 10_000},
    "chaos": {"time_cells": 16, "replicas": 50},
}


def _tiny_report(tmp_path, command, name, *flags):
    out = tmp_path / name
    code = run_cli([command, "--config", write_cfg(tmp_path, TINY), "--seed", "77",
                    "--out", str(out), *flags])
    assert code in (0, 1), command
    report = (out / "report.json").read_bytes()
    assert report, command
    return report


def test_rerun_byte_identical_report(tmp_path):
    for command in cli.COMMANDS:
        first = _tiny_report(tmp_path, command, f"{command}-a")
        assert _tiny_report(tmp_path, command, f"{command}-b") == first, command


@pytest.mark.parametrize("command",
                         ["collisions", "partition", "duality", "expmoment", "tightness",
                          "convergence"])
def test_report_independent_of_workers(tmp_path, command):
    one = _tiny_report(tmp_path, command, "w1", "--workers", "1")
    assert _tiny_report(tmp_path, command, "w2", "--workers", "2") == one


def test_raw_csv_emitted(tmp_path):
    out = tmp_path / "raw"
    cfg = write_cfg(tmp_path, {"walks": {"n_ladder": [8]}, "run": {"replicas": 50}})
    code = run_cli(["expmoment", "--config", cfg, "--seed", "3", "--out", str(out), "--raw"])
    assert code == 0
    files = list((out / "raw").glob("*.csv"))
    assert files, "raw CSVs expected"
    text = files[0].read_text().splitlines()
    assert text[0].startswith("# collisim=")
    assert "hash=splitmix64/v2" in text[0]
    assert len(text) == 2 + 50


def test_stdout_flag_prints_report(tmp_path, capsys):
    out = tmp_path / "s"
    cfg = write_cfg(tmp_path, {"walks": {"n_ladder": [8]}, "run": {"replicas": 50}})
    code = run_cli(["expmoment", "--config", cfg, "--seed", "3", "--out", str(out), "--stdout"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["command"] == "expmoment"


def test_flags_override_config(tmp_path):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, {"run": {"seed": 1, "replicas": 50},
                               "walks": {"n_ladder": [8]}})
    code = run_cli(["expmoment", "--config", cfg, "--seed", "2", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 2
    assert manifest["config"]["run"]["replicas"] == 50


def test_exit_status_reflects_verdicts(tmp_path):
    # a deliberately tiny ladder fails the expmoment plateau: nonzero exit
    out = tmp_path / "f"
    cfg = write_cfg(tmp_path, {"walks": {"n_ladder": [4, 1024]},
                               "run": {"replicas": 20000}})
    code = run_cli(["expmoment", "--config", cfg, "--seed", "13", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert code == (0 if report["passed"] else 1)
    assert code == 1


def test_duality_with_chaos_target(tmp_path):
    out = tmp_path / "dct"
    cfg = write_cfg(tmp_path, {
        "walks": {"k": 2, "n_ladder": [64, 256]},
        "run": {"replicas": 4000, "env_replicas": 1500},
        "harness": {"with_chaos_target": True},
        "chaos": {"time_cells": 32, "dx": 0.12, "order": 5, "replicas": 300},
    })
    code = run_cli(["duality", "--config", cfg, "--seed", "6", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    names = [v["name"] for v in report["verdicts"]]
    assert "chaos-target" in names
    target_verdict = [v for v in report["verdicts"] if v["name"] == "chaos-target"][0]
    assert target_verdict["passed"], target_verdict["detail"]
    # the short two-rung ladder cannot halve the asymptotic gap, so the
    # overall exit status only needs to reflect the verdict list faithfully
    assert code == (0 if report["passed"] else 1)


def test_chaos_target_negative_alpha_is_finite(tmp_path):
    # a negative f carries no disorder: sqrt(2 max(f, 0)) = 0, so Z = 1
    out = tmp_path / "neg"
    cfg = write_cfg(tmp_path, {
        "walks": {"k": 2, "n_ladder": [4, 16]},
        "run": {"replicas": 200, "env_replicas": 50},
        "harness": {"with_chaos_target": True, "alpha": -0.5},
        "chaos": {"time_cells": 16, "replicas": 50},
    })
    run_cli(["duality", "--config", cfg, "--seed", "6", "--out", str(out)])
    text = (out / "report.json").read_text()
    assert "nan" not in text
    detail = [v["detail"] for v in json.loads(text)["verdicts"]
              if v["name"] == "chaos-target"][0]
    assert "E[Z^k]=1.00000" in detail

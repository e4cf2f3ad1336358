import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from collisim import chaos as CH
from collisim import cli, harness, rngs, ustat
from collisim.chaos import WhiteNoiseGrid, estimate_Z_moments, extrapolated_chain_norms
from collisim.collisions import gaussian_bump
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


@pytest.mark.parametrize("budget", ["abc", 0, -5, 1.5, True, None])
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
    # the grid's cutoff is not a config field: every grid is cut at chaos.CUTOFF = 6
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
    # gammas whose E[Z^2] = exp(gamma^4/4) erfc(-gamma^2/2) leaves float range
    ("chaos", {"chaos": {"gamma": 7.3}}, "chaos.gamma"),
    ("chaos", {"chaos": {"gamma": -7.3}}, "chaos.gamma"),
    ("chaos", {"chaos": {"gamma": 1e200}}, "chaos.gamma"),
    # one environment makes every stderr 0, so mean-one would fail whatever the code does
    ("partition", {"walks": {"k": 2, "n_ladder": [64]}, "run": {"env_replicas": 1}},
     "run.env_replicas"),
    # one walk replica makes every stderr 0 where a verdict reads one
    ("expmoment", {"run": {"replicas": 1}}, "run.replicas"),
    ("duality", {"run": {"replicas": 1}}, "run.replicas"),
    ("convergence", {"run": {"replicas": 1}}, "run.replicas"),
    # an amplitude N^(-1/4) sqrt(alpha) above 1 makes some site factors negative
    ("partition", {"walks": {"n_ladder": [16, 64]}, "run": {"env_replicas": 200},
                   "harness": {"alpha": 1e4}}, "harness.alpha"),
    # a sigma whose square underflows to 0, so that f(t, 0) = 0/0
    ("partition", {"harness": {"sigma": 1e-300}, "walks": {"n_ladder": [4, 16]},
                   "run": {"env_replicas": 20}}, "harness.sigma"),
    # the budget is a number: a budget of env_replicas * max(n_ladder) caps nothing
    ("partition", {"harness": {"env_budget": None}}, "harness.env_budget"),
    # shape and unknown fields are checked before any value, even an earlier one
    ("collisions", {"walks": {"k": "x"}, "harness": {"thresholds": 5}}, "harness.thresholds"),
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


def test_partition_alpha_bound_is_the_smallest_rung_amplitude(tmp_path):
    # at alpha = sqrt(N_min) the largest amplitude N^(-1/4) sqrt(alpha) is 1
    def load(alpha):
        cfg = write_cfg(tmp_path, {"walks": {"n_ladder": [16, 64]}, "harness": {"alpha": alpha}})
        return cli.load_config(cli.build_parser().parse_args(["partition", "--config", cfg,
                                                              "--seed", "1"]))

    assert load(math.sqrt(16))["harness"]["alpha"] == 4.0
    with pytest.raises(cli.ConfigError, match="harness.alpha: .*need alpha <= 4,"):
        load(math.sqrt(16) * 1.001)


def test_sigma_bound_is_the_smallest_unflushed_square(tmp_path):
    def load(sigma):
        cfg = write_cfg(tmp_path, {"harness": {"sigma": sigma}})
        return cli.load_config(cli.build_parser().parse_args(["collisions", "--config", cfg,
                                                              "--seed", "1"]))

    assert cli.SIGMA_MIN ** 2 > 0.0
    assert math.nextafter(cli.SIGMA_MIN, 0.0) ** 2 == 0.0
    for sigma in (1.6e-162, 1e-160):
        assert load(sigma)["harness"]["sigma"] == sigma
    with pytest.raises(cli.ConfigError, match="harness.sigma: .* >= 1.5717277847026288e-162,"):
        load(1.5e-162)


@pytest.mark.parametrize("command", ["collisions", "tightness"])
def test_pathwise_commands_take_one_replica(tmp_path, command):
    # their verdicts hold replicate by replicate, so one replica is a valid run
    argv = [command, "--seed", "1", "--replicas", "1", "--out", str(tmp_path / "o")]
    assert cli.load_config(cli.build_parser().parse_args(argv))["run"]["replicas"] == 1


@pytest.mark.parametrize("leaf", [f"{name}.{field}" for name, section in cli.FIELDS.items()
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
    """Every numeric field of FIELDS set to true and to false; a ladder
    gets each of its entries set to true and to false in turn."""
    cases = []
    for section, fields in cli.FIELDS.items():
        for field, (default, _) in fields.items():
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
        cli.resolve({"run": {"seed": 1}, **doc})
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
    # dx <= sqrt(dt) holds up to T=16 at dx 0.25, T=11 at 0.3 and T=4 at 0.5
    amp = ContinuumAmplitude(lambda t, x: np.full(np.broadcast(t, x).shape, 0.7), 0.7)
    for time_cells in range(1, 13):
        for order in range(13):
            chaos = {"time_cells": time_cells, "dx": dx, "order": order, "replicas": 2}
            sampled = _runs(lambda: estimate_Z_moments(
                amp, WhiteNoiseGrid(time_cells, dx), order, 2, 2, 1))
            assert _accepts({"chaos": chaos}) == sampled, (time_cells, dx, order)


def test_validate_accepts_exactly_the_max_orders_the_chain_norms_take():
    for max_order in (0, 1, 2, 31, 32, 33, 64):
        taken = _runs(lambda: extrapolated_chain_norms(max_order))
        assert _accepts({"harness": {"max_order": max_order}}) == taken, max_order


def test_integral_float_env_budget_accepted():
    # the same integer rule as every other count: 2e6 is 2,000,000
    cfg = cli.resolve({"run": {"seed": 1}, "harness": {"env_budget": 2e6}})
    budget = cfg["harness"]["env_budget"]
    assert budget == 2_000_000 and isinstance(budget, int)


def test_max_order_edge_accepted():
    # the largest order the chain-norm ladder's coarsest grid can time-order
    cfg = cli.resolve({"run": {"seed": 1}, "harness": {"max_order": 31}})
    assert cfg["harness"]["max_order"] == 31


def test_resolve_leaves_the_document_as_it_is():
    doc = {"run": {"seed": "7"}, "walks": {"n_ladder": [4, 16.0]}}
    cfg = cli.resolve(doc)
    assert doc == {"run": {"seed": "7"}, "walks": {"n_ladder": [4, 16.0]}}
    assert cfg["run"]["seed"] == 7 and cfg["walks"]["n_ladder"] == [4, 16]
    assert cfg["harness"] == {name: default for name, (default, _) in cli.FIELDS["harness"].items()}


def test_unusable_out_fails_before_any_work(tmp_path, capsys, monkeypatch):
    # an out path under a regular file cannot be made: a config error, not a
    # traceback after the whole run
    afile = tmp_path / "afile"
    afile.write_text("")

    def no_run(*args):
        raise AssertionError("dispatch reached")

    monkeypatch.setattr(cli, "dispatch", no_run)
    assert run_cli(["expmoment", "--seed", "1", "--out", str(afile / "sub")]) == 2
    assert "run.out" in capsys.readouterr().err


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
        cfg = cli.resolve({
            "run": {"seed": 1}, "walks": {"n_ladder": [64, 256]}, "harness": {field: value}})
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


def test_chaos_report_names_the_default_cutoff(tmp_path):
    # the cutoff is no config field, and the report names the sampled grid's
    report = json.loads(_tiny_report(tmp_path, "chaos", "c"))
    assert report["config"]["cutoff"] == 6.0
    assert "cutoff" not in cli.FIELDS["chaos"]


def test_chaos_past_the_tail_peak_reports_a_finite_bound(tmp_path):
    # at gamma = 2.5 the dropped orders peak near n = 20, and s^(2n) leaves
    # float range from n = 388 on
    out = tmp_path / "c"
    cfg = write_cfg(tmp_path, {"chaos": {"gamma": 2.5, "time_cells": 16, "replicas": 20}})
    assert run_cli(["chaos", "--config", cfg, "--seed", "1", "--out", str(out)]) in (0, 1)
    tables = json.loads((out / "report.json").read_text())["tables"]
    assert math.isfinite(tables["truncation_bound"]) and tables["truncation_bound"] > 0


def test_chaos_at_order_zero_reports_unit_moments(tmp_path):
    # order 0 keeps term_0 = 1 alone: no order variances, so the grid's E[Z^2]
    # is 1, every sampled power is 1, and both verdicts pass
    out = tmp_path / "c"
    cfg = write_cfg(tmp_path, {"chaos": {"order": 0, "replicas": 10}})
    assert run_cli(["chaos", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tables"]["grid_second_moment"] == 1.0
    assert report["tables"]["moments"] == [1.0, 1.0]
    assert report["tables"]["stderrs"] == [0.0, 0.0]
    assert [v["passed"] for v in report["verdicts"]] == [True, True]


def test_chaos_target_at_large_alpha_runs(tmp_path):
    # the chaos target's amplitude sqrt(2 alpha) = 2.45 at alpha = 3
    out = tmp_path / "d"
    cfg = write_cfg(tmp_path, {
        "walks": {"k": 2, "n_ladder": [4, 16]},
        "run": {"replicas": 200, "env_replicas": 50},
        "harness": {"with_chaos_target": True, "alpha": 3.0},
        "chaos": {"time_cells": 16, "replicas": 20},
    })
    assert run_cli(["duality", "--config", cfg, "--seed", "1", "--out", str(out)]) in (0, 1)
    assert (out / "report.json").is_file()


def test_gamma_range_edge():
    # the largest accepted gamma has a finite closed-form E[Z^2]
    from collisim.chaos import second_moment_series

    for gamma, ok in ((7.29777, True), (7.29778, False)):
        doc = {"run": {"seed": 1}, "chaos": {"gamma": gamma}}
        if ok:
            cli.resolve(doc)
        else:
            with pytest.raises(cli.ConfigError, match="chaos.gamma"):
                cli.resolve(doc)
        assert math.isfinite(second_moment_series(gamma)) == ok


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
    assert manifest["stream_schema"] == rngs.STREAM_SCHEMA
    assert "stream_schema" not in (out / "report.json").read_text()
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


def test_duality_tables_hold_the_chaos_target(tmp_path):
    # the summary of the sampled E[Z^k] at amplitude sqrt(2 f), on the seed's chaos streams
    out = tmp_path / "d"
    cfg = write_cfg(tmp_path, {
        "walks": {"k": 2, "n_ladder": [4, 16]},
        "run": {"replicas": 200, "env_replicas": 50},
        "harness": {"with_chaos_target": True},
        "chaos": {"time_cells": 16, "replicas": 20},
    })
    assert run_cli(["duality", "--config", cfg, "--seed", "6", "--out", str(out)]) in (0, 1)
    entry = json.loads((out / "report.json").read_text())["tables"]["chaos_target"]
    powers, _ = estimate_Z_moments(harness.sqrt_amplitude(gaussian_bump(0.5, 1.0), 2.0),
                                   WhiteNoiseGrid(16, 0.0875), 6, 2, 20, 6)
    # in the n, mean, stderr, ci99 form of every other summary
    assert entry == harness._sum_dict(harness.summarize(powers[:, 1]))


def test_chaos_detail_stays_short_at_the_largest_gamma(tmp_path):
    # series and bias are near 1.7e308 here: printed in full they take 600 characters
    out = tmp_path / "c"
    cfg = write_cfg(tmp_path, {"chaos": {"gamma": 7.2977, "time_cells": 16, "replicas": 20}})
    assert run_cli(["chaos", "--config", cfg, "--seed", "1", "--out", str(out)]) in (0, 1)
    verdicts = json.loads((out / "report.json").read_text())["verdicts"]
    detail = [v["detail"] for v in verdicts if v["name"] == "second-moment"][0]
    assert "series" in detail and len(detail) < 200, detail


def _record_stream_keys(monkeypatch) -> list:
    """Collect the key (master_seed, *key) of every stream harness.substream,
    chaos.substream and ustat.substream derive."""
    keys = []

    def recorded(fn):
        def wrapper(*key):
            keys.append(tuple(int(k) for k in key))
            return fn(*key)
        return wrapper

    for module in (harness, CH, ustat):
        monkeypatch.setattr(module, "substream", recorded(module.substream))
    return keys


_PURPOSES = {rngs.WALKS, rngs.ENVIRONMENT, rngs.CHAOS, rngs.USTAT}
_EVERY_COMMAND = pytest.mark.parametrize(
    "command, harness_cfg",
    [(command, {}) for command in cli.COMMANDS] + [("duality", {"with_chaos_target": True})],
    ids=list(cli.COMMANDS) + ["duality-chaos-target"])


@_EVERY_COMMAND
def test_no_stream_key_repeats_within_a_run(tmp_path, monkeypatch, command, harness_cfg):
    keys = _record_stream_keys(monkeypatch)
    cfg = write_cfg(tmp_path, {**TINY, "harness": {**TINY["harness"], **harness_cfg}})
    key_sets = []
    for workers in (1, 2):
        keys.clear()
        assert run_cli([command, "--config", cfg, "--seed", "77", "--workers", str(workers),
                        "--out", str(tmp_path / f"w{workers}")]) in (0, 1)
        assert len(set(keys)) == len(keys), command
        key_sets.append(set(keys))
    assert key_sets[0] == key_sets[1]
    # kernels-check draws no sample; every other command does
    assert bool(key_sets[0]) == (command != "kernels-check")
    # every key is (seed, purpose, size, index), with the run's own seed;
    # a key of another length fails the unpacking
    for key in key_sets[0]:
        seed, purpose, size, index = key
        assert seed == 77 and purpose in _PURPOSES and size >= 1 and index >= 0, key


@_EVERY_COMMAND
def test_no_stream_key_is_shared_between_seeds(tmp_path, monkeypatch, command, harness_cfg):
    # a ladder keyed by seed + rung gave rung i + 1 of seed 77 the streams of
    # rung i of seed 78
    keys = _record_stream_keys(monkeypatch)
    cfg = write_cfg(tmp_path, {**TINY, "harness": {**TINY["harness"], **harness_cfg}})
    key_sets = []
    for seed in (77, 78):
        keys.clear()
        assert run_cli([command, "--config", cfg, "--seed", str(seed),
                        "--out", str(tmp_path / f"s{seed}")]) in (0, 1)
        key_sets.append(set(keys))
    assert not key_sets[0] & key_sets[1], command


def test_a_partition_rung_does_not_depend_on_its_ladder(tmp_path):
    # the N=256 rung draws the same fields whether it is first or last
    rows = []
    for ladder in ([64, 256], [256, 1024]):
        out = tmp_path / f"from{ladder[0]}"
        cfg = write_cfg(tmp_path, {"walks": {"k": 2, "n_ladder": ladder},
                                   "run": {"env_replicas": 100}})
        assert run_cli(["partition", "--config", cfg, "--seed", "5", "--out", str(out)]) in (0, 1)
        ladder_rows = json.loads((out / "report.json").read_text())["tables"]["ladder"]
        rows.append([row for row in ladder_rows if row["N"] == 256])
    assert len(rows[0]) == 1
    assert rows[0] == rows[1]

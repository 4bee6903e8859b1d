import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from besovbm import cli, harness, orlicz
from besovbm.simulate import RngSeed, sample_bm
from besovbm.spaces import finite_lq


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rho_theta_plain_decimal(capsys):
    code, out, _ = run_cli(capsys, "rho", "--function", "theta", "--sequence", "1.0")
    assert code == 0
    assert float(out.strip()) == pytest.approx(orlicz.luxemburg_norm(orlicz.theta(), [1.0]), abs=1e-9)


def test_rho_phi_beta_from_file(tmp_path, capsys):
    seq_file = tmp_path / "weights.txt"
    seq_file.write_text("0.5\n0.25\n\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "rho", "--function", "phi-beta", "--beta", "2", "--sequence-file", str(seq_file))
    assert code == 0
    expected = orlicz.luxemburg_norm(orlicz.phi_beta(2.0), [0.5, 0.25])
    assert float(out.strip()) == pytest.approx(expected, abs=1e-9)


def test_rho_rejects_a_phi_beta_that_is_not_convex(capsys):
    code, out, err = run_cli(capsys, "rho", "--function", "phi-beta", "--beta", "0.5", "--sequence", "1.0")
    assert code == 2 and out == ""
    assert "error: beta must be at least 1" in err


def test_rho_requires_a_sequence(capsys):
    with pytest.raises(SystemExit):
        cli.main(["rho"])


def test_besov_norm_sampled_json(capsys):
    code, out, _ = run_cli(
        capsys, "besov-norm", "--depth", "10", "--seed", "7", "--p", "2", "--q", "inf"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == pytest.approx(payload["lp_part"] + payload["seminorm_part"])
    assert payload["q"] == "inf" and payload["n_max"] == 4


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_besov_norm_rejects_n_max_below_one(capsys, n_max):
    code, out, err = run_cli(capsys, "besov-norm", "--depth", "8", "--n-max", n_max)
    assert code == 2 and out == ""
    assert "n_max must be at least 1" in err


@pytest.mark.parametrize("rows", [0, 1, 2])
def test_path_csv_needs_a_dyadic_grid_of_depth_one_or_more(tmp_path, capsys, rows):
    csv = tmp_path / "short.csv"
    csv.write_text("k,t,coord_1\n" + "".join(f"{k},{k},0.5\n" for k in range(rows)), encoding="utf-8")
    with pytest.raises(ValueError, match=r"2\^depth \+ 1 grid rows with depth >= 1"):
        cli.read_path_csv(csv)
    code, _, err = run_cli(capsys, "besov-norm", "--path-csv", str(csv))
    assert code == 2 and "2^depth + 1 grid rows" in err


@pytest.mark.parametrize("space_p", ["1", "inf"])
def test_path_csv_takes_the_space_exponent(tmp_path, capsys, space_p):
    dump = tmp_path / "dim2.csv"
    sampled = ("--depth", "8", "--seed", "7", "--sigma", "1,0.5", "--space-dim", "2", "--space-p", space_p)
    code, out_sampled, _ = run_cli(capsys, "besov-norm", *sampled, "--dump-path", str(dump))
    assert code == 0
    for kind in ((), ("--space-kind", "truncated_lp")):
        code, out_loaded, _ = run_cli(capsys, "besov-norm", "--path-csv", str(dump), "--space-p", space_p, *kind)
        assert code == 0
        assert json.loads(out_loaded) == json.loads(out_sampled)
    code, out_l2, _ = run_cli(capsys, "besov-norm", "--path-csv", str(dump))
    assert code == 0
    assert json.loads(out_l2)["total"] != json.loads(out_sampled)["total"]


def test_path_csv_dimension_comes_from_its_header(tmp_path, capsys):
    dump = tmp_path / "dim2.csv"
    run_cli(capsys, "besov-norm", "--depth", "6", "--space-dim", "2", "--sigma", "1,0.5", "--dump-path", str(dump))
    assert cli.read_path_csv(dump).space == finite_lq(2, 2.0)
    code, _, _ = run_cli(capsys, "besov-norm", "--path-csv", str(dump), "--space-dim", "2")
    assert code == 0
    code, out, err = run_cli(capsys, "besov-norm", "--path-csv", str(dump), "--space-dim", "3")
    assert code == 2 and out == ""
    assert "2 coordinate columns, not the space dimension 3" in err


def test_path_csv_roundtrip(tmp_path, capsys):
    dump = tmp_path / "path.csv"
    scales = tmp_path / "scales.csv"
    code, out_sampled, _ = run_cli(
        capsys,
        "besov-norm", "--depth", "10", "--seed", "7",
        "--dump-path", str(dump), "--per-scale-csv", str(scales),
    )
    assert code == 0
    code, out_loaded, _ = run_cli(capsys, "besov-norm", "--path-csv", str(dump))
    assert code == 0
    assert json.loads(out_sampled)["total"] == pytest.approx(json.loads(out_loaded)["total"], rel=1e-12)
    header = dump.read_text(encoding="utf-8").splitlines()[0]
    assert header == "k,t,coord_1"
    scale_lines = scales.read_text(encoding="utf-8").splitlines()
    assert scale_lines[0] == "n,weighted_increment_norm" and len(scale_lines) == 5


def test_path_csv_matches_library_sampler(tmp_path, capsys):
    dump = tmp_path / "p.csv"
    run_cli(capsys, "besov-norm", "--depth", "6", "--seed", "3", "--stream", "2",
            "--dump-path", str(dump))
    path = cli.read_path_csv(dump)
    direct = sample_bm(finite_lq(1, 2.0), [1.0], 6, RngSeed(3, 2))
    assert np.allclose(path.values, direct.values, atol=1e-15)
    assert path.depth == 6


def test_experiment_commands_are_the_registry():
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    experiments = [name for name in sub.choices if name not in ("rho", "besov-norm")]
    assert experiments == list(harness.EXPERIMENTS)
    assert {name: helps[name] for name in experiments} == {
        name: record.help for name, record in harness.EXPERIMENTS.items()
    }
    for name in experiments:
        args = parser.parse_args([name])
        assert args.experiment == name and args.func is cli._cmd_experiment


def test_experiment_exit_zero_on_pass(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "bm-limit", "--paths", "40", "--seed", "11",
        "--out", str(tmp_path / "limit"), "--format", "csv,json-text",
    )
    assert code == 0
    assert "all verdicts pass" in out
    assert (tmp_path / "limit.csv").exists() and (tmp_path / "limit.json").exists()


def test_experiment_exit_nonzero_on_failed_verdict(tmp_path, capsys):
    # at depth 8 the scale-2 increments only cover [0, 1 - 1/4), which puts
    # the 2^(n/2) increment norms well below the Gaussian moments
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("depth = 8\nscales = 2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "bm-limit", "--config", str(cfg), "--seed", "11")
    assert code == 1
    assert "FAIL" in out


def test_experiment_csv_bytes_reproducible(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _, _ = run_cli(
            capsys, "bm-limit", "--paths", "25", "--seed", "21",
            "--out", str(tmp_path / sub / "limit"), "--format", "csv,svg",
        )
        assert code == 0
    for name in ("limit.csv", "limit.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_experiment_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment.id = bm-limit\n"
        "depth = 14\n"
        "scales = 8\n"
        "p.list = 2\n"
        "mc.paths = 60\n"
        "rng.seed = 5\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "bm-limit", "--config", str(cfg))
    assert code == 0
    assert "n=8" in out


@pytest.mark.parametrize("experiment", ["bm-limit", "divergence", "increment-variance", "tau", "moments"])
def test_experiment_rejects_an_empty_p_list(tmp_path, capsys, monkeypatch, experiment):
    # an empty list used to give zero rows and "all verdicts pass", or max() of nothing
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("p.list =\n", encoding="utf-8")
    monkeypatch.setattr(harness, "sample_bm", lambda *args: pytest.fail("drew a path"))
    code, out, err = run_cli(capsys, experiment, "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"p.list is empty: {experiment} needs at least one exponent" in err


@pytest.mark.parametrize("q", ["0.5", "-1"])
def test_divergence_rejects_q_below_one(tmp_path, capsys, monkeypatch, q):
    # q < 1 gives no l^q seminorm; it used to print "all verdicts pass" and exit 0
    cfg = tmp_path / "q.cfg"
    cfg.write_text(f"q = {q}\n", encoding="utf-8")
    monkeypatch.setattr(harness, "sample_bm", lambda *args: pytest.fail("drew a path"))
    code, out, err = run_cli(capsys, "divergence", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "q must lie in [1, inf]" in err


@pytest.mark.parametrize("depth, scales", [(12, ["n=4", "n=5", "n=6"]), (8, ["n=1", "n=2"]), (7, ["n=1"])])
def test_bm_limit_default_scales_are_the_three_highest_trusted(capsys, depth, scales):
    code, out, _ = run_cli(capsys, "bm-limit", "--depth", str(depth), "--paths", "20", "--seed", "5")
    assert code in (0, 1)
    rows = [line.split() for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
    assert sorted({row[2] for row in rows}) == scales
    assert len(rows) == 3 * len(scales)


def test_bm_limit_needs_a_trusted_scale(capsys):
    code, out, err = run_cli(capsys, "bm-limit", "--depth", "6", "--paths", "5")
    assert code == 2 and out == ""
    assert "depth 6 leaves no trusted scale" in err


@pytest.mark.parametrize("experiment", ["moments", "tau"])
def test_path_experiment_needs_a_trusted_scale(capsys, monkeypatch, experiment):
    # both used to run scale 1 alone at depth 6 and report "all verdicts pass"
    monkeypatch.setattr(harness, "sample_bm", lambda *args: pytest.fail("drew a path"))
    code, out, err = run_cli(capsys, experiment, "--depth", "6")
    assert code == 2 and out == ""
    assert "depth 6 leaves no trusted scale" in err


def test_increment_variance_rejects_an_empty_scales(tmp_path, capsys):
    # an empty list used to run the driver's own copy of the default lags
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("scales =\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "increment-variance", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "scales is empty: increment-variance needs at least one lag" in err


@pytest.mark.parametrize("exponents", ["0.5", "-1", "2, 0.5"])
def test_increment_variance_rejects_an_exponent_below_one(tmp_path, capsys, exponents):
    # 0.5 and -1 used to print 18 PASS rows and exit 0
    cfg = tmp_path / "low.cfg"
    cfg.write_text(f"p.list = {exponents}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "increment-variance", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "p must be at least 1" in err


def test_experiment_id_must_match_the_subcommand(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment.id = tau\n", encoding="utf-8")
    monkeypatch.setattr(harness, "run", lambda cfg: pytest.fail(f"ran {cfg.experiment}"))
    code, _, err = run_cli(capsys, "bm-limit", "--config", str(cfg))
    assert code == 2
    assert "experiment.id = tau, not bm-limit" in err


def test_flags_override_config_file_keys(tmp_path, capsys, monkeypatch):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("depth = 14\nrng.seed = 9\nrng.stream = 7\n", encoding="utf-8")
    seen = []

    def run(cfg):
        seen.append(cfg)
        return harness.ExperimentResult(cfg.experiment, ())

    monkeypatch.setattr(harness, "run", run)
    code, _, _ = run_cli(capsys, "bm-limit", "--config", str(cfg_file), "--depth", "12", "--seed", "5")
    assert code == 0
    (cfg,) = seen
    assert cfg.depth == 12
    assert cfg.seed == RngSeed(5, 7)


def test_maximal_with_ensemble_config(tmp_path, capsys):
    cfg = tmp_path / "ens.cfg"
    cfg.write_text(
        "ensemble.solo.sigma = 1.0\n"
        "ensemble.solo.count = 4\n",
        encoding="utf-8",
    )
    out_base = tmp_path / "maximal"
    code, out, _ = run_cli(
        capsys, "maximal", "--config", str(cfg), "--samples", "2000",
        "--out", str(out_base),
    )
    assert code == 0
    lines = (tmp_path / "maximal.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "config_id,estimate,ci,lower,upper,verdict"
    assert len(lines) == 2 and lines[1].startswith("solo,")


def test_maximal_writes_only_requested_formats(tmp_path, capsys):
    cfg = tmp_path / "ens.cfg"
    cfg.write_text("ensemble.solo.sigma = 1.0\nensemble.solo.count = 4\n", encoding="utf-8")
    code, _, _ = run_cli(
        capsys, "maximal", "--config", str(cfg), "--samples", "2000",
        "--out", str(tmp_path / "base"), "--format", "json-text",
    )
    assert code == 0
    assert (tmp_path / "base.json").exists()
    assert not (tmp_path / "base.csv").exists()


def test_config_error_is_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no.such.key = 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "bm-limit", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_config_keys_the_experiment_does_not_read_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("ensemble.a.count = 3\nmc.samples = 5\nbeta = 7\np.max = 9\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "bm-limit", "--config", str(cfg))
    assert code == 2
    assert "bm-limit does not read the config keys beta, ensemble.a.count, mc.samples, p.max" in err


def test_flag_the_experiment_does_not_read_is_rejected(capsys):
    code, _, err = run_cli(capsys, "maximal", "--depth", "12")
    assert code == 2
    assert "maximal does not read the config keys depth" in err


@pytest.mark.parametrize("argv", [("bm-limit",), ("divergence", "--depth", "14")])
def test_experiment_rejects_zero_paths(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--paths", "0")
    assert code == 2
    assert "error: at least one path is required" in err


def scipy_modules_after(code):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter.

    A subprocess, because tests/oracles.py imports scipy.stats and
    scipy.integrate.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "\nimport sys\nprint(' '.join(m for m in sorted(sys.modules) if m == 'scipy' or m.startswith('scipy.')))\n"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_import_leaves_scipy_unloaded():
    # The library runs on numpy alone: scipy.special by itself cost about
    # half of a run's start-up time and 18 MB of resident memory.
    assert scipy_modules_after("import besovbm.cli") == []


def test_norm_solves_leave_scipy_unloaded():
    # a function-local scipy import passes the import check above
    code = (
        "from besovbm import besov, orlicz\n"
        "from besovbm.simulate import RngSeed, sample_bm\n"
        "from besovbm.spaces import finite_lq\n"
        "orlicz.luxemburg_norm(orlicz.theta(), [1.0, 0.5, 0.25])\n"
        "orlicz.orlicz_norm(orlicz.phi_beta(2.0), [1.0, 0.5, 0.25])\n"
        "besov.luxemburg_function_norm(sample_bm(finite_lq(1, 2.0), (1.0,), 8, RngSeed(1, 0)), 2.0)\n"
    )
    assert scipy_modules_after(code) == []

import argparse
import json
import math

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

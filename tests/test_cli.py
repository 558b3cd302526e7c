import os
from dataclasses import fields

import numpy as np
import pytest

from codedgd.cli import main, parse_config_file, parse_policy_token
from codedgd.experiments import ExperimentConfig
from codedgd.problem import ConfigurationError
from codedgd.trainer import EVAL_CHUNK

TINY_CONFIG = """
# tiny experiment for CLI tests
n_train = 60
n_test = 12
d = 40
n_blocks = 8
n_workers = 8
n_iterations = 20
eta = 0.1
q = 0.25
degrees = 1,2
a_th = 2
profile = persistent
mu = 10
alpha = 0.01
n_stragglers = 3
alpha_straggler = 10
policies = rcs,rcs1,adaptive:2
replicas = 2
seed = 5
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def test_parse_policy_tokens():
    assert parse_policy_token("rcs").kind == "static"
    assert parse_policy_token("rcs1").kind == "fixed_shift"
    spec = parse_policy_token("adaptive:3")
    assert (spec.kind, spec.a_th) == ("adaptive", 3)
    with pytest.raises(ConfigurationError):
        parse_policy_token("mds")


def test_parse_config_file(config_file):
    cfg = parse_config_file(config_file)
    assert cfg.d == 40 and cfg.q == 0.25
    assert cfg.degrees == (1, 2)
    assert [p.name for p in cfg.policies] == ["rcs", "rcs1", "adaptive2"]


def test_config_file_round_trip(tmp_path):
    # Every scalar field, each set away from its default, parses back unchanged.
    expected = ExperimentConfig(
        n_train=61, n_test=13, d=48, noise_std=0.5, n_blocks=8, n_workers=9,
        n_iterations=21, eta=0.05, q=0.125, a_th=3, profile_kind="markov", mu=9.5,
        alpha=0.02, n_stragglers=4, alpha_straggler=7.5, p=0.25, mu_slow=1.5,
        replicas=3, seed=11, output_dir="runs/round_trip")
    default = ExperimentConfig()
    scalars = [f.name for f in fields(ExperimentConfig) if f.name not in ("degrees", "policies")]
    assert all(getattr(expected, key) != getattr(default, key) for key in scalars)
    path = tmp_path / "all.cfg"
    path.write_text("".join("%s = %s\n" % (key, getattr(expected, key)) for key in scalars))
    assert parse_config_file(str(path)) == expected


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(str(path))


def test_run_subcommand(config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_file, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "convergence.csv"))
    assert "final mean test loss" in capsys.readouterr().out


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_bad_config_value_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("q = 1.5\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("line, key", [("n_blocks = 7", "n_blocks"),
                                       ("replicas = 0", "replicas"),
                                       ("degrees = 20,20,20", "n_blocks"),
                                       ("mu = 0", "mu"),
                                       ("alpha = -1", "alpha"),
                                       ("alpha_straggler = -1", "alpha_straggler"),
                                       ("profile = markov\nmu_slow = 20", "mu_slow"),
                                       ("profile = markov\np = 2", "p="),
                                       ("n_workers = 2\nn_stragglers = 1", "n_workers"),
                                       ("n_workers = 0\nn_stragglers = 0", "n_workers"),
                                       ("a_th = 0", "a_th"),
                                       ("policies = rcs,adaptive:0", "a_th"),
                                       ("degrees = 0,2,2", "degrees"),
                                       ("n_train = 0", "n_train"),
                                       ("n_test = 0", "n_test"),
                                       ("d = 0", "d must"),
                                       ("noise_std = -1", "noise_std"),
                                       ("noise_std = nan", "noise_std"),
                                       ("noise_std = inf", "noise_std"),
                                       ("mu = inf", "mu"),
                                       ("alpha = inf", "alpha"),
                                       ("alpha_straggler = inf", "alpha_straggler"),
                                       ("policies = rcs,rcs", "policies"),
                                       ("policies = adaptive:2,adaptive:02", "policies"),
                                       ("n_stragglers = -3", "n_stragglers"),
                                       ("n_stragglers = 30", "n_stragglers"),
                                       ("eta = 0", "eta"),
                                       ("eta = 100", "eta"),
                                       ("n_iterations = 0", "n_iterations"),
                                       ("profile = bogus", "profile"),
                                       ("n_workers = 1.5", "n_workers"),
                                       ("seed = -1", "seed"),
                                       ("policies = rcs,adaptive2,adaptive:2", "policies"),
                                       ("policies = rcs,adaptivefoo", "policies")],
                         ids=["n_blocks", "replicas", "degrees", "mu", "alpha",
                              "alpha_straggler", "markov_mu_slow", "markov_p",
                              "unreachable_target", "no_workers", "a_th",
                              "policy_a_th", "degree_zero", "n_train", "n_test", "d",
                              "noise_std", "noise_std_nan", "noise_std_inf", "mu_inf",
                              "alpha_inf", "alpha_straggler_inf", "duplicate_policy", "duplicate_adaptive",
                              "n_stragglers_negative", "n_stragglers_too_many", "eta",
                              "eta_unstable", "n_iterations", "profile_kind",
                              "n_workers_float", "seed", "adaptive_suffix",
                              "adaptive_junk"])
def test_invalid_config_fails_before_any_work(tmp_path, capsys, line, key):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_CONFIG + line + "\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, jobs", [("run", "0"), ("run", "-2"), ("table1", "0")],
                         ids=["jobs_zero", "jobs_negative", "table1_jobs_zero"])
def test_bad_jobs_fails_before_any_work(tmp_path, capsys, command, jobs):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    out = tmp_path / "o"
    args = ["--config", str(path)] if command == "run" else ["--q", "0.3", "--replicas", "1"]
    assert main([command, *args, "--jobs", jobs, "--out", str(out)]) == 2
    assert not out.exists()
    assert "--jobs" in capsys.readouterr().err


def test_out_naming_a_file_exits_2(config_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "--config", config_file, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert out.read_text() == ""


@pytest.mark.parametrize("via", ["flag", "env"])
def test_empty_out_exits_2_naming_out(config_file, monkeypatch, capsys, via):
    args = ["run", "--config", config_file]
    if via == "flag":
        args += ["--out", ""]
    else:
        monkeypatch.setenv("CODEDGD_OUT", "")
    assert main(args) == 2
    assert "--out" in capsys.readouterr().err


def test_output_tree_does_not_depend_on_jobs(tmp_path):
    # Two replicas over more than two loss-evaluation chunks, in one process and in the pool.
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG + "n_iterations = %d\n" % (2 * EVAL_CHUNK + 3))
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / ("jobs" + jobs)
        assert main(["run", "--config", str(path), "--jobs", jobs, "--out", str(out)]) == 0
        trees.append({str(f.relative_to(out)): f.read_bytes()
                      for f in out.rglob("*") if f.is_file()})
    assert len(trees[0]) == 3 + 3 * 2 * 4   # aggregates, then 4 files per policy replica
    assert trees[0] == trees[1]


def test_run_summary_reports_exhausted_iterations(config_file, tmp_path, capsys):
    assert main(["run", "--config", config_file, "--out", str(tmp_path / "ok")]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("exhausted 0/40 iterations") == 3
    assert "used every message" not in captured.err
    # adaptive2's second replica never recovers block 8
    assert captured.err.count("never recovered") == 1
    assert "warning: adaptive2: 1 of 2 runs never recovered some block" in captured.err
    infos = [(tmp_path / "ok" / "adaptive2" / rep / "run_info.txt").read_text()
             for rep in ("rep00", "rep01")]
    assert [info.splitlines()[-1] for info in infos] == ["never_recovered_blocks=",
                                                         "never_recovered_blocks=8"]

    # Degree-2 messages alone never peel: 6 messages reach the static bound
    # of 6 blocks, yet every iteration ends with nothing recovered.
    path = tmp_path / "stuck.cfg"
    path.write_text(TINY_CONFIG + "degrees = 2\nn_workers = 6\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "stuck")]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("exhausted 40/40 iterations") == 3
    assert captured.err.count("used every message") == 3
    assert captured.err.count("2 of 2 runs never recovered some block") == 3


@pytest.mark.parametrize("q", ["0.1,abc", "0.1,1.5", "0.1,0.1"])
def test_table1_bad_q_fails_before_any_work(tmp_path, capsys, q):
    out = tmp_path / "t1"
    assert main(["table1", "--q", q, "--replicas", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--q" in capsys.readouterr().err


@pytest.mark.parametrize("a_th", ["0", "-1"])
def test_table1_bad_a_th_fails_before_any_work(tmp_path, capsys, a_th):
    out = tmp_path / "t1"
    assert main(["table1", "--a-th", a_th, "--q", "0.3", "--replicas", "1",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "a_th" in capsys.readouterr().err


def test_env_var_default_output(config_file, tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "envout")
    monkeypatch.setenv("CODEDGD_OUT", out)
    assert main(["run", "--config", config_file]) == 0
    assert os.path.exists(os.path.join(out, "convergence.csv"))


def test_table1_subcommand(config_file, tmp_path, capsys):
    # table1 on the built-in preset is heavy; exercise flag plumbing via run+grid
    out = str(tmp_path / "t1")
    code = main(["table1", "--a-th", "2", "--q", "0.3", "--replicas", "1",
                 "--seed", "3", "--out", out])
    assert code == 0
    table = (tmp_path / "t1" / "table1.csv").read_text().splitlines()
    assert table[0].startswith("q,")
    assert table[1].startswith("0.3,")


def test_preset_choices_rejected_by_argparse():
    with pytest.raises(SystemExit):
        main(["preset", "fig9"])

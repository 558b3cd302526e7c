import os

import numpy as np
import pytest

from codedgd.cli import main, parse_config_file, parse_policy_token
from codedgd.problem import ConfigurationError

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
                                       ("n_workers = 0\nn_stragglers = 0", "n_workers")],
                         ids=["n_blocks", "replicas", "degrees", "mu", "alpha",
                              "alpha_straggler", "markov_mu_slow", "markov_p",
                              "unreachable_target", "no_workers"])
def test_invalid_config_fails_before_any_work(tmp_path, capsys, line, key):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_CONFIG + line + "\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert key in capsys.readouterr().err


def test_run_summary_reports_exhausted_iterations(config_file, tmp_path, capsys):
    assert main(["run", "--config", config_file, "--out", str(tmp_path / "ok")]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("exhausted 0/40 iterations") == 3
    assert "warning" not in captured.err

    # Degree-2 messages alone never peel: 6 messages reach the static bound
    # of 6 blocks, yet every iteration ends with nothing recovered.
    path = tmp_path / "stuck.cfg"
    path.write_text(TINY_CONFIG + "degrees = 2\nn_workers = 6\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "stuck")]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("exhausted 40/40 iterations") == 3
    assert captured.err.count("warning") == 3


@pytest.mark.parametrize("q", ["0.1,abc", "0.1,1.5"])
def test_table1_bad_q_fails_before_any_work(tmp_path, capsys, q):
    out = tmp_path / "t1"
    assert main(["table1", "--q", q, "--replicas", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--q" in capsys.readouterr().err


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

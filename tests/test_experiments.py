import hashlib
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from codedgd import experiments
from codedgd.experiments import (ExperimentConfig, PolicySpec, preset_config,
                                 run_experiment, run_seed, table1_grid)
from codedgd.problem import ConfigurationError


def tiny_config(**overrides):
    cfg = ExperimentConfig(
        n_train=60, n_test=12, d=40, n_blocks=8, n_workers=8,
        n_iterations=25, q=0.25, degrees=(1, 2), a_th=2,
        profile_kind="persistent", n_stragglers=3,
        policies=(PolicySpec("rcs", "static"),
                  PolicySpec("rcs1", "fixed_shift"),
                  PolicySpec("adaptive2", "adaptive", 2)),
        replicas=2, seed=5)
    return replace(cfg, **overrides)


def test_preset_fig3_matches_reference_setup():
    cfg = preset_config("fig3")
    assert (cfg.n_blocks, cfg.n_workers, cfg.d) == (40, 40, 1000)
    assert (cfg.n_train, cfg.n_test) == (2000, 400)
    assert cfg.degrees == (1, 2, 3)
    assert (cfg.n_iterations, cfg.eta, cfg.q) == (400, 0.1, 0.3)
    assert cfg.profile_kind == "persistent"
    assert (cfg.n_stragglers, cfg.alpha_straggler) == (15, 10.0)
    assert (cfg.mu, cfg.alpha) == (10.0, 0.01)
    kinds = [(p.kind, p.a_th) for p in cfg.policies]
    assert kinds == [("static", 0), ("fixed_shift", 0), ("adaptive", 2)]


def test_preset_fig5_markov_setup():
    cfg = preset_config("fig5")
    assert cfg.profile_kind == "markov"
    assert (cfg.p, cfg.mu_slow, cfg.mu) == (0.05, 2.0, 10.0)
    assert cfg.n_stragglers == 15
    a_ths = [p.a_th for p in cfg.policies if p.kind == "adaptive"]
    assert sorted(a_ths) == [2, 3]


def test_preset_fig6_uncoded_setup():
    cfg = preset_config("fig6")
    assert cfg.degrees == (1, 1, 1)
    assert cfg.q == 0.2
    kinds = [(p.kind, p.a_th) for p in cfg.policies]
    assert kinds == [("static", 0), ("adaptive", 1)]


def test_unknown_preset():
    with pytest.raises(ConfigurationError):
        preset_config("fig9")


def test_run_seed_deterministic_and_distinct():
    assert run_seed(1, 0, 0) == run_seed(1, 0, 0)
    seeds = {run_seed(1, p, r) for p in range(3) for r in range(5)}
    assert len(seeds) == 15


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    result = run_experiment(cfg)
    for policy in ("rcs", "rcs1", "adaptive2"):
        for rep in ("rep00", "rep01"):
            base = tmp_path / "out" / policy / rep
            assert (base / "metrics.csv").exists()
            assert (base / "ages.csv").exists()
            assert (base / "summary.csv").exists()
    assert (tmp_path / "out" / "convergence.csv").exists()
    assert (tmp_path / "out" / "age_bars.csv").exists()
    assert (tmp_path / "out" / "objectives.csv").exists()
    assert set(result.runs) == {"rcs", "rcs1", "adaptive2"}


def test_convergence_csv_shape(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    result = run_experiment(cfg)
    rows = [l for l in (tmp_path / "out" / "convergence.csv").read_text().splitlines()
            if not l.startswith("#")]
    header, data = rows[0], rows[1:]
    assert header.split(",") == ["t", "rcs_mean", "rcs_std", "rcs1_mean", "rcs1_std",
                                 "adaptive2_mean", "adaptive2_std"]
    assert len(data) == cfg.n_iterations


def test_age_bars_csv_shape(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    rows = (tmp_path / "out" / "age_bars.csv").read_text().splitlines()
    assert rows[0] == "block,rcs,rcs1,adaptive2"
    assert len(rows) == 1 + cfg.n_blocks


def two_kind_emit_plotdata(result, kind, out_dir):
    """The aggregate writer as it was before one call wrote both files."""
    names = result.policy_names()
    if kind == "convergence":
        path = os.path.join(out_dir, "convergence.csv")
        cols, header = [], ["t"]
        for name in names:
            if result.runs.get(name):
                mean, std = result.mean_test_loss(name)
                cols.extend([mean, std])
            header.extend(["%s_mean" % name, "%s_std" % name])
        with open(path, "w") as fh:
            for policy in names:
                for rep in range(result.config.replicas):
                    raw = os.path.join(out_dir, policy, "rep%02d" % rep, "metrics.csv")
                    if os.path.exists(raw):
                        with open(raw, "rb") as src:
                            digest = hashlib.sha256(src.read()).hexdigest()[:16]
                        fh.write("# source %s/rep%02d sha256=%s\n" % (policy, rep, digest))
            fh.write(",".join(header) + "\n")
            if cols:
                for t in range(len(cols[0])):
                    fh.write(",".join(["%d" % (t + 1)] +
                                      ["%.12g" % c[t] for c in cols]) + "\n")
        return path
    path = os.path.join(out_dir, "age_bars.csv")
    cols = [result.mean_average_ages(n) for n in names if result.runs.get(n)]
    with open(path, "w") as fh:
        fh.write(",".join(["block"] + names) + "\n")
        if cols:
            for k in range(len(cols[0])):
                fh.write(",".join(["%d" % (k + 1)] +
                                  ["%.12g" % c[k] for c in cols]) + "\n")
    return path


@pytest.mark.parametrize("profile_kind", ["persistent", "markov"])
def test_emit_plotdata_against_two_kind_writer(tmp_path, profile_kind):
    out = tmp_path / "out"
    result = run_experiment(tiny_config(profile_kind=profile_kind, output_dir=str(out)))
    written = {name: (out / name).read_bytes() for name in ("convergence.csv", "age_bars.csv")}
    for kind in ("convergence", "age_bars"):
        two_kind_emit_plotdata(result, kind, str(out))
    assert written == {name: (out / name).read_bytes() for name in written}
    assert written["convergence.csv"].count(b"# source ") == 3 * 2


def test_aggregates_recomputable_from_raw_files(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    import io
    body = "\n".join(l for l in (tmp_path / "out" / "convergence.csv")
                     .read_text().splitlines() if not l.startswith("#"))
    agg = np.genfromtxt(io.StringIO(body), delimiter=",", names=True)
    for policy in ("rcs", "rcs1", "adaptive2"):
        raws = []
        for rep in ("rep00", "rep01"):
            path = tmp_path / "out" / policy / rep / "metrics.csv"
            raws.append(np.genfromtxt(path, delimiter=",", names=True)["test_loss"])
        raws = np.array(raws)
        assert np.allclose(agg["%s_mean" % policy], raws.mean(axis=0), atol=1e-12)
        assert np.allclose(agg["%s_std" % policy], raws.std(axis=0), atol=1e-12)


def test_reproducibility_byte_identical(tmp_path):
    cfg_a = tiny_config(output_dir=str(tmp_path / "a"))
    cfg_b = tiny_config(output_dir=str(tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for policy in ("rcs", "rcs1", "adaptive2"):
        for rep in ("rep00", "rep01"):
            for name in ("metrics.csv", "ages.csv", "summary.csv"):
                a = (tmp_path / "a" / policy / rep / name).read_bytes()
                b = (tmp_path / "b" / policy / rep / name).read_bytes()
                assert a == b


def test_one_staleness_threshold_across_outputs(tmp_path):
    # objectives.csv and every replica's summary.csv report the objective at
    # the experiment's a_th, whatever threshold a policy orders by.
    cfg = tiny_config(a_th=3, output_dir=str(tmp_path))
    run_experiment(cfg)
    lines = (tmp_path / "objectives.csv").read_text().splitlines()[1:]
    reported = {name: float(value) for name, value in (line.split(",") for line in lines)}
    for policy in cfg.policies:
        per_replica = [float((tmp_path / policy.name / ("rep%02d" % rep) / "summary.csv")
                             .read_text().splitlines()[-1].split(",")[1])
                       for rep in range(cfg.replicas)]
        assert abs(np.mean(per_replica) - reported[policy.name]) <= 1e-9


@pytest.mark.parametrize("override, key", [
    (dict(eta=0), "eta"),
    (dict(n_iterations=0), "n_iterations"),
    (dict(profile_kind="bogus"), "profile kind"),
    (dict(degrees=(0, 2)), "degrees"),
    (dict(mu=0), "mu"),
    (dict(policies=(PolicySpec("adaptive0", "adaptive", 0),)), "a_th"),
    (dict(policies=(PolicySpec("rcs", "static"), PolicySpec("rcs", "fixed_shift"))),
     "policies"),
    (dict(policies=()), "policies"),
    (dict(eta=np.inf), "eta"),
    (dict(degrees=()), "degrees"),
    (dict(n_workers=0), "n_workers must"),
], ids=["eta", "n_iterations", "profile_kind", "degrees", "mu", "policy_a_th",
        "duplicate_policy", "no_policies", "eta_inf", "degrees_empty", "n_workers_0"])
def test_invalid_config_fails_at_construction(override, key):
    with pytest.raises(ConfigurationError, match=key):
        tiny_config(**override)


def test_table1_grid_layout(tmp_path):
    cfg = tiny_config()
    out = tmp_path / "table1.csv"
    grid = table1_grid(cfg, [0.25, 0.5], a_th=2, out_path=str(out))
    assert set(grid) == {0.25, 0.5}
    assert set(grid[0.25]) == {"rcs", "rcs1", "adaptive2"}
    rows = out.read_text().splitlines()
    assert rows[0] == "q,rcs,rcs1,adaptive2"
    assert len(rows) == 3


def test_objective_zero_when_threshold_huge():
    cfg = tiny_config(replicas=1)
    grid = table1_grid(cfg, [0.25], a_th=cfg.n_iterations + 1)
    assert all(v == 0.0 for v in grid[0.25].values())


def test_table1_rejects_bad_tolerances():
    with pytest.raises(ConfigurationError):
        table1_grid(tiny_config(), [0.5, 1.0])


def test_table1_grid_defaults_to_the_config_threshold():
    cfg = tiny_config(a_th=3, replicas=1)
    default = table1_grid(cfg, [0.25])
    assert default == table1_grid(cfg, [0.25], a_th=3)
    assert default != table1_grid(cfg, [0.25], a_th=2)


def test_table1_grid_runs_no_optimizer(optimizer_calls):
    grid = table1_grid(tiny_config(), [0.25, 0.5])
    assert set(grid) == {0.25, 0.5}
    assert optimizer_calls == {}


def test_pool_is_capped_at_the_task_count(monkeypatch, optimizer_calls):
    # Records the pool size and runs the tasks inline, sending each result
    # through pickle as a worker would: no process is started.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return (pickle.loads(pickle.dumps(fn(task))) for task in tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    cfg = tiny_config(replicas=1)
    pooled = run_experiment(cfg, n_jobs=64)
    assert sizes == [3]   # 3 policies x 1 replica
    assert optimizer_calls == {}
    serial = run_experiment(cfg, n_jobs=1)
    assert sizes == [3]
    for name in serial.policy_names():
        for a, b in zip(pooled.runs[name], serial.runs[name]):
            assert a.records.tobytes() == b.records.tobytes()
            assert a.train_losses().tobytes() == b.train_losses().tobytes()
            assert a.test_losses().tobytes() == b.test_losses().tobytes()

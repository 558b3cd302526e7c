"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools

import numpy as np
import pytest
from scipy import stats

from codedgd import (MarkovStragglerModel, OrderPolicy, StragglerProfile,
                     TrainConfig, build_rcs, completion_cdf, encode, evaluate,
                     generate_problem, masked_gd, run_training,
                     sample_completion_times, step_markov)
from codedgd.experiments import preset_config, run_experiment, table1_grid
from tests.test_decoder import (gaussian_recoverable, peel_fixpoint,
                                random_rcs_equations)
from tests.test_problem import exact_gd

REFERENCE_OBJECTIVES = {
    0.1: {"rcs": 0.0261, "rcs1": 0.0180, "adaptive2": 0.0156},
    0.2: {"rcs": 0.0681, "rcs1": 0.0476, "adaptive2": 0.0451},
    0.3: {"rcs": 0.1316, "rcs1": 0.0970, "adaptive2": 0.0919},
}


def check(name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print("ACCEPTANCE %-28s %s %s" % (name, status, detail))
    assert condition, "%s: %s" % (name, detail)


@pytest.fixture(scope="module")
def fig3_sweep():
    return run_experiment(preset_config("fig3"))


def test_table1_reproduction():
    cfg = preset_config("table1")
    grid = table1_grid(cfg, [0.1, 0.2, 0.3], a_th=2)
    ok = True
    details = []
    for q, row in sorted(grid.items()):
        ordered = row["rcs"] > row["rcs1"] >= row["adaptive2"]
        in_band = all(abs(row[n] - REFERENCE_OBJECTIVES[q][n]) <= 0.03 for n in row)
        ok = ok and ordered and in_band
        details.append("q=%g:(%.4f,%.4f,%.4f)" % (q, row["rcs"], row["rcs1"],
                                                  row["adaptive2"]))
    check("table1_reproduction", ok, " ".join(details))


def test_fig3_convergence_ordering(fig3_sweep):
    res = fig3_sweep
    finals = {n: res.final_test_losses(n) for n in res.policy_names()}
    means = {n: v.mean() for n, v in finals.items()}
    mean_ordered = means["adaptive2"] <= means["rcs1"] < means["rcs"]
    gap = means["rcs1"] <= 0.5 * means["rcs"]
    per_replica = sum((finals["adaptive2"][i] <= finals["rcs1"][i])
                      and (finals["rcs1"][i] < finals["rcs"][i])
                      for i in range(res.config.replicas))
    check("fig3_convergence_ordering",
          mean_ordered and gap and per_replica >= 9,
          "means=(%.3e,%.3e,%.3e) replicas=%d/10"
          % (means["rcs"], means["rcs1"], means["adaptive2"], per_replica))


def test_fig4_age_property(fig3_sweep):
    res = fig3_sweep
    bars = {n: res.mean_average_ages(n) for n in res.policy_names()}
    ordered = (bars["rcs1"].max() < bars["rcs"].max()
               and bars["adaptive2"].max() <= bars["rcs1"].max())
    fresh = bool(np.all(bars["rcs1"] < 3) and np.all(bars["adaptive2"] < 3))
    check("fig4_age_property", ordered and fresh,
          "max bars rcs=%.2f rcs1=%.2f adaptive=%.2f"
          % (bars["rcs"].max(), bars["rcs1"].max(), bars["adaptive2"].max()))


def test_fig6_uncoded_recovery():
    cfg = preset_config("fig6")
    res = run_experiment(cfg)
    static_never = [int((run.recovery_matrix().sum(axis=0) == 0).sum())
                    for run in res.runs["rcs"]]
    adaptive_ages = np.array([run.ages.average_ages()
                              for run in res.runs["adaptive1"]])
    problem = generate_problem(cfg.n_train, cfg.n_test, cfg.d, cfg.noise_std,
                               seed=cfg.seed)
    _, _, gd_test = masked_gd(problem, np.ones((cfg.n_iterations, 1), np.int8), cfg.eta)
    baseline = gd_test[-1]
    adaptive_final = float(np.mean(res.final_test_losses("adaptive1")))
    ok = (any(n >= 1 for n in static_never)
          and adaptive_ages.max() <= 6
          and adaptive_final <= 10 * baseline)
    check("fig6_uncoded_recovery", ok,
          "static never-recovered=%s adaptive max age=%.2f loss=%.2e (10x gd=%.2e)"
          % (static_never, adaptive_ages.max(), adaptive_final, 10 * baseline))


def test_exact_gd_oracle():
    problem = generate_problem(60, 12, 20, noise_std=0.0, seed=2)
    config = TrainConfig(n_blocks=4, n_workers=4, n_iterations=60, eta=0.1,
                         q=0.0, policy=OrderPolicy("fixed_shift"), degrees=(1, 1),
                         profile=StragglerProfile("homogeneous", 4, mu=10.0, alpha=0.01),
                         seed=7)
    result = run_training(problem, config)
    trajectory = exact_gd(problem, eta=0.1, n_iterations=60)
    gd_losses = [evaluate(theta, problem) for theta in trajectory]
    ok = all(np.all(rec.r == 1) for rec in result.records)
    worst = 0.0
    for train, test, (train_gd, test_gd) in zip(result.train_losses(), result.test_losses(),
                                                gd_losses):
        worst = max(worst,
                    abs(train - train_gd) / train_gd,
                    abs(test - test_gd) / test_gd)
    err = np.linalg.norm(result.theta - trajectory[-1]) / np.linalg.norm(trajectory[-1])
    check("exact_gd_oracle", ok and err <= 1e-9 and worst <= 1e-9,
          "final rel err %.2e, worst per-iteration loss rel err %.2e" % (err, worst))


def test_decoder_oracle_equivalence():
    rng = np.random.default_rng(777)
    agree = total = 0
    ok = True
    for _ in range(1000):
        n_blocks, equations = random_rcs_equations(rng)
        blocks = rng.standard_normal((n_blocks, 2))
        reference = peel_fixpoint(equations, blocks).finalize()[1]
        perms = (itertools.permutations(equations) if len(equations) <= 4
                 else (rng.permutation(len(equations)) for _ in range(6)))
        for perm in perms:
            if isinstance(perm, np.ndarray):
                perm = [equations[i] for i in perm]
            if peel_fixpoint(list(perm), blocks).finalize()[1] != reference:
                ok = False
        oracle = gaussian_recoverable(equations, n_blocks)
        ok = ok and reference <= oracle
        total += 1
        agree += reference == oracle
    check("decoder_oracle_equivalence", ok and agree / total >= 0.95,
          "order-insensitive=%s, peeling==elimination in %.1f%%"
          % (ok, 100 * agree / total))


def test_latency_law():
    rng = np.random.default_rng(12)
    samples = sample_completion_times(np.full(100_000, 10.0), 0.01, 3, rng)
    ks_ok = True
    stats_txt = []
    for s in (1, 2, 3):
        ks = stats.kstest(samples[:, s - 1], lambda t: completion_cdf(t, s, 10.0, 0.01))
        ks_ok = ks_ok and ks.statistic < 0.01
        stats_txt.append("KS(s=%d)=%.4f" % (s, ks.statistic))
    flip_ok = True
    for p in (0.05, 0.5):
        model = MarkovStragglerModel(p=p, slow=np.zeros(1, dtype=bool))
        flips = 0
        n = 20_000
        for _ in range(n):
            before = model.slow[0]
            model = step_markov(model, rng)
            flips += before != model.slow[0]
        rel = abs(flips / n - p) / p
        flip_ok = flip_ok and rel <= 0.10
        stats_txt.append("flip(p=%g)=%.4f" % (p, flips / n))
    check("latency_law", ks_ok and flip_ok, " ".join(stats_txt))


def test_determinism_byte_identical(tmp_path):
    from dataclasses import replace
    base = preset_config("fig3", replicas=2)
    cfg_a = replace(base, output_dir=str(tmp_path / "a"))
    cfg_b = replace(base, output_dir=str(tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    same = True
    for policy in ("rcs", "rcs1", "adaptive2"):
        for rep in ("rep00", "rep01"):
            for name in ("metrics.csv", "ages.csv", "summary.csv"):
                a = (tmp_path / "a" / policy / rep / name).read_bytes()
                b = (tmp_path / "b" / policy / rep / name).read_bytes()
                same = same and a == b
    check("determinism_byte_identical", same)

"""Output-correctness gate: each function returns a list of errors, empty when all hold.

The checks never trust the simulator's own bookkeeping: losses are replayed
from the recorded recovery matrix, ages are recomputed from it, and the CSV
checksums are recomputed from the raw files. At the default seeds a digest
of the theta-independent outputs is pinned in ``digests.json``; losses are
not pinned, because exact block products may move them at ~1e-12.
"""

import hashlib
import json
import os
import re

import numpy as np

import workloads  # noqa: F401  (puts this checkout's src/ first on sys.path)
from codedgd.decoder import recovery_target

LOSS_RTOL = 1e-9
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
_SOURCE = re.compile(r"# source (\S+)/rep(\d+) sha256=([0-9a-f]+)$")


def replay_losses(problem, eta, n_blocks, r):
    """Train and test losses of masked GD driven by the T x K recovery matrix r:
    theta <- theta - eta * r_t (.) (W theta - b), from theta = 0."""
    rows = problem.d // n_blocks
    theta = np.zeros(problem.d)
    train = np.empty(len(r))
    test = np.empty(len(r))
    for t, r_t in enumerate(r):
        theta = theta - eta * np.repeat(r_t, rows) * (problem.W @ theta - problem.b)
        train[t] = 0.5 * np.mean((problem.X_train @ theta - problem.y_train) ** 2)
        test[t] = 0.5 * np.mean((problem.X_test @ theta - problem.y_test) ** 2)
    return train, test


def check_losses(problem, cfg, runs, replays):
    """Recorded losses of `runs` ({label: TrainResult}) against their replay.

    `replays` memoises replayed losses by the recovery matrix's digest, so a
    rerun with identical recovery matrices costs no second replay.
    """
    errors = []
    for label, run in runs.items():
        r = run.recovery_matrix()
        key = hashlib.sha256(r.tobytes()).hexdigest()
        if key not in replays:
            replays[key] = replay_losses(problem, cfg.eta, cfg.n_blocks, r)
        train, test = replays[key]
        if not (np.allclose(run.train_losses(), train, rtol=LOSS_RTOL, atol=0)
                and np.allclose(run.test_losses(), test, rtol=LOSS_RTOL, atol=0)):
            errors.append("%s: recorded losses differ from the masked-GD replay" % label)
    return errors


def reference_ages(r):
    """Age history (T x K) implied by a recovery matrix: reset to 1 on recovery."""
    history = np.empty(r.shape, dtype=np.int64)
    current = np.ones(r.shape[1], dtype=np.int64)
    for t in range(r.shape[0]):
        history[t] = current
        current = np.where(r[t] == 1, 1, current + 1)
    return history


def check_ages(label, run, a_th, target):
    """Ages, objective, recovered counts and exhausted list against the r matrix."""
    r = run.recovery_matrix()
    history = reference_ages(r)
    errors = []
    if not np.array_equal(history, run.ages.history):
        errors.append("%s: age history differs from the one implied by r" % label)
    if run.ages.objective(a_th) != float((history > a_th).mean()):
        errors.append("%s: objective differs from the one implied by r" % label)
    if not np.array_equal(run.ages.average_ages(), history.mean(axis=0)):
        errors.append("%s: average ages differ from the ones implied by r" % label)
    recovered = r.sum(axis=1)
    if [rec.recovered_count for rec in run.records] != recovered.tolist():
        errors.append("%s: recovered counts differ from r" % label)
    if run.exhausted_iterations != (np.flatnonzero(recovered < target) + 1).tolist():
        errors.append("%s: exhausted iterations differ from r" % label)
    return errors


def check_checksums(sweep, out_dir):
    """The sha256 comment lines of convergence.csv against the raw metrics.csv files."""
    with open(os.path.join(out_dir, "convergence.csv")) as fh:
        sources = [m.groups() for m in map(_SOURCE.match, fh.read().splitlines()) if m]
    expected = len(sweep.policy_names()) * sweep.config.replicas
    errors = [] if len(sources) == expected else [
        "convergence.csv lists %d sources, expected %d" % (len(sources), expected)]
    for policy, rep, digest in sources:
        path = os.path.join(out_dir, policy, "rep%s" % rep, "metrics.csv")
        with open(path, "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        if not actual.startswith(digest):
            errors.append("%s/rep%s: metrics.csv does not match its checksum" % (policy, rep))
    return errors


def check_sweep(sweep, problem, out_dir, replays, index):
    """Replay one run per policy (replica `index` mod R), check every run's ages,
    and the checksums when the sweep wrote files."""
    cfg = sweep.config
    rep = index % cfg.replicas
    picked = {"q=%g %s/rep%02d" % (cfg.q, name, rep): sweep.runs[name][rep]
              for name in sweep.policy_names()}
    errors = check_losses(problem, cfg, picked, replays)
    target = recovery_target(cfg.n_blocks, cfg.q)
    for name in sweep.policy_names():
        for rep, run in enumerate(sweep.runs[name]):
            errors += check_ages("q=%g %s/rep%02d" % (cfg.q, name, rep), run, cfg.a_th, target)
    if out_dir:
        errors += check_checksums(sweep, out_dir)
    return errors


def outputs_digest(sweeps, grid=None):
    """Digest of the theta-independent outputs: r, shifts, simulated wall times,
    messages ingested, exhausted lists, and the table1 grid when given."""
    h = hashlib.sha256()
    for sweep in sweeps:
        for name in sweep.policy_names():
            for run in sweep.runs[name]:
                h.update(run.recovery_matrix().tobytes())
                for field in ("shift_used", "n_ingested"):
                    h.update(np.array([getattr(rec, field) for rec in run.records],
                                      dtype=np.int64).tobytes())
                h.update(np.array([rec.wall_time for rec in run.records]).tobytes())
                h.update(np.array(run.exhausted_iterations, dtype=np.int64).tobytes())
    if grid is not None:
        for q in sorted(grid):
            for name in sorted(grid[q]):
                h.update(("%r %s %r;" % (q, name, grid[q][name])).encode())
    return h.hexdigest()


def pinned_digest(workload_name, seed):
    """The pinned digest for this workload at this seed, or None if none is pinned."""
    with open(PINNED) as fh:
        entry = json.load(fh).get(workload_name)
    return entry["digest"] if entry and entry["seed"] == seed else None


def check_grid(grid, expected):
    """A table1 grid against an expected one, exactly."""
    return [] if grid == expected else ["table1 grid differs from the expected one"]


def check_grid_pass(grid, sweeps, problem, replays, index):
    """One in-process table1 pass: its runs regrouped into per-q sweeps.

    Each run must belong to its (q, policy) cell, each sweep must pass
    check_sweep, and the grid must equal the mean objectives of the runs.
    """
    errors = []
    for q, sweep in sweeps.items():
        cfg = sweep.config
        kinds = {p.name: p.order_policy() for p in cfg.policies}
        for name, runs in sweep.runs.items():
            if len(runs) != cfg.replicas or any(
                    run.config.q != q or run.config.policy != kinds[name] for run in runs):
                errors.append("q=%g %s: runs do not match their grid cell" % (q, name))
        if errors:
            return errors
        errors += check_sweep(sweep, problem, None, replays, index)
    implied = {q: {name: sweep.mean_objective(name, sweep.config.a_th)
                   for name in sweep.policy_names()} for q, sweep in sweeps.items()}
    return errors + check_grid(grid, implied)

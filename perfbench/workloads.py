"""The benchmark's workloads and how one pass of each runs.

Every pass goes through the public experiment API of the codedgd sources in
this checkout (``src/``), which this module puts first on ``sys.path``.

fig3    The paper's headline sweep (K=N=40, T=400, d=1000, degrees (1,2,3),
        q=0.3, 15 persistent stragglers, policies rcs/rcs1/adaptive2) through
        ``run_experiment`` with raw and aggregate CSVs. Every layer runs in one
        process, with recovery work and linear algebra both large.
table1  The staleness-objective grid over q = 0.1, 0.2, 0.3, with no files.
        Only objectives are kept, so all linear algebra is wasted work; q=0.1
        makes every iteration ingest more messages. Its traced pass crosses the
        2-worker process pool with default BLAS threading, where pool workers
        oversubscribe the cores. Its timed passes run in one process: through
        the pool, consecutive passes took anywhere from 9 to 21 s on a 2-core
        machine, too unsteady to bound.
wide    The fig6 policies with degree-1 messages (the decoder never peels) at
        d = n_train = 4000, so mat-vecs dominate and set-up and memory matter.

Timed passes run at ``n_jobs=1``; every traced run also times one untraced
pass through the pool (``POOL_JOBS`` workers) for ``experiments.pool_speedup``.
Replica counts are cut from the presets' 10 so that one pass takes seconds.
"""

import os
import sys
from dataclasses import dataclass, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from codedgd import experiments  # noqa: E402

TABLE1_Q = (0.1, 0.2, 0.3)
POOL_JOBS = 2

# Toy shape used by the smoke test: same policies and message structure.
TOY = dict(n_blocks=4, n_workers=4, n_iterations=5, d=8, n_train=16,
           n_test=8, n_stragglers=1)


@dataclass(frozen=True)
class Workload:
    preset: str
    replicas: int
    grid: bool = False           # table1 grid over TABLE1_Q instead of one sweep
    traced_jobs: int = 1         # pool size of the traced pass
    overrides: tuple = ()        # (field, value) pairs applied to the preset


WORKLOADS = {
    "fig3": Workload("fig3", replicas=2),
    "table1": Workload("table1", replicas=1, grid=True, traced_jobs=POOL_JOBS),
    "wide": Workload("fig6", replicas=1, overrides=(("d", 4000), ("n_train", 4000))),
}


def default_seed(workload):
    return experiments.PRESET_SEEDS[workload.preset]


def config(workload, seed, toy=False):
    cfg = experiments.preset_config(workload.preset, seed=seed, replicas=workload.replicas)
    cfg = replace(cfg, **dict(workload.overrides))
    if toy:
        degrees = cfg.degrees if sum(cfg.degrees) <= TOY["n_blocks"] else (1, 1, 2)
        cfg = replace(cfg, degrees=degrees, **TOY)
    return cfg


def runs_per_pass(workload, cfg):
    """Training runs one pass makes: cells x policies x replicas."""
    cells = len(TABLE1_Q) if workload.grid else 1
    return cells * len(cfg.policies) * cfg.replicas


def iterations_per_pass(workload, cfg):
    """Simulated GD iterations one pass completes: runs x T."""
    return runs_per_pass(workload, cfg) * cfg.n_iterations


def run_pass(workload, cfg, out_dir, n_jobs=1):
    """One pass: the table1 grid, or a sweep writing its CSVs under out_dir."""
    if workload.grid:
        return experiments.table1_grid(cfg, TABLE1_Q, a_th=cfg.a_th, n_jobs=n_jobs)
    return experiments.run_experiment(replace(cfg, output_dir=out_dir), n_jobs=n_jobs)


def grid_sweeps(cfg, runs):
    """Regroup one in-process grid pass's TrainResults, in call order, into the
    per-q sweeps table1_grid built and discarded."""
    per_cell = len(cfg.policies) * cfg.replicas
    sweeps = {}
    for i, q in enumerate(TABLE1_Q):
        cell = runs[i * per_cell:(i + 1) * per_cell]
        sweep = experiments.SweepResult(replace(cfg, q=q, output_dir=""))
        for j, policy in enumerate(cfg.policies):
            sweep.runs[policy.name] = cell[j * cfg.replicas:(j + 1) * cfg.replicas]
        sweeps[q] = sweep
    return sweeps

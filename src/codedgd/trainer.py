"""Parameter-server training over simulated coded workers, in two parts.

The recovery process (`simulate_recovery`) never reads the model, and its
latency draws read neither the shift nor the decoder, so it draws every
iteration's completion times and arrival orders up front. Each iteration then
picks the vertical shift for the ordering policy, encodes the rotated (M, N)
assignment array, streams message block masks into the peeling decoder in
arrival order until the tolerance target is met, and advances the age table.
The run's record table (a length-T `np.recarray`, one row per iteration) gets
the recovery vector r, the shift, the wall time and the message and block
counts. `run_training` stops there, since ages and objectives need nothing
else; a `TrainResult` runs `masked_gd` on the first read of its theta or
losses: gradient descent masked by the table's r column, theta <- theta -
eta * r (.) (W theta - b), with r repeated over the d/K coordinates of each
block; r = 1 throughout is plain GD. Each step's W theta - b is one BLAS dsymv
(`problem.symv`), which reads one triangle of the symmetric W instead of all
d^2 entries.

The losses never feed back into either part, so they are evaluated over the
trajectory, not per step: each theta_t is copied into a d x EVAL_CHUNK buffer,
and each full buffer, plus the partial one at the end of the run, costs one
`evaluate` call, i.e. one GEMM on X_train and one on X_test. The chunk
boundaries depend on the iteration count alone.
"""

from dataclasses import dataclass, field

import numpy as np

from . import codec, latency
from .ages import AgeTable
from .decoder import RecoveryState, block_mask, recovery_target
from .problem import ConfigurationError, RegressionProblem, symv

EVAL_CHUNK = 128   # iterates per loss evaluation; its GEMM temporaries are n x EVAL_CHUNK


@dataclass(frozen=True)
class TrainConfig:
    n_blocks: int
    n_workers: int
    n_iterations: int
    eta: float
    q: float
    policy: codec.OrderPolicy
    degrees: tuple
    profile: latency.StragglerProfile
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.q < 1:
            raise ConfigurationError("q must be in [0, 1), got %g" % self.q)
        if not 0 < self.eta < np.inf:
            raise ConfigurationError("eta must be finite and > 0, got %g" % self.eta)
        for key in ("n_workers", "n_iterations"):
            if getattr(self, key) < 1:
                raise ConfigurationError("%s must be >= 1, got %d" % (key, getattr(self, key)))
        if not self.degrees or min(self.degrees) < 1:
            raise ConfigurationError("degrees must be non-empty and positive, got %s"
                                     % (self.degrees,))
        if self.memory > self.n_blocks:
            raise ConfigurationError("degrees sum to %d, more than n_blocks %d"
                                     % (self.memory, self.n_blocks))
        if self.profile.n_workers < self.n_workers:
            raise ConfigurationError("straggler profile covers %d workers, fewer than "
                                     "n_workers %d" % (self.profile.n_workers, self.n_workers))

    @property
    def memory(self):
        return int(sum(self.degrees))


@dataclass
class TrainResult:
    """One run's recovery output. The first read of `theta`, `train_losses()`
    or `test_losses()` runs the masked GD on `problem`, keeps theta_T and the
    losses, and drops `problem`. Pickling drops `problem` and runs no
    optimizer; `run_experiment` sets `problem` again on a pooled result.
    """
    config: TrainConfig
    records: np.recarray   # one row per iteration, see simulate_recovery
    ages: AgeTable
    problem: RegressionProblem = field(default=None, repr=False)
    _optimized: tuple = field(default=None, repr=False)   # (theta, train, test)

    def __getstate__(self):
        return dict(vars(self), problem=None)

    @property
    def exhausted_iterations(self):
        """Iterations, counted from 1, that ran out of messages short of the recovery target."""
        target = recovery_target(self.config.n_blocks, self.config.q)
        return (np.flatnonzero(self.records.recovered_count < target) + 1).tolist()

    @property
    def never_recovered(self):
        """Blocks, counted from 1, that no iteration recovered."""
        return (np.flatnonzero(~self.records.r.any(axis=0)) + 1).tolist()

    @property
    def theta(self):
        return self._optimize()[0]

    def train_losses(self):
        return self._optimize()[1]

    def test_losses(self):
        return self._optimize()[2]

    def recovery_matrix(self):
        return self.records.r

    def _optimize(self):
        if self._optimized is None:
            if self.problem is None:
                raise ValueError("losses not computed before pickling: set result.problem")
            self._optimized = masked_gd(self.problem, self.records.r, self.config.eta)
            self.problem = None
        return self._optimized


def masked_gd(problem, r, eta):
    """theta_T and the losses of theta_1..theta_T of masked GD from theta_0 = 0,
    one step per row of the T x K recovery matrix `r`; np.ones((T, 1)) is plain GD."""
    theta, train, test = np.zeros(problem.d), np.empty(len(r)), np.empty(len(r))
    chunk = np.empty((problem.d, EVAL_CHUNK), order="F")   # theta_t in column t % EVAL_CHUNK
    for t, r_t in enumerate(r):
        theta = apply_partial_update(theta, r_t, problem, eta)
        col = t % EVAL_CHUNK
        chunk[:, col] = theta
        if col == EVAL_CHUNK - 1 or t == len(r) - 1:
            train[t - col:t + 1], test[t - col:t + 1] = evaluate(chunk[:, :col + 1], problem)
    return theta, train, test


def evaluate(theta, problem):
    """Mean squared error (with the 1/2 factor) on the train and test splits.

    A 1-D `theta` gives two floats. A d x C matrix, one iterate per column,
    gives two length-C arrays from one GEMM per split; `masked_gd` evaluates
    its trajectory this way, EVAL_CHUNK iterates at a time. A column may
    differ from the 1-D call in the last bits, because GEMM and the mat-vec
    sum in different orders.
    """
    losses = []
    for X, y in ((problem.X_train, problem.y_train), (problem.X_test, problem.y_test)):
        residual = (X @ theta).T   # one row per iterate; in place keeps temporaries at n x C
        residual -= y
        residual *= residual
        losses.append(0.5 * residual.mean(axis=-1))
    return tuple(map(float, losses)) if theta.ndim == 1 else tuple(losses)


def apply_partial_update(theta, r, problem, eta):
    """Gradient step on recovered blocks only; unrecovered coordinates freeze.

    The gradient W @ theta - b is one symmetric mat-vec (`problem.symv`).
    """
    return theta - eta * np.repeat(r, problem.d // len(r)) * symv(problem.W, theta, problem.b)


def simulate_recovery(config, assignment, rng):
    """Run the recovery process alone; it never reads the model.

    Returns the record table and the AgeTable. The table is a length-T
    `np.recarray` with one row per iteration: the recovery vector `r` (int8,
    K), `shift_used`, `wall_time`, `n_ingested` and `recovered_count`. All T
    iterations' completion times come from one `latency.completion_times`
    call before the loop. `assignment` is the read-only (M, N) block-index
    array of `codec.build_rcs`. Only M distinct shifts exist, so each shift's
    codewords are encoded, and range-checked into block masks, once.
    """
    k, n_workers, n_iter = config.n_blocks, config.n_workers, config.n_iterations
    n_messages = len(config.degrees)
    times = latency.completion_times(config.profile, n_iter, n_workers, n_messages, rng)
    # Stable on the worker-major flattening: equal times arrive in worker order.
    times = times.reshape(n_iter, -1)
    arrivals = np.argsort(times, axis=1, kind="stable").tolist()

    ages = AgeTable(k)
    target = recovery_target(k, config.q)
    codewords = {}   # shift -> block mask of each message, worker-major
    adaptive_shift = 0
    records = np.recarray(n_iter, dtype=[
        ("r", np.int8, (k,)), ("shift_used", np.int64), ("wall_time", np.float64),
        ("n_ingested", np.int64), ("recovered_count", np.int64)])
    r_column, columns = records.r, []   # columns: shift, wall time, n_ingested, recovered
    for t, order in enumerate(arrivals, 1):
        shift = codec.shift_for_iteration(config.policy, t, config.memory, adaptive_shift)
        if shift not in codewords:
            codewords[shift] = [block_mask(members, k) for members in
                                codec.encode(codec.apply_order(assignment, shift), config.degrees)]
        masks = codewords[shift]

        state = RecoveryState(k, config.q)
        for msg in order[:target - 1]:   # n messages recover at most n blocks
            state.ingest(masks[msg])
        for msg in order[target - 1:]:
            state.ingest(masks[msg])
            if state.n_recovered >= target:
                break
        n = state.n_ingested
        r_column[t - 1], _ = state.finalize()
        ages.update(r_column[t - 1])
        if config.policy.kind == "adaptive":
            responsive = {msg // n_messages for msg in order[:n]}
            adaptive_shift = codec.select_adaptive_shift(
                assignment, ages.current, config.policy.a_th, responsive)
        columns.append((shift, times[t - 1, order[n - 1]] if n else 0.0, n, state.n_recovered))

    (records.shift_used, records.wall_time, records.n_ingested,
     records.recovered_count) = zip(*columns)
    return records, ages


def run_training(problem, config):
    """Simulate the recovery process of the run described by `config`.

    The result holds `problem` for the masked GD, which runs on first read.
    """
    ss = np.random.SeedSequence(config.seed)
    rcs_seed, latency_seed = ss.spawn(2)
    assignment = codec.build_rcs(config.n_blocks, config.n_workers, config.memory,
                                 np.random.default_rng(rcs_seed))
    records, ages = simulate_recovery(config, assignment, np.random.default_rng(latency_seed))
    return TrainResult(config, records, ages, problem)


def write_metrics_csv(result, path):
    rec = result.records
    rows = zip(range(1, len(rec) + 1), rec.wall_time.tolist(), rec.shift_used.tolist(),
               rec.recovered_count.tolist(), result.train_losses().tolist(),
               result.test_losses().tolist())
    with open(path, "w") as fh:
        fh.write("t,wall_time,shift_used,recovered_count,train_loss,test_loss\n")
        fh.writelines("%d,%.12g,%d,%d,%.12g,%.12g\n" % row for row in rows)

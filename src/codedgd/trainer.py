"""Parameter-server training over simulated coded workers, in two parts.

The recovery process (`simulate_recovery`) never reads the model. Each
iteration it picks the vertical shift for the ordering policy, encodes, draws
completion times, streams message indices into the peeling decoder in global
time order until the tolerance target is met, and advances the age table.
The optimizer (`run_training`) is then masked gradient descent driven by
each iteration's recovery vector r: theta <- theta - eta * r (.) (W theta - b),
with r repeated over the d/K coordinates of each block.

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
from .decoder import RecoveryState, recovery_target
from .problem import ConfigurationError

EVAL_CHUNK = 32   # iterates per loss evaluation; its GEMM temporaries are n x EVAL_CHUNK


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
        if not self.eta > 0:
            raise ConfigurationError("eta must be > 0, got %g" % self.eta)
        if self.n_iterations < 1:
            raise ConfigurationError("n_iterations must be >= 1, got %d" % self.n_iterations)
        if min(self.degrees) < 1:
            raise ConfigurationError("degrees must be positive, got %s" % (self.degrees,))
        if self.memory > self.n_blocks:
            raise ConfigurationError("degrees sum to %d, more than n_blocks %d"
                                     % (self.memory, self.n_blocks))
        if self.profile.n_workers < self.n_workers:
            raise ConfigurationError("straggler profile covers %d workers, fewer than "
                                     "n_workers %d" % (self.profile.n_workers, self.n_workers))

    @property
    def memory(self):
        return int(sum(self.degrees))


@dataclass(frozen=True)
class IterationRecord:
    t: int
    wall_time: float
    r: np.ndarray
    train_loss: float
    test_loss: float
    shift_used: int
    recovered_count: int
    n_ingested: int
    exhausted: bool


@dataclass
class TrainResult:
    config: TrainConfig
    assignment: codec.AssignmentMatrix
    records: list
    ages: AgeTable
    theta: np.ndarray
    exhausted_iterations: list = field(default_factory=list)

    def test_losses(self):
        return np.array([rec.test_loss for rec in self.records])

    def train_losses(self):
        return np.array([rec.train_loss for rec in self.records])

    def recovery_matrix(self):
        return np.array([rec.r for rec in self.records])


def evaluate(theta, problem):
    """Mean squared error (with the 1/2 factor) on the train and test splits.

    A 1-D `theta` gives two floats. A d x C matrix, one iterate per column,
    gives two length-C arrays from one GEMM per split; run_training and
    run_plain_gd evaluate their trajectories this way, EVAL_CHUNK iterates at
    a time. A column may differ from the 1-D call in the last bits, because
    GEMM and the mat-vec sum in different orders.
    """
    losses = []
    for X, y in ((problem.X_train, problem.y_train), (problem.X_test, problem.y_test)):
        residual = (X @ theta).T   # one row per iterate; in place keeps temporaries at n x C
        residual -= y
        residual *= residual
        losses.append(0.5 * residual.mean(axis=-1))
    return tuple(map(float, losses)) if theta.ndim == 1 else tuple(losses)


def apply_partial_update(theta, r, problem, eta):
    """Gradient step on recovered blocks only; unrecovered coordinates freeze."""
    return theta - eta * np.repeat(r, problem.d // len(r)) * (problem.W @ theta - problem.b)


def run_plain_gd(problem, eta, n_iterations):
    """Uncoded full-gradient descent, the convergence baseline."""
    theta = np.zeros(problem.d)
    trajectory = [theta.copy()]
    for _ in range(n_iterations):
        theta = theta - eta * (problem.W @ theta - problem.b)
        trajectory.append(theta.copy())
    losses = []
    for start in range(1, n_iterations + 1, EVAL_CHUNK):
        train, test = evaluate(np.column_stack(trajectory[start:start + EVAL_CHUNK]), problem)
        losses.extend(zip(train.tolist(), test.tolist()))
    return theta, trajectory, losses


def simulate_recovery(config, assignment, rng):
    """Run the recovery process alone; it never reads the model.

    Returns one (r, shift, wall_time, n_ingested) tuple per iteration and the
    AgeTable. Latency draws come from `rng`, in the order run_training uses.
    Only M distinct shifts exist, so each shift's codewords are encoded once.
    """
    k, n_workers = config.n_blocks, config.n_workers
    n_messages = len(config.degrees)
    ages = AgeTable(k)
    markov = config.profile.initial_markov()
    params = latency.worker_params(config.profile, n_workers, n_messages, markov)
    codewords = {}   # shift -> block indices of each message, worker-major
    adaptive_shift = 0
    steps = []

    for t in range(1, config.n_iterations + 1):
        if markov is not None:
            markov = latency.step_markov(markov, rng)
            params = latency.worker_params(config.profile, n_workers, n_messages, markov)
        shift = codec.shift_for_iteration(config.policy, t, config.memory, adaptive_shift)
        if shift not in codewords:
            codewords[shift] = codec.encode(codec.apply_order(assignment, shift), config.degrees)
        members = codewords[shift]

        # Stable on the worker-major flattening: equal times arrive in worker order.
        times = latency.sample_completion_times(params, rng).ravel()
        order = np.argsort(times, kind="stable").tolist()
        state = RecoveryState(k, config.q)
        for msg in order:
            state.ingest(members[msg])
            if state.is_complete():
                break
        arrived = order[:state.n_ingested]
        wall_time = times[arrived[-1]] if arrived else 0.0

        r, _ = state.finalize()
        ages.update(r)
        if config.policy.kind == "adaptive":
            responsive = {msg // n_messages for msg in arrived}
            adaptive_shift = codec.select_adaptive_shift(
                assignment, ages.current, config.policy.a_th, responsive)
        steps.append((r, shift, wall_time, state.n_ingested))

    return steps, ages


def run_training(problem, config, assignment=None):
    """Simulate the full training run described by `config`."""
    ss = np.random.SeedSequence(config.seed)
    rcs_seed, latency_seed = ss.spawn(2)
    if assignment is None:
        assignment = codec.build_rcs(config.n_blocks, config.n_workers, config.memory,
                                     np.random.default_rng(rcs_seed))
    steps, ages = simulate_recovery(config, assignment, np.random.default_rng(latency_seed))

    target = recovery_target(config.n_blocks, config.q)
    theta = np.zeros(problem.d)
    chunk = np.empty((problem.d, EVAL_CHUNK), order="F")   # theta_t in column t % EVAL_CHUNK
    train, test = np.empty(len(steps)), np.empty(len(steps))
    for t, (r, *_) in enumerate(steps):
        theta = apply_partial_update(theta, r, problem, config.eta)
        col = t % EVAL_CHUNK
        chunk[:, col] = theta
        if col == EVAL_CHUNK - 1 or t == len(steps) - 1:
            train[t - col:t + 1], test[t - col:t + 1] = evaluate(chunk[:, :col + 1], problem)
    records = []
    for t, ((r, shift, wall_time, n_ingested), train_loss, test_loss) in enumerate(
            zip(steps, train.tolist(), test.tolist()), 1):
        recovered = int(r.sum())
        records.append(IterationRecord(t, wall_time, r, train_loss, test_loss, shift,
                                       recovered, n_ingested, recovered < target))
    exhausted_iterations = [rec.t for rec in records if rec.exhausted]
    return TrainResult(config, assignment, records, ages, theta, exhausted_iterations)


def write_metrics_csv(result, path):
    with open(path, "w") as fh:
        fh.write("t,wall_time,shift_used,recovered_count,train_loss,test_loss\n")
        for rec in result.records:
            fh.write("%d,%.12g,%d,%d,%.12g,%.12g\n" % (
                rec.t, rec.wall_time, rec.shift_used, rec.recovered_count,
                rec.train_loss, rec.test_loss))

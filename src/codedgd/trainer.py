"""Parameter-server training over simulated coded workers, in two parts.

The recovery process (`simulate_recovery`) never reads the model. Each
iteration it picks the vertical shift for the ordering policy, encodes, draws
completion times, streams message indices into the peeling decoder in global
time order until the tolerance target is met, and advances the age table.
The optimizer (`run_training`) is then masked gradient descent driven by
each iteration's recovery vector r: theta <- theta - eta * r (.) (W theta - b),
with r repeated over the d/K coordinates of each block.
"""

from dataclasses import dataclass, field

import numpy as np

from . import codec, latency
from .ages import AgeTable
from .decoder import RecoveryState, recovery_target
from .problem import ConfigurationError


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
    age_threshold: int = 0   # threshold for reported age metrics; 0 = policy's a_th (or 1)

    def __post_init__(self):
        if not 0 <= self.q < 1:
            raise ValueError("q must be in [0, 1)")
        if self.eta <= 0 or self.n_iterations < 1:
            raise ValueError("need eta > 0 and n_iterations >= 1")
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
    """Mean squared error (with the 1/2 factor) on the train and test splits."""
    train = 0.5 * np.mean((problem.X_train @ theta - problem.y_train) ** 2)
    test = 0.5 * np.mean((problem.X_test @ theta - problem.y_test) ** 2)
    return float(train), float(test)


def apply_partial_update(theta, r, problem, eta):
    """Gradient step on recovered blocks only; unrecovered coordinates freeze."""
    return theta - eta * np.repeat(r, problem.d // len(r)) * (problem.W @ theta - problem.b)


def run_plain_gd(problem, eta, n_iterations, record_every=1):
    """Uncoded full-gradient descent, the convergence baseline."""
    theta = np.zeros(problem.d)
    trajectory = [theta.copy()]
    losses = []
    for t in range(1, n_iterations + 1):
        theta = theta - eta * (problem.W @ theta - problem.b)
        if t % record_every == 0:
            trajectory.append(theta.copy())
            losses.append(evaluate(theta, problem))
    return theta, trajectory, losses


def simulate_recovery(config, assignment, rng):
    """Run the recovery process alone; it never reads the model.

    Returns one (r, shift, wall_time, n_ingested) tuple per iteration and the
    AgeTable. Latency draws come from `rng`, in the order run_training uses.
    Only M distinct shifts exist, so each shift's codewords are encoded once.
    """
    k, n_workers = config.n_blocks, config.n_workers
    n_messages = len(config.degrees)
    ages = AgeTable(k, a_th=config.age_threshold or config.policy.a_th or 1)
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
            specs = codec.encode(codec.apply_order(assignment, shift), config.degrees)
            codewords[shift] = [spec.members for spec in specs]
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
    records = []
    for t, (r, shift, wall_time, n_ingested) in enumerate(steps, 1):
        theta = apply_partial_update(theta, r, problem, config.eta)
        train_loss, test_loss = evaluate(theta, problem)
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

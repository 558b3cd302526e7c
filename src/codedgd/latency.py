"""Per-worker completion-time models.

A worker performing s identical block computations finishes the s-th one at
T_s = s * (alpha + Y) with a single Y ~ Exp(mu) drawn per iteration, so the
marginal law is P(T_s <= t) = 1 - exp(-mu (t/s - alpha)) for t >= s*alpha
and send times are strictly increasing within an iteration.
"""

from dataclasses import dataclass, replace

import numpy as np

from .problem import ConfigurationError


@dataclass(frozen=True)
class LatencyParams:
    """Scalar mu and alpha for one worker, or arrays with one entry per worker."""

    mu: float
    alpha: float
    n_messages: int

    def __post_init__(self):
        if np.any(self.mu <= 0) or np.any(self.alpha < 0):
            raise ValueError("need mu > 0 and alpha >= 0")


def sample_completion_times(params, rng):
    """Completion times T_1 < ... < T_L of one iteration.

    Scalar params give one worker's L times. Array params give an N x L array
    from a single vectorised draw, which takes the same values from `rng`,
    in worker order, as N scalar draws and leaves it in the same state.
    """
    y = rng.exponential(1.0 / params.mu)
    return np.multiply.outer(params.alpha + y, np.arange(1, params.n_messages + 1))


def completion_cdf(t, s, mu, alpha):
    """Closed-form P(T_s <= t)."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= s * alpha, 1.0 - np.exp(-mu * (t / s - alpha)), 0.0)


@dataclass(frozen=True)
class MarkovStragglerModel:
    """Two-speed worker model; each worker flips state w.p. p per iteration."""

    p: float
    mu_fast: float
    mu_slow: float
    slow: np.ndarray   # boolean, True while the worker is in the slow state

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError("p must be in [0, 1]")
        if not self.mu_fast > self.mu_slow > 0:
            raise ValueError("need mu_fast > mu_slow > 0")


def step_markov(model, rng):
    """State update at the start of an iteration; returns the new model."""
    flips = rng.random(model.slow.shape[0]) < model.p
    return replace(model, slow=np.logical_xor(model.slow, flips))


PROFILE_KINDS = ("homogeneous", "persistent", "markov")


@dataclass(frozen=True)
class StragglerProfile:
    kind: str
    n_workers: int
    mu: float = 10.0
    alpha: float = 0.01
    persistent_set: frozenset = frozenset()
    alpha_straggler: float = 10.0
    p: float = 0.0
    mu_slow: float = 2.0
    initial_slow: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError("unknown profile kind %r" % self.kind)
        if not self.mu > 0:
            raise ConfigurationError("mu must be > 0, got %g" % self.mu)
        for key in ("alpha", "alpha_straggler"):
            if not getattr(self, key) >= 0:
                raise ConfigurationError("%s must be >= 0, got %g" % (key, getattr(self, key)))
        if self.kind == "markov":
            if not self.mu > self.mu_slow > 0:
                raise ConfigurationError("markov profile needs mu > mu_slow > 0, got mu=%g "
                                         "mu_slow=%g" % (self.mu, self.mu_slow))
            if not 0 <= self.p <= 1:
                raise ConfigurationError("markov flip probability p must be in [0, 1], "
                                         "got p=%g" % self.p)
        workers = range(self.n_workers)
        if not self.persistent_set <= set(workers):
            raise ValueError("persistent_set contains unknown worker ids")
        if not self.initial_slow <= set(workers):
            raise ValueError("initial_slow contains unknown worker ids")

    def initial_markov(self):
        if self.kind != "markov":
            return None
        slow = np.zeros(self.n_workers, dtype=bool)
        slow[list(self.initial_slow)] = True
        return MarkovStragglerModel(self.p, self.mu, self.mu_slow, slow)


def effective_params(profile, worker, n_messages, markov=None):
    """Latency parameters of one worker for the current iteration."""
    if not 0 <= worker < profile.n_workers:
        raise ValueError("unknown worker id %d" % worker)
    if profile.kind == "homogeneous":
        return LatencyParams(profile.mu, profile.alpha, n_messages)
    if profile.kind == "persistent":
        alpha = profile.alpha_straggler if worker in profile.persistent_set else profile.alpha
        return LatencyParams(profile.mu, alpha, n_messages)
    mu = profile.mu_slow if markov.slow[worker] else profile.mu
    return LatencyParams(mu, profile.alpha, n_messages)


def worker_params(profile, n_workers, n_messages, markov=None):
    """effective_params of workers 0..n_workers-1 at once, as per-worker arrays."""
    mu = np.full(n_workers, profile.mu)
    alpha = np.full(n_workers, profile.alpha)
    if profile.kind == "persistent":
        alpha[[i for i in profile.persistent_set if i < n_workers]] = profile.alpha_straggler
    elif profile.kind == "markov":
        mu[markov.slow[:n_workers]] = profile.mu_slow
    return LatencyParams(mu, alpha, n_messages)

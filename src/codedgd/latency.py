"""Per-worker completion-time model.

A worker performing s identical block computations finishes the s-th one at
T_s = s * (alpha + Y) with a single Y ~ Exp(mu) drawn per iteration, so the
marginal law is P(T_s <= t) = 1 - exp(-mu (t/s - alpha)) for t >= s*alpha
and send times are strictly increasing within an iteration. A straggler
profile sets each worker's mu and alpha; `completion_times` draws a run's
(T, N, L) times from it.
"""

from dataclasses import dataclass, replace

import numpy as np

from .problem import ConfigurationError


def sample_completion_times(mu, alpha, n_messages, rng):
    """Completion times T_1 < ... < T_L, one Y ~ Exp(mu) per entry of mu.

    Scalars give one worker's L times; arrays give `mu.shape + (L,)` from one
    draw, with the values and final `rng` state of scalar draws in C order.
    """
    if np.any(mu <= 0) or np.any(alpha < 0):
        raise ValueError("need mu > 0 and alpha >= 0")
    y = rng.exponential(1.0 / mu)
    return np.multiply.outer(alpha + y, np.arange(1, n_messages + 1))


def completion_cdf(t, s, mu, alpha):
    """Closed-form P(T_s <= t)."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= s * alpha, 1.0 - np.exp(-mu * (t / s - alpha)), 0.0)


@dataclass(frozen=True)
class MarkovStragglerModel:
    """Two-speed worker states; each worker flips state w.p. p per iteration."""

    p: float
    slow: np.ndarray   # boolean, True while the worker is in the slow state

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError("p must be in [0, 1]")


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
            raise ConfigurationError("profile kind must be one of %s, got %r"
                                     % (", ".join(PROFILE_KINDS), self.kind))
        if not 0 < self.mu < np.inf:
            raise ConfigurationError("mu must be finite and > 0, got %g" % self.mu)
        for key in ("alpha", "alpha_straggler"):
            if not 0 <= getattr(self, key) < np.inf:
                raise ConfigurationError("%s = %g is not in [0, inf)" % (key, getattr(self, key)))
        if self.kind == "markov":
            if not self.mu > self.mu_slow > 0:
                raise ConfigurationError("markov profile needs mu > mu_slow > 0, got mu=%g "
                                         "mu_slow=%g" % (self.mu, self.mu_slow))
            if not 0 <= self.p <= 1:
                raise ConfigurationError("markov flip probability p must be in [0, 1], "
                                         "got p=%g" % self.p)
        for key in ("persistent_set", "initial_slow"):
            if not getattr(self, key) <= set(range(self.n_workers)):
                raise ConfigurationError("%s contains unknown worker ids" % key)

    def initial_markov(self):
        if self.kind != "markov":
            return None
        slow = np.zeros(self.n_workers, dtype=bool)
        slow[list(self.initial_slow)] = True
        return MarkovStragglerModel(self.p, slow)


def effective_params(profile, n_workers, markov=None):
    """(mu, alpha) of workers 0..n_workers-1 for the current iteration, one entry each."""
    if n_workers > profile.n_workers:
        raise ValueError("profile covers %d workers, fewer than %d"
                         % (profile.n_workers, n_workers))
    mu = np.full(n_workers, profile.mu)
    alpha = np.full(n_workers, profile.alpha)
    if profile.kind == "persistent":
        alpha[[i for i in profile.persistent_set if i < n_workers]] = profile.alpha_straggler
    elif profile.kind == "markov":
        mu[markov.slow[:n_workers]] = profile.mu_slow
    return mu, alpha


def completion_times(profile, n_iterations, n_workers, n_messages, rng):
    """A run's (T, N, L) completion times, with the values and final `rng`
    state of per-iteration, per-worker draws: one draw over a (T, N) mu for a
    fixed profile, or a Markov step and a draw per iteration."""
    markov = profile.initial_markov()
    if markov is None:
        mu, alpha = effective_params(profile, n_workers)
        return sample_completion_times(np.broadcast_to(mu, (n_iterations, n_workers)),
                                       alpha, n_messages, rng)
    times = np.empty((n_iterations, n_workers, n_messages))
    for row in times:
        markov = step_markov(markov, rng)
        row[:] = sample_completion_times(*effective_params(profile, n_workers, markov),
                                         n_messages, rng)
    return times

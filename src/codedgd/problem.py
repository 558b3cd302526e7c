"""Synthetic least-squares instance."""

from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class RegressionProblem:
    """A least-squares instance with its Gram matrix precomputed.

    The gradient used throughout is W @ theta - b (unnormalized); features
    are scaled by 1/sqrt(N) at generation time so the spectrum of W stays
    O(1) and a fixed learning rate is usable.
    """

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    W: np.ndarray
    b: np.ndarray
    theta_star: np.ndarray

    @property
    def d(self):
        return self.W.shape[0]


def generate_problem(n_train, n_test, d, noise_std=0.0, seed=0):
    """Build a synthetic regression instance, deterministic under `seed`."""
    if n_train <= 0 or n_test <= 0 or d <= 0:
        raise ConfigurationError(
            "n_train, n_test, d must be positive, got (%s, %s, %s)" % (n_train, n_test, d)
        )
    rng = np.random.default_rng(seed)
    theta_star = rng.standard_normal(d)
    X_train = rng.standard_normal((n_train, d)) / np.sqrt(n_train)
    X_test = rng.standard_normal((n_test, d)) / np.sqrt(n_test)
    y_train = X_train @ theta_star
    y_test = X_test @ theta_star
    if noise_std > 0:
        y_train = y_train + noise_std * rng.standard_normal(n_train)
        y_test = y_test + noise_std * rng.standard_normal(n_test)
    W = X_train.T @ X_train
    b = X_train.T @ y_train
    return RegressionProblem(X_train, y_train, X_test, y_test, W, b, theta_star)


def largest_eigenvalue(W):
    """Estimate lambda_max of the symmetric PSD matrix W by 40 power-iteration steps.

    The Rayleigh quotient approaches lambda_max from below, so a step-size
    bound 2 / estimate is never tighter than the true 2 / lambda_max.
    """
    v = np.random.default_rng(0).standard_normal(W.shape[0])
    for _ in range(40):
        v = W @ v
        v /= np.linalg.norm(v)
    return float(v @ (W @ v))

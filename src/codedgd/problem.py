"""Synthetic least-squares instance and its exact gradient."""

import json
import os
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


def full_gradient(problem, theta):
    """Exact gradient W @ theta - b."""
    theta = np.asarray(theta)
    if theta.shape != (problem.d,):
        raise ValueError("theta has shape %s, expected (%d,)" % (theta.shape, problem.d))
    return problem.W @ theta - problem.b


# Optional dump of the generated instance for cross-implementation checks.
# Binary files are row-major little-endian float64; dims.json carries shapes.

_FIELDS = ("X_train", "y_train", "X_test", "y_test", "theta_star")


def export_problem(problem, out_dir, fmt="binary"):
    os.makedirs(out_dir, exist_ok=True)
    dims = {}
    for name in _FIELDS:
        arr = np.ascontiguousarray(getattr(problem, name), dtype="<f8")
        dims[name] = list(arr.shape)
        if fmt == "binary":
            arr.tofile(os.path.join(out_dir, name + ".bin"))
        elif fmt == "csv":
            np.savetxt(os.path.join(out_dir, name + ".csv"),
                       arr.reshape(arr.shape[0], -1), delimiter=",")
        else:
            raise ConfigurationError("unknown format %r" % fmt)
    with open(os.path.join(out_dir, "dims.json"), "w") as fh:
        json.dump({"format": fmt, "dims": dims}, fh, indent=2)


def import_problem(in_dir):
    with open(os.path.join(in_dir, "dims.json")) as fh:
        meta = json.load(fh)
    arrays = {}
    for name in _FIELDS:
        shape = tuple(meta["dims"][name])
        if meta["format"] == "binary":
            arr = np.fromfile(os.path.join(in_dir, name + ".bin"), dtype="<f8")
        else:
            arr = np.loadtxt(os.path.join(in_dir, name + ".csv"), delimiter=",", ndmin=1)
        arrays[name] = arr.reshape(shape).astype(np.float64)
    W = arrays["X_train"].T @ arrays["X_train"]
    b = arrays["X_train"].T @ arrays["y_train"]
    return RegressionProblem(W=W, b=b, **arrays)

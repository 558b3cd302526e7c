import numpy as np
import pytest

from codedgd import (ConfigurationError, ExperimentConfig, apply_partial_update,
                     evaluate, generate_problem, run_plain_gd)
from codedgd.problem import largest_eigenvalue


@pytest.fixture(scope="module")
def small_problem():
    return generate_problem(50, 10, 10, noise_std=0.1, seed=3)


def test_full_scale_instance_invariants():
    p = generate_problem(2000, 400, 1000, noise_std=0.0, seed=1)
    assert np.linalg.norm(p.b - p.X_train.T @ p.y_train) == 0.0
    eigs = np.linalg.eigvalsh(p.W)
    assert eigs.min() >= -1e-9 * eigs.max()
    # power iteration approaches lambda_max from below, so 2 / estimate never rejects a stable eta
    assert 0.98 * eigs.max() <= largest_eigenvalue(p.W) <= eigs.max() * (1 + 1e-12)


def test_noiseless_labels_exact():
    p = generate_problem(4, 2, 2, noise_std=0.0, seed=7)
    assert np.array_equal(p.y_train, p.X_train @ p.theta_star)
    assert np.array_equal(p.y_test, p.X_test @ p.theta_star)


def test_gd_reaches_normal_equations_optimum(small_problem):
    p = small_problem
    theta_opt, *_ = np.linalg.lstsq(p.X_train, p.y_train, rcond=None)
    loss_opt, _ = evaluate(theta_opt, p)
    theta, _, _ = run_plain_gd(p, eta=0.1, n_iterations=500)
    loss_gd, _ = evaluate(theta, p)
    assert abs(loss_gd - loss_opt) < 1e-6


def test_determinism_under_seed():
    a = generate_problem(30, 5, 6, noise_std=0.2, seed=11)
    b = generate_problem(30, 5, 6, noise_std=0.2, seed=11)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.y_test, b.y_test)


def test_invalid_dimensions():
    with pytest.raises(ConfigurationError):
        generate_problem(0, 10, 5, 0.0, seed=1)
    with pytest.raises(ConfigurationError):
        generate_problem(10, 10, -1, 0.0, seed=1)


def full_step(p, theta, eta=1.0):
    """Masked update with every block recovered: theta - eta * (W @ theta - b)."""
    return apply_partial_update(theta, np.ones(p.d, dtype=np.int8), p, eta)


def test_gradient_at_zero_is_minus_b(small_problem):
    step = full_step(small_problem, np.zeros(10), eta=0.1)
    assert np.array_equal(step, 0.1 * small_problem.b)


def test_gradient_vanishes_at_generator_noiseless():
    p = generate_problem(40, 10, 8, noise_std=0.0, seed=5)
    g = p.W @ p.theta_star - p.b
    assert np.linalg.norm(g) <= 1e-8 * np.linalg.norm(p.b)


def test_gradient_matches_finite_differences(small_problem):
    # gradient of the sum-of-squares loss 0.5 * sum((X theta - y)^2)
    p = small_problem
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(10)

    def loss(th):
        return 0.5 * np.sum((p.X_train @ th - p.y_train) ** 2)

    h = 1e-6
    fd = np.zeros(10)
    for i in range(10):
        e = np.zeros(10)
        e[i] = h
        fd[i] = (loss(theta + e) - loss(theta - e)) / (2 * h)
    g = theta - full_step(p, theta)
    assert np.linalg.norm(g - fd) <= 1e-4 * np.linalg.norm(g)


# Block k of K is rows k*d/K .. (k+1)*d/K of W: the masked update expresses
# the partition by repeating each block's recovery flag over its d/K rows.

def block_step(p, theta, k, n_blocks, eta=0.1):
    """Masked update with only block k recovered, minus theta."""
    r = np.zeros(n_blocks, dtype=np.int8)
    r[k] = 1
    return apply_partial_update(theta, r, p, eta) - theta


def test_partition_default_shape():
    p = generate_problem(100, 10, 1000, noise_std=0.0, seed=2)
    theta = np.random.default_rng(0).standard_normal(1000)
    for k in (0, 17, 39):
        moved = np.flatnonzero(block_step(p, theta, k, 40))
        assert moved.tolist() == list(range(25 * k, 25 * (k + 1)))


def test_partition_unit_blocks():
    p = generate_problem(10, 4, 4, noise_std=0.0, seed=2)
    theta = np.random.default_rng(1).standard_normal(4)
    for k in range(4):
        step = block_step(p, theta, k, 4)
        assert step[k] == pytest.approx(-0.1 * (p.W[k] @ theta - p.b[k]), rel=1e-12)
        assert np.count_nonzero(step) == 1


def test_partition_reconstructs_matvec():
    p = generate_problem(30, 6, 20, noise_std=0.0, seed=9)
    rng = np.random.default_rng(1)
    for _ in range(100):
        theta = rng.standard_normal(20)
        stacked = np.concatenate([block_step(p, theta, k, 5)[4 * k:4 * (k + 1)]
                                  for k in range(5)])
        full = -0.1 * (p.W @ theta - p.b)
        assert np.linalg.norm(stacked - full) <= 1e-10 * np.linalg.norm(full)


def test_partition_requires_divisibility():
    with pytest.raises(ConfigurationError, match="n_blocks"):
        ExperimentConfig(d=10, n_blocks=3)

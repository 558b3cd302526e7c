import numpy as np
import pytest

from codedgd import (ConfigurationError, ExperimentConfig, apply_partial_update,
                     evaluate, generate_problem)
from codedgd import problem as problem_mod
from codedgd.problem import RegressionProblem, largest_eigenvalue, symv


def exact_gd(p, eta, n_iterations):
    """theta_1, ..., theta_T of full-gradient descent from 0, with W @ theta - b:
    the oracle for masked GD, sharing neither `symv` nor `masked_gd` with it."""
    thetas = [np.zeros(p.d)]
    for _ in range(n_iterations):
        thetas.append(thetas[-1] - eta * (p.W @ thetas[-1] - p.b))
    return thetas[1:]


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
    loss_gd, _ = evaluate(exact_gd(p, eta=0.1, n_iterations=500)[-1], p)
    assert abs(loss_gd - loss_opt) < 1e-6


def test_determinism_under_seed():
    a = generate_problem(30, 5, 6, noise_std=0.2, seed=11)
    b = generate_problem(30, 5, 6, noise_std=0.2, seed=11)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.y_test, b.y_test)


def test_features_are_scaled_draws():
    p = generate_problem(30, 7, 5, noise_std=0.2, seed=4)
    rng = np.random.default_rng(4)
    rng.standard_normal(5)   # theta_star
    assert p.X_train.tobytes() == (rng.standard_normal((30, 5)) / np.sqrt(30)).tobytes()
    assert p.X_test.tobytes() == (rng.standard_normal((7, 5)) / np.sqrt(7)).tobytes()


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


# symv reads only the lower triangle of W, so W must be exactly symmetric.

@pytest.mark.parametrize("d", [1, 8, 20, 1000])
def test_generated_gram_matrix_is_symmetric_and_c_contiguous(d):
    p = generate_problem(2 * d, 4, d, noise_std=0.1, seed=d)
    assert np.array_equal(p.W, p.W.T)
    assert p.W.flags.c_contiguous and p.W.dtype == np.float64


@pytest.mark.parametrize("d", [1, 8, 20, 1000])
def test_symv_matches_matvec(d):
    p = generate_problem(2 * d, 4, d, noise_std=0.1, seed=d)
    b_before = p.b.copy()
    rng = np.random.default_rng(d)
    stacked = rng.standard_normal((d, 3))
    xs = {"c_order_column": stacked[:, 1],              # strided view of a C-order matrix
          "f_order_column": np.asfortranarray(stacked)[:, 1],
          "integer": rng.integers(-5, 6, size=d)}
    for name, x in xs.items():
        x_before = x.copy()
        expected = p.W @ x - p.b
        got = symv(p.W, x, p.b)
        assert got.dtype == np.float64 and got.shape == (d,)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()), name
        assert np.array_equal(x, x_before) and x.dtype == x_before.dtype, name
        assert got is not p.b
    assert np.array_equal(p.b, b_before)


def test_numpy_openblas64_exports_dsymv():
    # numpy wheels link scipy-openblas built with 64-bit integers; only another BLAS may lack it.
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas" or "USE64BITINT" not in blas.get(
            "openblas configuration", ""):
        pytest.skip("numpy is not linked against scipy-openblas64")
    assert problem_mod._DSYMV is not None


def test_symv_fallback_is_the_plain_matvec(monkeypatch):
    p = generate_problem(40, 4, 20, noise_std=0.1, seed=4)
    x = np.random.default_rng(0).standard_normal(20)
    monkeypatch.setattr(problem_mod, "_DSYMV", None)
    assert np.array_equal(symv(p.W, x, p.b), p.W @ x - p.b)
    theta = apply_partial_update(x, np.ones(4, dtype=np.int8), p, 0.1)
    assert np.array_equal(theta, x - 0.1 * np.ones(20) * (p.W @ x - p.b))


@pytest.mark.parametrize("layout", ["fortran_order", "strided", "float32"])
def test_symv_rejects_a_w_it_cannot_read(layout):
    p = generate_problem(40, 4, 20, noise_std=0.1, seed=4)
    W = {"fortran_order": np.asfortranarray(p.W),
         "strided": np.repeat(p.W, 2, axis=1)[:, ::2],
         "float32": p.W.astype(np.float32)}[layout]
    hand_built = RegressionProblem(p.X_train, p.y_train, p.X_test, p.y_test, W, p.b,
                                   p.theta_star)
    theta = np.random.default_rng(0).standard_normal(20)
    with pytest.raises(ConfigurationError, match="C-contiguous float64"):
        apply_partial_update(theta, np.ones(4, dtype=np.int8), hand_built, 0.1)
    with pytest.raises(ConfigurationError, match="C-contiguous float64"):
        largest_eigenvalue(W)


def test_symv_rejects_mismatched_vectors():
    p = generate_problem(40, 4, 20, noise_std=0.1, seed=4)
    with pytest.raises(ConfigurationError, match="length-d"):
        symv(p.W, np.ones(19), p.b)
    with pytest.raises(ConfigurationError, match="length-d"):
        symv(p.W, np.ones(20), p.b[:10])

"""Synthetic least-squares instance, and the symmetric mat-vec on its Gram matrix.

Every product with W goes through `symv`: BLAS dsymv (Dongarra, Du Croz,
Hammarling and Hanson, ACM TOMS 14(1), 1988) reads one triangle of W, half the
bytes of numpy's gemv. It is the `cblas_dsymv` of the OpenBLAS that numpy
already links, looked up once at import through ctypes.
"""

import ctypes
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class RegressionProblem:
    """A least-squares instance with its Gram matrix precomputed.

    The gradient used throughout is W @ theta - b (unnormalized), computed by
    `symv`, so W must be exactly symmetric, C-contiguous and float64; features
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
    X_train, X_test = rng.standard_normal((n_train, d)), rng.standard_normal((n_test, d))
    X_train /= np.sqrt(n_train)   # in place: no second n x d array
    X_test /= np.sqrt(n_test)
    y_train = X_train @ theta_star
    y_test = X_test @ theta_star
    if noise_std > 0:
        y_train = y_train + noise_std * rng.standard_normal(n_train)
        y_test = y_test + noise_std * rng.standard_normal(n_test)
    W = X_train.T @ X_train
    b = X_train.T @ y_train
    return RegressionProblem(X_train, y_train, X_test, y_test, W, b, theta_star)


def _find_dsymv():
    """numpy's ILP64 OpenBLAS `cblas_dsymv`, or None when numpy's BLAS does not export it."""
    try:
        from numpy._core import _multiarray_umath
        fn = ctypes.CDLL(_multiarray_umath.__file__).scipy_cblas_dsymv64_
    except (ImportError, OSError, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    # order, uplo, n, alpha, A, lda, x, incx, beta, y, incy
    fn.argtypes = [ctypes.c_int, ctypes.c_int, i64, ctypes.c_double, ptr, i64,
                   ptr, i64, ctypes.c_double, ptr, i64]
    fn.restype = None
    return fn


_DSYMV = _find_dsymv()
_ROW_MAJOR, _LOWER = 101, 122   # CBLAS_ORDER and CBLAS_UPLO enum values


def symv(W, x, b):
    """Return W @ x - b for a symmetric W, reading only its lower triangle.

    One dsymv, y <- W x - y, with y a fresh copy of b: dsymv overwrites y,
    and beta = 0 on an uninitialised buffer could carry NaN into the result.
    W must be a C-contiguous float64 (d, d) array, as `generate_problem`
    builds it; x and b are length-d vectors. The last bits of the result
    depend on the BLAS thread count. Without the OpenBLAS symbol this is
    `W @ x - b`.
    """
    n = len(W)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.array(b, dtype=np.float64)
    if not (W.dtype == np.float64 and W.flags.c_contiguous and W.shape == (n, n)
            and x.shape == y.shape == (n,)):
        raise ConfigurationError(
            "symv needs a C-contiguous float64 (d, d) W and length-d x and b, got W %s %s "
            "(C-contiguous: %s), x %s, b %s"
            % (W.dtype, W.shape, W.flags.c_contiguous, x.shape, y.shape))
    if _DSYMV is None:
        return W @ x - b
    _DSYMV(_ROW_MAJOR, _LOWER, n, 1.0, W.ctypes.data, n, x.ctypes.data, 1, -1.0, y.ctypes.data, 1)
    return y


def largest_eigenvalue(W):
    """Estimate lambda_max of the symmetric PSD matrix W by 40 power-iteration steps.

    The Rayleigh quotient approaches lambda_max from below, so a step-size
    bound 2 / estimate is never tighter than the true 2 / lambda_max.
    """
    v = np.random.default_rng(0).standard_normal(W.shape[0])
    zero = np.zeros_like(v)
    for _ in range(40):
        v = symv(W, v, zero)
        v /= np.linalg.norm(v)
    return float(v @ symv(W, v, zero))

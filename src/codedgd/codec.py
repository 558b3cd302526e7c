"""Circularly shifted assignment matrices, ordering policies, and encoding.

An assignment matrix is a read-only (M, N) int array of 0-based block
indices: row j is (0, 1, ..., K-1) circularly shifted by matrix[j, 0], and
no column repeats a block index because the shifts are pairwise distinct.
"""

from dataclasses import dataclass

import numpy as np

from .problem import ConfigurationError

POLICY_KINDS = ("static", "fixed_shift", "adaptive")


@dataclass(frozen=True)
class OrderPolicy:
    kind: str
    a_th: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigurationError("unknown policy kind %r" % self.kind)
        if self.kind == "adaptive" and self.a_th < 1:
            raise ConfigurationError("adaptive policy needs a_th >= 1")


def from_shifts(n_blocks, n_workers, shifts):
    """Assignment matrix whose row j holds (i + shifts[j]) mod K at column i."""
    shifts = tuple(int(s) for s in shifts)
    if len(set(shifts)) != len(shifts):
        raise ConfigurationError("row shifts must be pairwise distinct")
    cols = np.arange(n_workers)
    matrix = np.array([(cols + s) % n_blocks for s in shifts])
    matrix.setflags(write=False)
    return matrix


def build_rcs(n_blocks, n_workers, memory, seed):
    """Sample `memory` distinct circular shifts and stack the shifted rows."""
    if memory > n_blocks:
        raise ConfigurationError(
            "memory %d exceeds n_blocks %d (not enough distinct shifts)" % (memory, n_blocks)
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shifts = rng.choice(n_blocks, size=memory, replace=False)
    return from_shifts(n_blocks, n_workers, shifts)


def shift_for_iteration(policy, t, memory, adaptive_shift=0):
    """Vertical shift used at 1-based iteration t under the given policy.

    The fixed-shift policy advances one row per iteration (period M); the
    adaptive policy uses the amount chosen after the previous iteration.
    """
    if policy.kind == "static":
        return 0
    if policy.kind == "fixed_shift":
        return (t - 1) % memory
    return adaptive_shift % memory


def apply_order(matrix, shift):
    """Rotate every column up by `shift`: row r takes the old row (r+shift) mod M."""
    if not 0 <= shift < len(matrix):
        raise ValueError("shift %d outside [0, %d)" % (shift, len(matrix)))
    if shift == 0:
        return matrix
    rolled = np.roll(matrix, -shift, axis=0)
    rolled.setflags(write=False)
    return rolled


def select_adaptive_shift(matrix, ages, a_th, responsive):
    """Shift placing the most over-threshold blocks first among responsive workers.

    Enumerates all M shifts; after shift sigma, worker i's first computation
    is matrix[sigma, i]. Ties break toward the smallest shift; an
    empty responsive set falls back to shift 0.
    """
    responsive = sorted(responsive)
    if not responsive:
        return 0
    ages = np.asarray(ages)
    sub = matrix[:, responsive]
    counts = (ages[sub] > a_th).sum(axis=1)
    return int(np.argmax(counts))


def encode(matrix, degrees):
    """Split each column top-down into groups of sizes degrees[0..L-1].

    Returns each message's block indices as a tuple, worker-major: message
    ell of worker i sits at i * len(degrees) + ell. The runtime value of a
    codeword is the plain sum of its members' products.
    """
    degrees = tuple(int(m) for m in degrees)
    if any(m < 1 for m in degrees):
        raise ConfigurationError("degree vector entries must be positive")
    if sum(degrees) != len(matrix):
        raise ConfigurationError(
            "degree vector sums to %d, memory is %d" % (sum(degrees), len(matrix))
        )
    bounds = np.cumsum((0,) + degrees).tolist()
    return [tuple(col[lo:hi]) for col in matrix.T.tolist()
            for lo, hi in zip(bounds, bounds[1:])]

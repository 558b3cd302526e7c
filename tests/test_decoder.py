import itertools

import numpy as np
import pytest

from codedgd import RecoveryState, recovery_target
from codedgd.decoder import ProtocolError


def random_blocks(n_blocks, rows, rng):
    return rng.standard_normal((n_blocks, rows))


def test_degree_one_recovers_immediately():
    state = RecoveryState(4, tolerance=0.0)
    assert state.ingest([1]) == [1]
    assert state.recovered == {1}


def test_degree_two_peels_against_known_member():
    state = RecoveryState(12, tolerance=0.0)
    state.ingest([3])
    newly = state.ingest([3, 10])
    assert newly == [10]
    assert state.recovered == {3, 10}


def test_example_column_peels_sequentially():
    # worker 1's codewords from the 6-entry example column: degrees 1, 2, 3.
    # The column alone only yields the degree-1 block; the rest resolve as
    # degree-1 help arrives.
    members = [(0,), (3, 10), (14, 5, 17)]
    state = RecoveryState(20, tolerance=0.0)
    unlocked = []
    for ms in members:
        unlocked += state.ingest(ms)
    assert set(unlocked) == {0}
    assert len(state.pending) == 2
    assert set(state.ingest([10])) == {10, 3}
    assert state.ingest([5]) == [5]
    assert set(state.ingest([17])) == {17, 14}
    r, recovered = state.finalize()
    assert set(np.flatnonzero(r)) == recovered == {0, 3, 10, 14, 5, 17}


def test_pending_cascade_across_equations():
    state = RecoveryState(5, tolerance=0.0)
    assert state.ingest([0, 1]) == []
    assert state.ingest([1, 2]) == []
    newly = state.ingest([0])
    assert set(newly) == {0, 1, 2}


def test_recovery_target_values():
    assert recovery_target(40, 0.3) == 28
    assert recovery_target(40, 0.0) == 40
    assert recovery_target(40, 0.2) == 32
    with pytest.raises(ValueError):
        recovery_target(40, 1.0)


def test_is_complete_threshold():
    state = RecoveryState(40, tolerance=0.3)
    for k in range(27):
        state.ingest([k])
        assert not state.is_complete()
    state.ingest([27])
    assert state.is_complete()


def test_finalize_all_and_none():
    full = RecoveryState(6, tolerance=0.0)
    for k in range(6):
        full.ingest([k])
    r, recovered = full.finalize()
    assert np.all(r == 1) and recovered == set(range(6))
    empty = RecoveryState(6, tolerance=0.0)
    r, recovered = empty.finalize()
    assert np.all(r == 0) and recovered == set()


def test_duplicate_information_discarded():
    state = RecoveryState(3, tolerance=0.0)
    state.ingest([0])
    state.ingest([1])
    assert state.ingest([0, 1]) == []
    assert len(state.pending) == 0


def test_member_out_of_range_rejected():
    state = RecoveryState(4, tolerance=0.0)
    with pytest.raises(ProtocolError):
        state.ingest((7,))
    assert state.n_ingested == 0


def gaussian_recoverable(equations, n_blocks):
    """Blocks whose unit vector lies in the row space of the 0/1 system."""
    if not equations:
        return set()
    a = np.zeros((len(equations), n_blocks))
    for row, members in enumerate(equations):
        a[row, list(members)] = 1.0
    rank = np.linalg.matrix_rank(a)
    recoverable = set()
    for k in range(n_blocks):
        e = np.zeros(n_blocks)
        e[k] = 1.0
        if np.linalg.matrix_rank(np.vstack([a, e])) == rank:
            recoverable.add(k)
    return recoverable


def peel_fixpoint(equations, blocks):
    """Decoder state after ingesting every equation over len(blocks) blocks."""
    state = RecoveryState(len(blocks), tolerance=0.0)
    for members in equations:
        state.ingest(members)
    return state


def random_rcs_equations(rng):
    """Member sets of a few workers of a small random circularly shifted code."""
    from codedgd import build_rcs, encode

    n_blocks = int(rng.integers(4, 11))
    n_workers = int(rng.integers(2, 6))
    memory = int(rng.integers(2, min(n_blocks, 6) + 1))
    degrees = []
    left = memory
    while left > 0:
        d = int(rng.integers(1, left + 1))
        degrees.append(d)
        left -= d
    mat = build_rcs(n_blocks, n_workers, memory, seed=rng)
    messages = encode(mat, degrees)
    # each worker delivers a random prefix of its message sequence, the way
    # a straggler cut off mid-iteration would
    delivered = {w: int(rng.integers(0, len(degrees) + 1)) for w in range(n_workers)}
    n_messages = len(degrees)
    kept = [members for msg, members in enumerate(messages)
            if msg % n_messages < delivered[msg // n_messages]]
    return n_blocks, kept


def test_peeling_vs_gaussian_oracle_and_order_insensitivity():
    rng = np.random.default_rng(2024)
    agree = total = 0
    for _ in range(200):
        n_blocks, equations = random_rcs_equations(rng)
        blocks = random_blocks(n_blocks, 2, rng)
        reference = set(peel_fixpoint(equations, blocks).recovered)
        for _ in range(4):
            perm = list(equations)
            rng.shuffle(perm)
            assert set(peel_fixpoint(perm, blocks).recovered) == reference
        oracle = gaussian_recoverable(equations, n_blocks)
        assert reference <= oracle
        total += 1
        agree += reference == oracle
    assert agree / total >= 0.95


def test_monotone_recovery_count():
    n_blocks, equations = 8, [(0, 1), (1, 2), (2,), (3, 4, 5), (4,), (5,), (6,), (0,)]
    state = RecoveryState(n_blocks, tolerance=0.0)
    last = 0
    for members in equations:
        state.ingest(members)
        assert len(state.recovered) >= last
        last = len(state.recovered)
        for unresolved in state.pending:
            assert len(unresolved) >= 2


def test_soundness_of_decoded_vectors():
    # Every block the decoder claims is determined by the received sums: any
    # solution of the 0/1 system for those sums agrees with the true block there.
    rng = np.random.default_rng(10)
    for _ in range(50):
        n_blocks, equations = random_rcs_equations(rng)
        blocks = random_blocks(n_blocks, 3, rng)
        state = peel_fixpoint(equations, blocks)
        if not equations:
            assert state.recovered == set()
            continue
        a = np.zeros((len(equations), n_blocks))
        for row, members in enumerate(equations):
            a[row, list(members)] = 1.0
        solution, *_ = np.linalg.lstsq(a, a @ blocks, rcond=None)
        for k in state.recovered:
            assert np.allclose(solution[k], blocks[k], rtol=1e-9, atol=1e-9)

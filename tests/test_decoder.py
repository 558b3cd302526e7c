import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedgd import RecoveryState, block_mask, recovery_target
from codedgd.decoder import ProtocolError


def random_blocks(n_blocks, rows, rng):
    return rng.standard_normal((n_blocks, rows))


def ingest(state, members):
    return state.ingest(block_mask(members, state.n_blocks))


def test_degree_one_recovers_immediately():
    state = RecoveryState(4, tolerance=0.0)
    assert ingest(state, [1]) == [1]
    assert state.finalize()[1] == {1}


def test_degree_two_peels_against_known_member():
    state = RecoveryState(12, tolerance=0.0)
    ingest(state, [3])
    newly = ingest(state, [3, 10])
    assert newly == [10]
    assert state.finalize()[1] == {3, 10}


def test_example_column_peels_sequentially():
    # worker 1's codewords from the 6-entry example column: degrees 1, 2, 3.
    # The column alone only yields the degree-1 block; the rest resolve as
    # degree-1 help arrives.
    members = [(0,), (3, 10), (14, 5, 17)]
    state = RecoveryState(20, tolerance=0.0)
    unlocked = []
    for ms in members:
        unlocked += ingest(state, ms)
    assert set(unlocked) == {0}
    assert len(state.pending) == 2
    assert set(ingest(state, [10])) == {10, 3}
    assert ingest(state, [5]) == [5]
    assert set(ingest(state, [17])) == {17, 14}
    r, recovered = state.finalize()
    assert set(np.flatnonzero(r)) == recovered == {0, 3, 10, 14, 5, 17}


def test_pending_cascade_across_equations():
    state = RecoveryState(5, tolerance=0.0)
    assert ingest(state, [0, 1]) == []
    assert ingest(state, [1, 2]) == []
    newly = ingest(state, [0])
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
        ingest(state, [k])
        assert not (state.n_recovered >= state.target)
    ingest(state, [27])
    assert state.n_recovered >= state.target


def test_finalize_all_and_none():
    full = RecoveryState(6, tolerance=0.0)
    for k in range(6):
        ingest(full, [k])
    r, recovered = full.finalize()
    assert np.all(r == 1) and recovered == set(range(6))
    empty = RecoveryState(6, tolerance=0.0)
    r, recovered = empty.finalize()
    assert np.all(r == 0) and recovered == set()


def test_duplicate_information_discarded():
    state = RecoveryState(3, tolerance=0.0)
    ingest(state, [0])
    ingest(state, [1])
    assert ingest(state, [0, 1]) == []
    assert len(state.pending) == 0


def test_member_out_of_range_rejected():
    assert block_mask((0, 3), 4) == 0b1001
    for members in ((7,), (1, 4), (-1,)):
        with pytest.raises(ProtocolError):
            block_mask(members, 4)


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
        ingest(state, members)
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
        reference = peel_fixpoint(equations, blocks).finalize()[1]
        for _ in range(4):
            perm = list(equations)
            rng.shuffle(perm)
            assert peel_fixpoint(perm, blocks).finalize()[1] == reference
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
        ingest(state, members)
        assert state.n_recovered >= last
        last = state.n_recovered
        for unresolved in state.pending.values():
            assert unresolved.bit_count() >= 2 and not unresolved & state.known


def test_soundness_of_decoded_vectors():
    # Every block the decoder claims is determined by the received sums: any
    # solution of the 0/1 system for those sums agrees with the true block there.
    rng = np.random.default_rng(10)
    for _ in range(50):
        n_blocks, equations = random_rcs_equations(rng)
        blocks = random_blocks(n_blocks, 3, rng)
        state = peel_fixpoint(equations, blocks)
        if not equations:
            assert state.finalize()[1] == set()
            continue
        a = np.zeros((len(equations), n_blocks))
        for row, members in enumerate(equations):
            a[row, list(members)] = 1.0
        solution, *_ = np.linalg.lstsq(a, a @ blocks, rcond=None)
        for k in state.finalize()[1]:
            assert np.allclose(solution[k], blocks[k], rtol=1e-9, atol=1e-9)


class SetRecoveryState:
    """The set-based decoder the bitset one replaced, kept as its oracle.

    It rescans every pending equation for each recovered block.
    """

    def __init__(self, n_blocks, tolerance):
        self.n_blocks = n_blocks
        self.target = recovery_target(n_blocks, tolerance)
        self.recovered = set()
        self.pending = []              # sets of unresolved member indices
        self.n_ingested = 0

    def ingest(self, members):
        members = set(members)
        self.n_ingested += 1
        unresolved = members - self.recovered
        if not unresolved:
            return []
        if len(unresolved) > 1:
            self.pending.append(unresolved)
            return []
        k = unresolved.pop()
        self.recovered.add(k)
        return [k] + self._cascade(k)

    def _cascade(self, start):
        queue = [start]
        unlocked = []
        while queue:
            k = queue.pop()
            still_pending = []
            for unresolved in self.pending:
                unresolved.discard(k)
                if len(unresolved) > 1:
                    still_pending.append(unresolved)
                elif unresolved:
                    j = unresolved.pop()
                    if j not in self.recovered:
                        self.recovered.add(j)
                        unlocked.append(j)
                        queue.append(j)
            self.pending = still_pending
        return unlocked


@st.composite
def message_streams(draw):
    """A block count and an arrival sequence of member sets, repeats allowed."""
    n_blocks = draw(st.one_of(st.integers(1, 12), st.integers(60, 70)))
    members = st.sets(st.integers(0, n_blocks - 1), min_size=1, max_size=4)
    return n_blocks, draw(st.lists(members, max_size=40))


@settings(max_examples=300, deadline=None)
@given(message_streams(), st.sampled_from([0.0, 0.25, 0.5]))
def test_bitset_decoder_matches_set_oracle(stream, tolerance):
    n_blocks, messages = stream
    state, oracle = RecoveryState(n_blocks, tolerance), SetRecoveryState(n_blocks, tolerance)
    for members in messages:
        unlocked = ingest(state, members)
        assert len(unlocked) == len(set(unlocked))
        assert set(unlocked) == set(oracle.ingest(members))
        assert len(state.pending) == len(oracle.pending)
        assert state.n_ingested == oracle.n_ingested
        assert state.n_recovered == len(oracle.recovered)
        assert (state.n_recovered >= state.target) == (len(oracle.recovered) >= oracle.target)
    r, recovered = state.finalize()
    assert r.dtype == np.int8 and r.shape == (n_blocks,)
    assert recovered == oracle.recovered == set(np.flatnonzero(r).tolist())

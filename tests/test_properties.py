"""Property tests of the recovery process on small random configurations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedgd import (OrderPolicy, RecoveryState, StragglerProfile, TrainConfig, block_mask,
                     build_rcs, encode, simulate_recovery)
from codedgd.codec import POLICY_KINDS
from codedgd.latency import PROFILE_KINDS
from tests.test_decoder import gaussian_recoverable


def ages_from_r(r):
    """Age history implied by recovery vectors: start at 1, reset to 1 on recovery."""
    ages, history = [1] * len(r[0]), []
    for row in r:
        history.append(ages)
        ages = [1 if got else age + 1 for age, got in zip(ages, row)]
    return history


@st.composite
def recovery_configs(draw, kind):
    degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n_blocks = draw(st.integers(max(2, sum(degrees)), 9))
    n_workers = draw(st.integers(1, 6))
    slow = frozenset(range(draw(st.integers(0, n_workers))))
    profile = draw(st.sampled_from(PROFILE_KINDS))
    extra = {"persistent": dict(persistent_set=slow),
             "markov": dict(p=0.3, initial_slow=slow)}.get(profile, {})
    return TrainConfig(
        n_blocks=n_blocks, n_workers=n_workers, n_iterations=draw(st.integers(1, 12)),
        eta=0.1, q=draw(st.sampled_from([0.0, 0.25, 0.5])),
        policy=OrderPolicy(kind, draw(st.integers(1, 3)) if kind == "adaptive" else 0),
        degrees=degrees, profile=StragglerProfile(profile, n_workers, **extra),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


@pytest.mark.parametrize("kind", POLICY_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_age_history_follows_from_recovery_vectors(kind, data):
    config = data.draw(recovery_configs(kind))
    assignment = build_rcs(config.n_blocks, config.n_workers, config.memory, config.seed)
    records, ages = simulate_recovery(config, assignment, np.random.default_rng(config.seed))
    assert records.r.shape == (config.n_iterations, config.n_blocks)
    assert ages.history.tolist() == ages_from_r(records.r.tolist())


@st.composite
def shuffled_messages(draw):
    n_blocks = draw(st.integers(1, 8))
    messages = draw(st.lists(st.sets(st.integers(0, n_blocks - 1), min_size=1, max_size=3),
                             min_size=1, max_size=12))
    return n_blocks, messages, draw(st.permutations(messages))


@settings(max_examples=200, deadline=None)
@given(shuffled_messages())
def test_recovered_blocks_do_not_depend_on_arrival_order(case):
    n_blocks, messages, shuffled = case

    def recovered(arrivals):
        state = RecoveryState(n_blocks, 0.0)
        for members in arrivals:
            state.ingest(block_mask(members, n_blocks))
        return state.finalize()[1]

    assert recovered(messages) == recovered(shuffled)


@settings(max_examples=200, deadline=None)
@given(shuffled_messages())
def test_recovered_count_never_falls(case):
    n_blocks, messages, _ = case
    state = RecoveryState(n_blocks, 0.0)
    count, known = 0, 0
    for members in messages:
        state.ingest(block_mask(members, n_blocks))
        assert state.n_recovered >= count and state.known & known == known
        count, known = state.n_recovered, state.known
        assert state.n_recovered == len(state.finalize()[1])


@settings(max_examples=200, deadline=None)
@given(shuffled_messages())
def test_peeling_recovers_a_subset_of_gaussian_elimination(case):
    n_blocks, messages, _ = case
    state = RecoveryState(n_blocks, 0.0)
    for members in messages:
        state.ingest(block_mask(members, n_blocks))
    assert state.finalize()[1] <= gaussian_recoverable(messages, n_blocks)


@st.composite
def coded_assignments(draw):
    n_blocks = draw(st.integers(1, 12))
    memory = draw(st.integers(1, n_blocks))
    cuts = draw(st.sets(st.integers(1, memory - 1), max_size=memory - 1)) if memory > 1 else set()
    bounds = [0] + sorted(cuts) + [memory]
    degrees = tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    matrix = build_rcs(n_blocks, draw(st.integers(1, 8)), memory, draw(st.integers(0, 2 ** 32 - 1)))
    return matrix, degrees


@settings(max_examples=200, deadline=None)
@given(coded_assignments())
def test_encode_covers_each_column_exactly_once(case):
    matrix, degrees = case
    messages = encode(matrix, degrees)
    n_workers = matrix.shape[1]
    assert len(messages) == n_workers * len(degrees)
    for worker in range(n_workers):
        own = messages[worker * len(degrees):(worker + 1) * len(degrees)]
        assert [len(m) for m in own] == list(degrees)
        assert [k for m in own for k in m] == matrix[:, worker].tolist()

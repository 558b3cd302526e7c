import numpy as np
import pytest

from codedgd import (AgeTable, ConfigurationError, OrderPolicy, apply_order,
                     build_rcs, encode, from_shifts, select_adaptive_shift,
                     shift_for_iteration)

# the 6-shift example grid used throughout: K=20, M=6, shifts (0,3,10,14,5,17)
EXAMPLE_SHIFTS = (0, 3, 10, 14, 5, 17)


@pytest.fixture
def example_matrix():
    return from_shifts(20, 20, EXAMPLE_SHIFTS)


def test_example_column(example_matrix):
    assert list(example_matrix[:, 0] + 1) == [1, 4, 11, 15, 6, 18]
    assert list(example_matrix[:, 1] + 1) == [2, 5, 12, 16, 7, 19]


def test_single_row_identity_shift():
    m = from_shifts(3, 3, (0,))
    assert np.array_equal(m, [[0, 1, 2]])


def test_build_rcs_deterministic_and_duplicate_free():
    a = build_rcs(40, 40, 6, seed=123)
    b = build_rcs(40, 40, 6, seed=123)
    assert np.array_equal(a, b)
    for i in range(40):
        col = a[:, i]
        assert len(set(col)) == 6
    # each submatrix index appears in exactly M columns
    counts = np.bincount(a.reshape(-1), minlength=40)
    assert np.all(counts == 6)


def test_build_rcs_memory_too_large():
    with pytest.raises(ConfigurationError):
        build_rcs(4, 4, 5, seed=0)


def test_apply_order_worked_examples(example_matrix):
    one = apply_order(example_matrix, 1)
    assert list(one[:, 0] + 1) == [4, 11, 15, 6, 18, 1]
    three = apply_order(example_matrix, 3)
    assert list(three[:, 0] + 1) == [15, 6, 18, 1, 4, 11]
    same = apply_order(example_matrix, 0)
    assert np.array_equal(same, example_matrix)


def test_assignments_are_read_only_arrays(example_matrix):
    # simulate_recovery caches each shift's codewords: apply_order(m, 0) must
    # be m itself, and no assignment may change after it is encoded.
    rotated = apply_order(example_matrix, 2)
    for m in (build_rcs(20, 20, 6, seed=0), example_matrix, rotated):
        assert isinstance(m, np.ndarray) and m.shape == (6, 20)
        assert not m.flags.writeable
    assert apply_order(example_matrix, 0) is example_matrix
    assert rotated is not example_matrix


def test_shift_composition(example_matrix):
    m = len(example_matrix)
    for s1 in range(m):
        for s2 in range(m):
            twice = apply_order(apply_order(example_matrix, s1), s2)
            once = apply_order(example_matrix, (s1 + s2) % m)
            assert np.array_equal(twice, once)


def test_shift_for_iteration_policies():
    static = OrderPolicy("static")
    fixed = OrderPolicy("fixed_shift")
    assert [shift_for_iteration(static, t, 6) for t in range(1, 5)] == [0, 0, 0, 0]
    assert [shift_for_iteration(fixed, t, 6) for t in range(1, 9)] == [0, 1, 2, 3, 4, 5, 0, 1]
    adaptive = OrderPolicy("adaptive", a_th=2)
    assert shift_for_iteration(adaptive, 10, 6, adaptive_shift=4) == 4


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        OrderPolicy("bogus")
    with pytest.raises(ConfigurationError):
        OrderPolicy("adaptive", a_th=0)


def test_encode_worked_example(example_matrix):
    messages = encode(example_matrix, (1, 2, 3))
    assert len(messages) == 20 * 3
    # worker-major: message ell of worker i sits at i * 3 + ell
    assert [tuple(m + 1 for m in s) for s in messages[:3]] == [(1,), (4, 11), (15, 6, 18)]
    assert [tuple(m + 1 for m in s) for s in messages[3:6]] == [(2,), (5, 12), (16, 7, 19)]


def test_encode_uncoded_mode():
    m = from_shifts(6, 6, (0, 2, 4))
    messages = encode(m, (1, 1, 1))
    assert all(len(s) == 1 for s in messages)


def test_encode_single_codeword(example_matrix):
    messages = encode(example_matrix, (6,))
    assert all(set(s) == set(example_matrix[:, i]) for i, s in enumerate(messages))


def test_encode_degree_mismatch(example_matrix):
    with pytest.raises(ConfigurationError):
        encode(example_matrix, (1, 2))
    with pytest.raises(ConfigurationError):
        encode(example_matrix, (0, 3, 3))


def test_encode_coverage_and_disjointness():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mat = build_rcs(12, 12, 6, seed=rng)
        messages = encode(mat, (1, 2, 3))
        for i in range(12):
            groups = [set(s) for s in messages[3 * i:3 * i + 3]]
            union = set().union(*groups)
            assert union == set(mat[:, i])
            assert sum(len(g) for g in groups) == len(union)


def test_adaptive_shift_no_aged_blocks(example_matrix):
    ages = np.ones(20)
    assert select_adaptive_shift(example_matrix, ages, 2, set(range(20))) == 0


def test_adaptive_shift_hand_example():
    # K=4, two workers: row0 = [W1, W2], row1 = [W3, W4]
    mat = from_shifts(4, 2, (0, 2))
    ages = np.array([1, 1, 5, 5])
    assert select_adaptive_shift(mat, ages, 2, {0, 1}) == 1


def test_adaptive_shift_empty_responsive(example_matrix):
    assert select_adaptive_shift(example_matrix, np.full(20, 99), 1, set()) == 0


def test_adaptive_shift_matches_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(50):
        memory = int(rng.integers(2, 11))
        mat = build_rcs(12, 12, memory, seed=rng)
        ages = rng.integers(1, 10, size=12)
        responsive = {int(w) for w in rng.choice(12, size=rng.integers(1, 13), replace=False)}
        a_th = int(rng.integers(1, 6))
        best = select_adaptive_shift(mat, ages, a_th, responsive)
        counts = [sum(ages[mat[s, i]] > a_th for i in responsive)
                  for s in range(memory)]
        assert counts[best] == max(counts)
        assert all(counts[s] < counts[best] for s in range(best))

import numpy as np
import pytest

from codedgd import AgeTable
from codedgd.ages import write_ages_csv, write_summary_csv


def run_trace(recovery_rows):
    n_blocks = len(recovery_rows[0])
    table = AgeTable(n_blocks)
    for r in recovery_rows:
        table.update(np.array(r))
    return table


def test_full_recovery_keeps_age_one():
    table = run_trace([[1, 1, 1]] * 5)
    assert np.all(table.current == 1)
    assert np.all(table.history == 1)


def test_age_saw_tooth_between_recoveries():
    # block recovered at iterations 1 and 5: ages during 2..5 climb 1,2,3,4
    rows = [[1], [0], [0], [0], [1], [0]]
    table = run_trace(rows)
    assert list(table.history[:, 0]) == [1, 1, 2, 3, 4, 1]


def test_never_recovered_age_grows_linearly():
    table = run_trace([[0]] * 10)
    assert table.history[-1, 0] == 10
    assert table.current[0] == 11
    assert table.average_ages()[0] == (10 + 1) / 2


def test_average_age_examples():
    always = run_trace([[1]] * 6)
    assert always.average_ages()[0] == 1.0
    # recovered at every even iteration: ages 1,2,1,2,...
    alternating = run_trace([[t % 2 == 0] for t in range(1, 7)])
    assert alternating.average_ages()[0] == 1.5


def test_update_length_mismatch():
    table = AgeTable(3)
    with pytest.raises(ValueError):
        table.update(np.array([1, 0]))


def test_objective_zero_when_fresh():
    table = run_trace([[1, 1]] * 4)
    assert table.objective(1) == 0.0
    assert table.objective(5) == 0.0


def test_objective_direct_evaluation():
    table = AgeTable(2)
    table._history = [np.array([1, 3]), np.array([2, 3])]
    assert table.objective(2) == 0.5


def test_objective_monotone_in_threshold():
    rng = np.random.default_rng(0)
    table = run_trace([(rng.random(6) < 0.5).astype(int) for _ in range(50)])
    values = [table.objective(th) for th in range(1, 10)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0 <= v <= 1 for v in values)


def test_age_duality_with_recovery_trace():
    # age a_{k,t} > n exactly when k missed recovery in the previous n iterations
    rng = np.random.default_rng(1)
    rows = [(rng.random(4) < 0.4).astype(int) for _ in range(60)]
    table = run_trace(rows)
    hist = table.history
    for t in range(60):
        for k in range(4):
            for n in range(1, min(t, 6) + 1):
                missed = all(rows[t - j][k] == 0 for j in range(1, n + 1))
                assert (hist[t, k] > n) == missed


def test_csv_outputs(tmp_path):
    table = run_trace([[1, 0], [0, 1], [1, 1]])
    ages_path = tmp_path / "ages.csv"
    write_ages_csv(table, ages_path)
    data = np.loadtxt(ages_path, delimiter=",", skiprows=1)
    assert data.shape == (3, 2)
    assert np.array_equal(data, table.history)
    summary_path = tmp_path / "summary.csv"
    write_summary_csv(table, summary_path, 1)
    text = summary_path.read_text()
    assert text.startswith("block,average_age")
    assert "objective," in text

import numpy as np
import pytest
from scipy import stats

from codedgd import (MarkovStragglerModel, StragglerProfile, completion_cdf,
                     completion_times, effective_params,
                     sample_completion_times, step_markov)


def test_times_strictly_increasing():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = sample_completion_times(10.0, 0.01, 5, rng)
        assert np.all(np.diff(t) > 0)


def test_support_boundary():
    rng = np.random.default_rng(1)
    samples = sample_completion_times(np.full(5000, 10.0), 0.01, 3, rng)
    for s in (1, 2, 3):
        assert samples[:, s - 1].min() >= s * 0.01


@pytest.mark.parametrize("s", [1, 2, 3])
def test_marginal_matches_closed_form(s):
    rng = np.random.default_rng(2)
    samples = sample_completion_times(np.full(100_000, 10.0), 0.01, 3, rng)[:, s - 1]
    ks = stats.kstest(samples, lambda t: completion_cdf(t, s, 10.0, 0.01))
    assert ks.statistic < 0.01


def test_mean_of_second_completion():
    rng = np.random.default_rng(3)
    samples = sample_completion_times(np.full(100_000, 10.0), 0.01, 2, rng)[:, 1]
    assert abs(samples.mean() - 0.22) <= 0.02 * 0.22


def test_invalid_params():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_completion_times(0.0, 0.01, 1, rng)
    with pytest.raises(ValueError):
        sample_completion_times(1.0, -0.1, 1, rng)


def make_markov(p, n=4):
    slow = np.zeros(n, dtype=bool)
    slow[:2] = True
    return MarkovStragglerModel(p=p, slow=slow)


def test_markov_frozen_when_p_zero():
    rng = np.random.default_rng(4)
    model = make_markov(0.0)
    start = model.slow.copy()
    for _ in range(100):
        model = step_markov(model, rng)
        assert np.array_equal(model.slow, start)


def test_markov_flips_every_step_when_p_one():
    rng = np.random.default_rng(5)
    model = make_markov(1.0)
    prev = model.slow.copy()
    for _ in range(10):
        model = step_markov(model, rng)
        assert np.array_equal(model.slow, ~prev)
        prev = model.slow.copy()


def test_markov_flip_frequency():
    rng = np.random.default_rng(6)
    model = MarkovStragglerModel(p=0.05, slow=np.zeros(1, dtype=bool))
    flips = 0
    for _ in range(10_000):
        before = model.slow[0]
        model = step_markov(model, rng)
        flips += before != model.slow[0]
    assert abs(flips / 10_000 - 0.05) <= 0.005


def test_markov_validation():
    with pytest.raises(ValueError):
        make_markov(1.5)
    with pytest.raises(ValueError):
        StragglerProfile("markov", 1, mu=2.0, p=0.1, mu_slow=2.0)


def test_effective_params_persistent():
    profile = StragglerProfile("persistent", 40, mu=10.0, alpha=0.01,
                               persistent_set=frozenset(range(15)),
                               alpha_straggler=10.0)
    mu, alpha = effective_params(profile, 40)
    assert alpha[3] == 10.0
    assert alpha[20] == 0.01
    assert mu[20] == 10.0


def test_effective_params_markov():
    profile = StragglerProfile("markov", 4, mu=10.0, alpha=0.01,
                               p=0.05, mu_slow=2.0, initial_slow=frozenset({0, 1}))
    model = profile.initial_markov()
    mu, alpha = effective_params(profile, 4, model)
    assert mu[0] == 2.0
    assert mu[3] == 10.0
    assert alpha[3] == 0.01


def test_effective_params_homogeneous_and_errors():
    profile = StragglerProfile("homogeneous", 4, mu=7.0, alpha=0.02)
    mu, alpha = effective_params(profile, 4)
    assert (mu[2], alpha[2], len(mu)) == (7.0, 0.02, 4)
    with pytest.raises(ValueError):
        effective_params(profile, 9)


STREAM_PROFILES = {
    "homogeneous": StragglerProfile("homogeneous", 12, mu=7.0, alpha=0.02),
    "persistent": StragglerProfile("persistent", 12, mu=10.0, alpha=0.01,
                                   persistent_set=frozenset({0, 3, 11}),
                                   alpha_straggler=10.0),
    "markov": StragglerProfile("markov", 12, mu=10.0, alpha=0.01, p=0.3,
                               mu_slow=2.0, initial_slow=frozenset({1, 2, 10})),
}


def scalar_params(profile, worker, markov):
    """The per-worker rule, one worker at a time: the oracle of effective_params."""
    mu, alpha = profile.mu, profile.alpha
    if profile.kind == "persistent" and worker in profile.persistent_set:
        alpha = profile.alpha_straggler
    if profile.kind == "markov" and markov.slow[worker]:
        mu = profile.mu_slow
    return mu, alpha


@pytest.mark.parametrize("kind", sorted(STREAM_PROFILES))
@pytest.mark.parametrize("n_workers", [12, 9])
def test_vectorised_draw_matches_scalar_loop(kind, n_workers):
    # A run's draw must take exactly the values of a Markov step (if any) and
    # one scalar draw per worker, iteration by iteration, and leave the
    # generator where that loop leaves it.
    profile = STREAM_PROFILES[kind]
    vec_rng, loop_rng = np.random.default_rng(8), np.random.default_rng(8)
    vec = completion_times(profile, 20, n_workers, 3, vec_rng)
    markov, loop = profile.initial_markov(), []
    for _ in range(20):
        if markov is not None:
            markov = step_markov(markov, loop_rng)
        loop.append([sample_completion_times(*scalar_params(profile, i, markov), 3, loop_rng)
                     for i in range(n_workers)])
    assert vec.shape == (20, n_workers, 3)
    assert np.array_equal(vec, np.array(loop))
    assert vec_rng.bit_generator.state == loop_rng.bit_generator.state


def test_persistent_stragglers_effectively_silent():
    # a straggler's first message lands after 25 fast workers' last ones
    rng = np.random.default_rng(7)
    slow_first = sample_completion_times(np.full(1000, 10.0), 10.0, 3, rng)[:, 0].min()
    fast_last = sample_completion_times(np.full(25_000, 10.0), 0.01, 3, rng).max()
    assert slow_first >= 10.0
    assert fast_last < slow_first

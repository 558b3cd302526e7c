from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from codedgd import (LatencyParams, MarkovStragglerModel, StragglerProfile,
                     completion_cdf, effective_params,
                     sample_completion_times, step_markov, worker_params)


def test_times_strictly_increasing():
    rng = np.random.default_rng(0)
    params = LatencyParams(mu=10.0, alpha=0.01, n_messages=5)
    for _ in range(200):
        t = sample_completion_times(params, rng)
        assert np.all(np.diff(t) > 0)


def test_support_boundary():
    rng = np.random.default_rng(1)
    params = LatencyParams(mu=10.0, alpha=0.01, n_messages=3)
    samples = np.array([sample_completion_times(params, rng) for _ in range(5000)])
    for s in (1, 2, 3):
        assert samples[:, s - 1].min() >= s * 0.01


@pytest.mark.parametrize("s", [1, 2, 3])
def test_marginal_matches_closed_form(s):
    rng = np.random.default_rng(2)
    params = LatencyParams(mu=10.0, alpha=0.01, n_messages=3)
    samples = np.array([sample_completion_times(params, rng)[s - 1]
                        for _ in range(100_000)])
    ks = stats.kstest(samples, lambda t: completion_cdf(t, s, 10.0, 0.01))
    assert ks.statistic < 0.01


def test_mean_of_second_completion():
    rng = np.random.default_rng(3)
    params = LatencyParams(mu=10.0, alpha=0.01, n_messages=2)
    samples = np.array([sample_completion_times(params, rng)[1]
                        for _ in range(100_000)])
    assert abs(samples.mean() - 0.22) <= 0.02 * 0.22


def test_invalid_params():
    with pytest.raises(ValueError):
        LatencyParams(mu=0.0, alpha=0.01, n_messages=1)
    with pytest.raises(ValueError):
        LatencyParams(mu=1.0, alpha=-0.1, n_messages=1)


def make_markov(p, n=4):
    slow = np.zeros(n, dtype=bool)
    slow[:2] = True
    return MarkovStragglerModel(p=p, mu_fast=10.0, mu_slow=2.0, slow=slow)


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
    model = MarkovStragglerModel(p=0.05, mu_fast=10.0, mu_slow=2.0,
                                 slow=np.zeros(1, dtype=bool))
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
        MarkovStragglerModel(p=0.1, mu_fast=2.0, mu_slow=2.0,
                             slow=np.zeros(1, dtype=bool))


def test_effective_params_persistent():
    profile = StragglerProfile("persistent", 40, mu=10.0, alpha=0.01,
                               persistent_set=frozenset(range(15)),
                               alpha_straggler=10.0)
    assert effective_params(profile, 3, 3).alpha == 10.0
    assert effective_params(profile, 20, 3).alpha == 0.01
    assert effective_params(profile, 20, 3).mu == 10.0


def test_effective_params_markov():
    profile = StragglerProfile("markov", 4, mu=10.0, alpha=0.01,
                               p=0.05, mu_slow=2.0, initial_slow=frozenset({0, 1}))
    model = profile.initial_markov()
    assert effective_params(profile, 0, 3, model).mu == 2.0
    assert effective_params(profile, 3, 3, model).mu == 10.0
    assert effective_params(profile, 3, 3, model).alpha == 0.01


def test_effective_params_homogeneous_and_errors():
    profile = StragglerProfile("homogeneous", 4, mu=7.0, alpha=0.02)
    params = effective_params(profile, 2, 5)
    assert (params.mu, params.alpha, params.n_messages) == (7.0, 0.02, 5)
    with pytest.raises(ValueError):
        effective_params(profile, 9, 5)


STREAM_PROFILES = {
    "homogeneous": StragglerProfile("homogeneous", 12, mu=7.0, alpha=0.02),
    "persistent": StragglerProfile("persistent", 12, mu=10.0, alpha=0.01,
                                   persistent_set=frozenset({0, 3, 11}),
                                   alpha_straggler=10.0),
    "markov": StragglerProfile("markov", 12, mu=10.0, alpha=0.01, p=0.3,
                               mu_slow=2.0, initial_slow=frozenset({1, 2, 10})),
}


@pytest.mark.parametrize("kind", sorted(STREAM_PROFILES))
@pytest.mark.parametrize("n_workers", [12, 9])
def test_vectorised_draw_matches_scalar_loop(kind, n_workers):
    # One array draw per iteration must take exactly the scalar loop's values
    # and leave the generator where the loop leaves it. Without a Markov
    # state, so must one draw of all 20 iterations over a broadcast mu.
    profile = STREAM_PROFILES[kind]
    vec_rng, loop_rng = np.random.default_rng(8), np.random.default_rng(8)
    vec_markov = loop_markov = profile.initial_markov()
    draws = []
    for _ in range(20):
        if vec_markov is not None:
            vec_markov = step_markov(vec_markov, vec_rng)
            loop_markov = step_markov(loop_markov, loop_rng)
        vec = sample_completion_times(worker_params(profile, n_workers, 3, vec_markov),
                                      vec_rng)
        loop = np.array([sample_completion_times(effective_params(profile, i, 3, loop_markov),
                                                 loop_rng) for i in range(n_workers)])
        assert vec.shape == (n_workers, 3)
        assert np.array_equal(vec, loop)
        draws.append(vec)
    if kind != "markov":
        hoisted_rng = np.random.default_rng(8)
        params = worker_params(profile, n_workers, 3)
        hoisted = sample_completion_times(
            replace(params, mu=np.broadcast_to(params.mu, (20, n_workers))), hoisted_rng)
        assert hoisted.shape == (20, n_workers, 3)
        assert np.array_equal(hoisted, np.array(draws))
        assert hoisted_rng.bit_generator.state == vec_rng.bit_generator.state
    assert vec_rng.random() == loop_rng.random()


def test_persistent_stragglers_effectively_silent():
    # a straggler's first message lands after 25 fast workers' last ones
    rng = np.random.default_rng(7)
    slow = LatencyParams(mu=10.0, alpha=10.0, n_messages=3)
    fast = LatencyParams(mu=10.0, alpha=0.01, n_messages=3)
    slow_first = min(sample_completion_times(slow, rng)[0] for _ in range(1000))
    fast_last = max(max(sample_completion_times(fast, rng)) for _ in range(25_000))
    assert slow_first >= 10.0
    assert fast_last < slow_first

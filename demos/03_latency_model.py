"""Monte-Carlo check of the shifted-exponential message completion times.

A worker draws one exponential delay Y per iteration; its s-th message lands
at T_s = s * (alpha + Y). The script compares the empirical distribution of
T_s, drawn for many workers in one call, against the closed-form CDF, then
shows the two straggler profiles and a whole Markov run drawn in one call.
"""

import numpy as np

from codedgd import (StragglerProfile, completion_cdf, completion_times,
                     effective_params, sample_completion_times, step_markov)

rng = np.random.default_rng(0)
mu, alpha = 10.0, 0.01

n = 50_000
samples = sample_completion_times(np.full(n, mu), alpha, 3, rng)   # n x 3
for s in (1, 2, 3):
    for t in (0.05, 0.2, 0.5):
        emp = np.mean(samples[:, s - 1] <= t)
        print("P(T_%d <= %.2f)  empirical %.4f  closed form %.4f"
              % (s, t, emp, completion_cdf(t, s, mu, alpha)))

# persistent stragglers: a fixed subset pays a 1000x higher offset
profile = StragglerProfile("persistent", n_workers=6, mu=mu, alpha=alpha,
                           persistent_set=frozenset({0, 1}), alpha_straggler=10.0)
print("\npersistent profile, per-worker alpha:")
for w, a in enumerate(effective_params(profile, 6)[1]):
    print("  worker %d: alpha = %g" % (w, a))

# Markov stragglers: each worker flips fast <-> slow with probability p
profile = StragglerProfile("markov", n_workers=6, mu=mu, alpha=alpha,
                           p=0.4, mu_slow=2.0)
model = profile.initial_markov()
for t in range(5):
    model = step_markov(model, rng)
    print("iteration %d slow set: %s" % (t + 1, np.flatnonzero(model.slow).tolist()))

# a whole run's (T, N, L) completion times in one call, Markov steps included
times = completion_times(profile, n_iterations=4, n_workers=6, n_messages=3, rng=rng)
print("\nmarkov run, first-message time per worker:")
for t, row in enumerate(times[:, :, 0], 1):
    print("  iteration %d: %s" % (t, " ".join("%.3f" % x for x in row)))

"""Compare the three ordering policies on a small regression instance.

Static ordering always asks workers for the same codewords first, so blocks
living deep in straggler columns go stale. Rotating the order (one row per
iteration) or choosing the shift from the observed ages keeps every block
fresh, which shows up both in the average ages and in the loss curve.
"""

import numpy as np

from codedgd import (OrderPolicy, StragglerProfile, TrainConfig,
                     generate_problem, masked_gd, run_training)

problem = generate_problem(n_train=400, n_test=80, d=200, noise_std=0.05, seed=3)
profile = StragglerProfile("persistent", n_workers=20, mu=10.0, alpha=0.01,
                           persistent_set=frozenset(range(7)),
                           alpha_straggler=10.0)

policies = {
    "static       ": OrderPolicy("static"),
    "rotating     ": OrderPolicy("fixed_shift"),
    "age-adaptive ": OrderPolicy("adaptive", a_th=2),
}

# Every block recovered in every iteration: plain gradient descent.
_, _, gd_test = masked_gd(problem, np.ones((150, 1), np.int8), eta=0.1)
print("full gradient descent final test loss: %.4e\n" % gd_test[-1])

for name, policy in policies.items():
    config = TrainConfig(n_blocks=20, n_workers=20, n_iterations=150, eta=0.1,
                         q=0.3, policy=policy, degrees=(1, 2, 3),
                         profile=profile, seed=11)
    result = run_training(problem, config)
    ages = result.ages.average_ages()
    print("%s final test loss %.4e   max avg age %5.2f   stale fraction %.3f"
          % (name, result.test_losses()[-1], ages.max(),
             result.ages.objective(2)))

"""Feed coded messages to the peeling decoder and watch the cascade.

A message is the sum of its member blocks' products, so what it can reveal
depends only on which members are already known. The decoder therefore
works on block indices alone, each message a bitmask of its members:
degree-1 messages recover a block outright; higher-degree sums wait as
pending equations until all but one member is known, and recovering a block
can unlock the pending messages that contain it, recursively.
"""

import numpy as np

from codedgd import RecoveryState, block_mask

K = 8
stream = [
    ((2, 5), 0.10),     # pending: two unknowns
    ((0,), 0.15),       # direct recovery
    ((0, 2), 0.21),     # peels block 2, which unlocks (2,5) -> block 5
    ((5,), 0.30),       # duplicate, discarded
    ((1, 3, 4), 0.34),
    ((3,), 0.40),
    ((4,), 0.47),       # leaves (1,3,4) with one unknown -> block 1
]

state = RecoveryState(K, tolerance=0.25)   # stop at ceil(0.75 * 8) = 6 blocks
for members, t in stream:
    newly = state.ingest(block_mask(members, K))
    print("t=%.2f ingest %-9s -> recovered %s  (total %d, pending %d)"
          % (t, members, newly, state.n_recovered, len(state.pending)))
    if state.n_recovered >= state.target:
        print("target reached at t=%.2f" % t)
        break

r, recovered = state.finalize()
print("recovery indicator:", r)
assert recovered == {0, 1, 2, 3, 4, 5}

# Why indices suffice: replaying the same cancellations on values decodes
# every recovered block exactly, e.g. block 5 = (2,5) - ((0,2) - (0,)).
rng = np.random.default_rng(7)
blocks = rng.standard_normal((K, 3))   # pretend partial gradients
value = {members: blocks[list(members)].sum(axis=0) for members, _ in stream}
block5 = value[(2, 5)] - (value[(0, 2)] - value[(0,)])
assert np.allclose(block5, blocks[5])
print("block 5 decoded from values matches the true block")

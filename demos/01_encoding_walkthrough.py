"""Walk through the assignment matrix and the codewords one worker sends.

Builds a small circularly shifted assignment for 20 blocks, 20 workers and
memory 6, then shows how a degree vector [1, 2, 3] turns one worker's column
into three codewords, and how the vertical shift reorders the column.
"""

import numpy as np

from codedgd import apply_order, build_rcs, encode

K, W, M = 20, 20, 6
matrix = build_rcs(K, W, M, seed=0)

# worker 0's column starts at block 0, so it lists each row's circular shift
print("row shifts:", matrix[:, 0].tolist())
print("assignment matrix (blocks, 0-based), first 8 workers:")
print(matrix[:, :8])

worker = 0
col = matrix[:, worker]
print("\nworker %d holds blocks %s (top to bottom)" % (worker, col.tolist()))

degrees = [1, 2, 3]
# encode lists the messages worker-major, len(degrees) per worker
messages = encode(matrix, degrees)[worker * len(degrees):(worker + 1) * len(degrees)]
for ell, members in enumerate(messages):
    print("  message %d: sum of blocks %s (degree %d)"
          % (ell + 1, list(members), len(members)))

# a vertical shift rotates every column the same way, so a straggler that
# only manages its first message contributes a different block each time
for shift in (0, 1, 3):
    shifted = apply_order(matrix, shift)
    print("shift %d -> worker %d column %s"
          % (shift, worker, shifted[:, worker].tolist()))

"""Streaming peeling decoder over block indices, with a partial-recovery stop.

A coded message is the sum of its member blocks' products, so which blocks
it can reveal depends only on which members are already known, never on the
values. The decoder therefore tracks indices alone: a message whose
unresolved members reduce to one recovers that block, and each recovery
cascades through the still pending messages. This is successive
cancellation as in LT-code peeling; no Gaussian elimination happens here.
"""

import math

import numpy as np

from .problem import ConfigurationError


class ProtocolError(ValueError):
    pass


def recovery_target(n_blocks, tolerance):
    """Blocks needed before an iteration may stop: ceil((1-q) * K)."""
    if not 0 <= tolerance < 1:
        raise ConfigurationError("q must be in [0, 1), got %s" % tolerance)
    return math.ceil((1 - tolerance) * n_blocks)


class RecoveryState:
    """Decoder state for one iteration."""

    def __init__(self, n_blocks, tolerance):
        self.n_blocks = n_blocks
        self.target = recovery_target(n_blocks, tolerance)
        self.recovered = set()
        self.pending = []              # sets of unresolved member indices
        self.n_ingested = 0

    def is_complete(self):
        return len(self.recovered) >= self.target

    def ingest(self, members):
        """Absorb one message's block indices; returns the blocks it unlocked."""
        members = set(members)
        if any(not 0 <= k < self.n_blocks for k in members):
            raise ProtocolError("member index outside [0, %d)" % self.n_blocks)
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

    def finalize(self):
        """Recovery vector r (1 where the block product is known) and the recovered set."""
        r = np.zeros(self.n_blocks, dtype=np.int8)
        r[list(self.recovered)] = 1
        return r, set(self.recovered)

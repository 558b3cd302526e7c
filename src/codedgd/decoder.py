"""Streaming peeling decoder over block bitmasks, with a partial-recovery stop.

A coded message is the sum of its member blocks' products, so which blocks
it can reveal depends only on which members are already known, never on the
values. The decoder therefore tracks indices alone, as Python int bitmasks:
bit k of a message's mask is set when block k is a member (`block_mask`
builds one and range-checks it), and the `known` mask holds the recovered
blocks. A message whose unresolved members reduce to one recovers that block.

Messages with two or more unresolved members wait in `pending`, and an index
lists, for each block, the pending messages that contain it. A recovery
touches only those messages, and each one it leaves with a single unresolved
member recovers that block in turn: incidence-indexed successive
cancellation, as in the LT/Tornado peeling decoder of Luby, Mitzenmacher,
Shokrollahi and Spielman (IEEE Trans. IT 47(2), 2001). No Gaussian
elimination happens here.
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


def block_mask(members, n_blocks):
    """Bitmask of a message's block indices; bit k is set when block k is a member."""
    mask = 0
    for k in members:
        if not 0 <= k < n_blocks:
            raise ProtocolError("member index %d outside [0, %d)" % (k, n_blocks))
        mask |= 1 << int(k)
    return mask


class RecoveryState:
    """Decoder state for one iteration."""

    def __init__(self, n_blocks, tolerance):
        self.n_blocks = n_blocks
        self.target = recovery_target(n_blocks, tolerance)
        self.known = 0                 # mask of the recovered blocks
        self.n_recovered = 0
        self.pending = {}              # message id -> mask of its >= 2 unresolved members
        self._containing = {}          # block -> ids of the pending messages that contain it
        self.n_ingested = 0

    def ingest(self, mask):
        """Absorb one message's block mask; returns the blocks it unlocked."""
        self.n_ingested += 1
        unresolved = mask & ~self.known
        if not unresolved:
            return []
        if unresolved & (unresolved - 1):   # two or more bits set
            msg = self.n_ingested
            self.pending[msg] = unresolved
            while unresolved:
                low = unresolved & -unresolved
                self._containing.setdefault(low.bit_length() - 1, []).append(msg)
                unresolved ^= low
            return []
        self.known |= unresolved
        unlocked = [unresolved.bit_length() - 1]
        for k in unlocked:             # grows while it is walked
            bit = 1 << k
            for msg in self._containing.pop(k, ()):
                unresolved = self.pending.get(msg)
                if unresolved is None:     # resolved earlier in this cascade
                    continue
                unresolved ^= bit
                if unresolved & (unresolved - 1):
                    self.pending[msg] = unresolved
                    continue
                del self.pending[msg]
                if not unresolved & self.known:   # else it duplicates a queued recovery
                    self.known |= unresolved
                    unlocked.append(unresolved.bit_length() - 1)
        self.n_recovered += len(unlocked)
        return unlocked

    def finalize(self):
        """Recovery vector r (1 where the block product is known) and the recovered set."""
        packed = np.frombuffer(self.known.to_bytes(-(-self.n_blocks // 8), "little"), np.uint8)
        r = np.unpackbits(packed, count=self.n_blocks, bitorder="little").view(np.int8)
        return r, set(np.flatnonzero(r).tolist())

"""Iteration-indexed age tracking per block and the staleness objective."""

import numpy as np


class AgeTable:
    """Ages of the K block computations plus their full history.

    Ages start at 1 (as if everything had just been recovered). Recording
    one iteration appends the age held DURING that iteration to the history
    and then advances: a recovered block resets to 1, every other age grows
    by one. `current` is therefore always the age of the upcoming iteration,
    which is what the adaptive shift selection reads.
    """

    def __init__(self, n_blocks):
        self.n_blocks = n_blocks
        self.current = np.ones(n_blocks, dtype=np.int64)
        self._history = []

    @property
    def history(self):
        return np.array(self._history, dtype=np.int64).reshape(len(self._history), self.n_blocks)

    def update(self, r):
        r = np.asarray(r)
        if r.shape != (self.n_blocks,):
            raise ValueError("recovery vector has shape %s, expected (%d,)" % (r.shape, self.n_blocks))
        self._history.append(self.current)
        self.current = np.where(r == 1, 1, self.current + 1)
        return self

    def average_ages(self):
        return self.history.mean(axis=0)

    def objective(self, a_th):
        """Fraction of (block, iteration) pairs whose age exceeds a_th."""
        return float((self.history > a_th).mean())


def write_ages_csv(table, path):
    history = table.history
    header = ",".join("a_%d" % (k + 1) for k in range(table.n_blocks)) + "\n"
    row = ",".join(["%d"] * table.n_blocks) + "\n"
    with open(path, "w") as fh:
        fh.write(header + row * len(history) % tuple(history.ravel().tolist()))


def write_summary_csv(table, path, a_th):
    avgs = table.average_ages()
    with open(path, "w") as fh:
        fh.write("block,average_age\n")
        for k, a in enumerate(avgs):
            fh.write("%d,%.12g\n" % (k + 1, a))
        fh.write("objective,%.12g\n" % table.objective(a_th))

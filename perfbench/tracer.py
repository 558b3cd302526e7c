"""Spans and counters around codedgd's public functions, for the traced pass.

The wrappers live only in the benchmark: ``Recorder.install`` replaces module
and class attributes of the codedgd package and ``uninstall`` puts the
originals back, so nothing under ``src/`` changes. Untraced passes install
only the ``run_training`` timer and run every other function as it is;
``wrapped_names`` lets each pass check which wrappers are in place.

A span's self time is its duration minus the time of the spans it encloses,
so the self times of all metrics add up to the outermost span and no host
second is counted twice. Work written inline in ``run_training`` (the
``W @ theta`` mat-vec, the per-codeword value sums, the arrivals sort) is the
self time of its span, ``trainer.self_s``.

Pool workers forked during a pass inherit the installed wrappers. They start
from empty accumulators and, after every outermost call, rewrite their totals
to a file of their own under ``spill_dir``; the parent merges the files once
the pass is over, so pool metrics are measured inside the workers. The
parent's time in ``ProcessPoolExecutor.map`` (drained inside the span, so it
covers the wait for every result) and ``shutdown`` is its own metric,
``experiments.pool_wait_s``: the workers' self times already account for it.
"""

import functools
import json
import os
import pickle
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from codedgd import ages, codec, decoder, experiments, latency, trainer


class Recorder:
    """Per-process self times, counts and duration samples, keyed by metric."""

    def __init__(self, spill_dir):
        self.spill_dir = spill_dir
        self.in_child = False
        self._spill_path = None
        self._installed = []
        self.reset()
        os.register_at_fork(after_in_child=self._forked)

    def reset(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.results = []        # TrainResults of this process's run_training calls
        self._stack = []

    def _forked(self):
        self.reset()
        self.in_child = True
        self._spill_path = os.path.join(
            self.spill_dir, "%d-%d.json" % (os.getpid(), time.monotonic_ns()))

    def _spill(self):
        with open(self._spill_path, "w") as fh:
            json.dump({"self_s": self.self_s, "counts": self.counts,
                       "samples": self.samples}, fh)

    def merge_spills(self):
        """Add the totals pool workers left in spill_dir, then remove the files.

        Returns the merged duration samples alone, {metric: [seconds, ...]}.
        """
        spilled = defaultdict(list)
        for name in sorted(os.listdir(self.spill_dir)):
            path = os.path.join(self.spill_dir, name)
            with open(path) as fh:
                data = json.load(fh)
            os.remove(path)
            for key, value in data["self_s"].items():
                self.self_s[key] += value
            for key, value in data["counts"].items():
                self.counts[key] += value
            for key, values in data["samples"].items():
                self.samples[key].extend(values)
                spilled[key].extend(values)
        return spilled

    def span(self, metric, fn, hook=None, pre=None):
        """`fn` wrapped to add its self time to `metric` and call `hook` after it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(*args) if pre else None
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self.self_s[metric] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if hook:
                hook(self, args, out, elapsed, before)
            if self.in_child and not self._stack:
                self._spill()
            return out
        return wrapper

    def install(self, full):
        """Wrap every target (full) or only run_training, which times each run."""
        for owner, attr, metric, hook, pre in targets(full):
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self.span(metric, original.fget, hook, pre))
            elif owner is ProcessPoolExecutor and attr == "map":
                wrapped = self.span(metric, _drained(original), hook, pre)
            else:
                wrapped = self.span(metric, original, hook, pre)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def target_names(full):
    return {_name(owner, attr) for owner, attr, *_ in targets(full)}


def wrapped_names():
    """Targets that currently resolve to a wrapper instead of the original."""
    names = set()
    for owner, attr, *_ in targets(full=True):
        obj = owner.__dict__[attr]
        fn = obj.fget if isinstance(obj, property) else obj
        if hasattr(fn, "__wrapped__"):
            names.add(_name(owner, attr))
    return names


def _drained(map_fn):
    """Executor.map that collects every result before it returns."""
    @functools.wraps(map_fn)
    def drained(*args, **kwargs):
        return iter(list(map_fn(*args, **kwargs)))
    return drained


def _name(owner, attr):
    return "%s.%s" % (owner.__name__, attr)


def _draw(rec, args, out, elapsed, before):
    rec.counts["latency.draws"] += 1


def _markov(rec, args, out, elapsed, before):
    rec.counts["latency.draws"] += len(args[0].slow)


def _encode(rec, args, out, elapsed, before):
    rec.counts["codec.specs_built"] += len(out)


def _pending(state, *args):
    return len(state.pending)


def _ingest(rec, args, out, elapsed, pending_before):
    # An ingest either recovers one block directly (and len(out) - 1 more by
    # peeling), joins the pending equations, or is discarded as a duplicate.
    # Pending equations the cascade drops without recovering are discarded too.
    counts = rec.counts
    unlocked = len(out)
    dropped = pending_before - len(args[0].pending)
    counts["decoder.ingested"] += 1
    if unlocked:
        counts["decoder.peeled"] += unlocked - 1
        counts["decoder.discarded"] += dropped - (unlocked - 1)
    elif dropped == 0:
        counts["decoder.discarded"] += 1


def _finalize(rec, args, out, elapsed, before):
    rec.counts["decoder.recovered"] += int(out[0].sum())
    rec.counts["decoder.pending_at_stop"] += len(args[0].pending)


def _run(rec, args, out, elapsed, before):
    problem = args[0]
    d = problem.d
    rows = problem.X_train.shape[0] + problem.X_test.shape[0]
    iterations = len(out.records)
    counts = rec.counts
    rec.samples["run_s"].append(elapsed)
    rec.results.append(out)
    counts["trainer.iterations"] += iterations
    counts["trainer.exhausted"] += len(out.exhausted_iterations)
    counts["trainer.sim_time_s"] += float(sum(r.wall_time for r in out.records))
    # Per iteration: W @ theta plus the train and test loss mat-vecs.
    counts["trainer.flops_computed"] += iterations * 2 * (d * d + rows * d)
    counts["trainer.bytes_computed"] += iterations * 8 * (d * d + rows * d)


def _execute(rec, args, out, elapsed, before):
    rec.samples["worker_run_s"].append(elapsed)
    if rec.in_child:
        rec.counts["experiments.result_bytes"] += len(pickle.dumps(out))


def _generated(rec, args, out, elapsed, before):
    rec.counts["problem.bytes"] += sum(a.nbytes for a in vars(out).values())


def targets(full):
    """(owner, attribute, self-time metric, hook, pre-hook) for each wrapped name."""
    run = (trainer, "run_training", "trainer.self_s", _run, None)
    if not full:
        return [run]
    return [
        (latency, "effective_params", "latency.busy_s", None, None),
        (latency, "sample_completion_times", "latency.busy_s", _draw, None),
        (latency, "step_markov", "latency.busy_s", _markov, None),
        (codec, "build_rcs", "codec.order_s", None, None),
        (codec, "shift_for_iteration", "codec.order_s", None, None),
        (codec, "apply_order", "codec.order_s", None, None),
        (codec, "encode", "codec.encode_s", _encode, None),
        (codec, "select_adaptive_shift", "codec.adaptive_s", None, None),
        (decoder.RecoveryState, "ingest", "decoder.ingest_s", _ingest, _pending),
        (decoder.RecoveryState, "finalize", "decoder.ingest_s", _finalize, None),
        (ages.AgeTable, "update", "ages.update_s", None, None),
        (ages.AgeTable, "history", "ages.report_s", None, None),
        (ages.AgeTable, "objective", "ages.report_s", None, None),
        (ages.AgeTable, "average_ages", "ages.report_s", None, None),
        (trainer, "evaluate", "trainer.evaluate_s", None, None),
        (trainer, "apply_partial_update", "trainer.update_s", None, None),
        run,
        (trainer, "write_metrics_csv", "experiments.write_s", None, None),
        (ages, "write_ages_csv", "experiments.write_s", None, None),
        (ages, "write_summary_csv", "experiments.write_s", None, None),
        (experiments, "generate_problem", "problem.generate_s", _generated, None),
        (experiments, "table1_grid", "experiments.self_s", None, None),
        (experiments, "run_experiment", "experiments.self_s", None, None),
        (experiments, "_execute_run", "experiments.self_s", _execute, None),
        (ProcessPoolExecutor, "map", "experiments.pool_wait_s", None, None),
        (ProcessPoolExecutor, "shutdown", "experiments.pool_wait_s", None, None),
        (experiments, "write_raw_files", "experiments.write_s", None, None),
        (experiments, "emit_plotdata", "experiments.write_s", None, None),
        (experiments, "write_objectives", "experiments.write_s", None, None),
        (experiments.SweepResult, "mean_test_loss", "experiments.aggregate_s", None, None),
        (experiments.SweepResult, "mean_objective", "experiments.aggregate_s", None, None),
        (experiments.SweepResult, "mean_average_ages", "experiments.aggregate_s", None, None),
    ]

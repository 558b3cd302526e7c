"""One benchmark run of one workload: set-up, warm-up, timed passes, checks, metrics.

Untraced passes wrap only ``run_training``, with a timer that reads the clock
twice per training run and keeps its TrainResult for the checks; every other
function is the original. Untraced run (``trace=False``): such passes repeat
until their host time reaches ``seconds``; set-up time is then measured in
fresh processes (``setup_probe.py``).

Traced run (``trace=True``): untraced passes for half of ``seconds``, one
untraced pass through the process pool (for ``experiments.pool_speedup``),
then one pass with every wrapper of ``tracer.targets`` installed, at the
workload's ``traced_jobs``; per-layer metrics describe that pass.

Every pass is checked (``checks``) outside its timed interval; a pass that
raises or fails a check counts as failed.
"""

import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import replace
from time import perf_counter

import numpy as np

import checks
import tracer
import workloads
from codedgd import experiments

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(workloads.ROOT, ".perfbench_work")
SETUP_SAMPLES = 11
WARMUP_ITERATIONS = 50
SELF_SUM_TOLERANCE = 0.05

# Self times that together account for the traced pass (see _check_accounting).
LAYER_TIMES = ("latency.busy_s", "codec.encode_s", "codec.order_s", "codec.adaptive_s",
               "decoder.ingest_s", "ages.update_s", "ages.report_s", "trainer.self_s",
               "trainer.evaluate_s", "trainer.update_s", "experiments.write_s",
               "experiments.aggregate_s", "experiments.self_s")
LAYER_COUNTS = ("latency.draws", "codec.specs_built", "decoder.ingested",
                "decoder.recovered", "decoder.peeled", "decoder.discarded",
                "decoder.pending_at_stop", "trainer.iterations", "trainer.exhausted",
                "trainer.flops_computed", "trainer.bytes_computed", "trainer.sim_time_s")


class Bench:
    """State of one run: the workload's config, its problem and the pass tally."""

    def __init__(self, name, seed, toy, tmp):
        self.workload = workloads.WORKLOADS[name]
        self.cfg = workloads.config(self.workload, seed, toy)
        self.tmp = tmp
        self.pinned = None if toy else checks.pinned_digest(name, seed)
        self.problem = experiments._problem_cache(self.cfg)
        self.recorder = tracer.Recorder(os.path.join(tmp, "spill"))
        os.makedirs(self.recorder.spill_dir)
        self.replays = {}
        self.digest = None
        self.grid = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        warm = replace(self.cfg, replicas=1,
                       n_iterations=min(WARMUP_ITERATIONS, self.cfg.n_iterations))
        workloads.run_pass(self.workload, warm, os.path.join(tmp, "warmup"))

    def timed_pass(self, wrapped, n_jobs=1):
        """Run one pass; returns (host seconds, output, out_dir, traceback or None)."""
        found = tracer.wrapped_names()
        if found != wrapped:
            raise RuntimeError("pass expects wrappers on %s, found %s"
                               % (sorted(wrapped), sorted(found)))
        out_dir = os.path.join(self.tmp, "pass%d" % self.attempted)
        self.attempted += 1
        self.recorder.results = []
        start = perf_counter()
        try:
            output = workloads.run_pass(self.workload, self.cfg, out_dir, n_jobs)
        except Exception:
            return perf_counter() - start, None, out_dir, traceback.format_exc()
        return perf_counter() - start, output, out_dir, None

    def judge(self, output, out_dir, error):
        """Check one pass's outputs; returns True if it passed."""
        errors = [error] if error else self._check(output, out_dir, self.recorder.results)
        self.recorder.results = []
        shutil.rmtree(out_dir, ignore_errors=True)
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return not errors

    def _check(self, output, out_dir, runs):
        index = self.attempted - 1
        if not self.workload.grid:
            errors = checks.check_sweep(output, self.problem, out_dir, self.replays, index)
            digest = checks.outputs_digest([output])
        elif not runs:
            # A pool pass: its TrainResults stayed in the workers.
            return checks.check_grid(output, self.grid)
        else:
            sweeps = workloads.grid_sweeps(self.cfg, runs)
            errors = checks.check_grid_pass(output, sweeps, self.problem, self.replays, index)
            digest = checks.outputs_digest(sweeps.values(), output)
            self.grid = self.grid or output
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            errors.append("pass %d: outputs differ from the first pass at the same seed" % index)
        if self.pinned and digest != self.pinned:
            errors.append("pass %d: outputs differ from the digest pinned for this seed" % index)
        return errors

    def untraced_pass(self, n_jobs=1):
        """A pass with only the run_training timer; returns (host seconds, completed).

        A pass that completes but fails a check still has a valid time; the
        failure shows in ``failed`` and in ``correct``.
        """
        self.recorder.install(full=False)
        try:
            elapsed, output, out_dir, error = self.timed_pass(
                tracer.target_names(full=False), n_jobs)
        finally:
            self.recorder.uninstall()
        self.recorder.merge_spills()
        self.judge(output, out_dir, error)
        return elapsed, error is None

    def passes(self, seconds):
        """Untraced passes until their host time reaches `seconds`; the completed passes' times."""
        times, spent = [], 0.0
        while True:
            elapsed, completed = self.untraced_pass()
            spent += elapsed
            if completed:
                times.append(elapsed)
            if spent >= seconds:
                return times

    def untraced(self, seconds):
        times = self.passes(seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        iterations = workloads.iterations_per_pass(self.workload, self.cfg)
        runs = self.recorder.samples["run_s"]
        return {
            "sim_iters_per_s": _median([iterations / t for t in times]),
            "wall_s": _median(times),
            "run_s_p50": _median(runs),
            "run_s_p90": (float(np.percentile(runs, 90)) if runs else None, len(runs)),
            "peak_rss_mb": (peak_kib / 1024.0, 1),
        }

    def traced(self, seconds):
        times = self.passes(seconds / 2.0)
        if not times:
            return {}
        serial = statistics.median(times)
        pooled, _ = self.untraced_pass(workloads.POOL_JOBS)
        jobs = self.workload.traced_jobs
        untraced = (serial, len(times)) if jobs == 1 else (pooled, 1)
        rec = self.recorder
        rec.install(full=True)
        try:
            # Regenerate the problem under the tracer, outside the traced pass.
            self.problem = None
            experiments._CACHED.clear()
            self.problem = experiments._problem_cache(self.cfg)
            generate = (rec.self_s["problem.generate_s"], rec.counts["problem.bytes"])
            rec.reset()
            elapsed, output, out_dir, error = self.timed_pass(tracer.target_names(full=True), jobs)
            worker_spans = rec.merge_spills()["worker_run_s"]
        finally:
            rec.uninstall()
        write_bytes = _tree_bytes(out_dir)
        self.judge(output, out_dir, error)
        if error:
            return {}
        metrics = {name: (rec.self_s[name], 1) for name in LAYER_TIMES}
        pool_wait = rec.self_s["experiments.pool_wait_s"]
        coverage = self._check_accounting(elapsed, metrics, pool_wait, worker_spans, jobs)
        counts = rec.counts
        metrics.update({name: (counts[name], 1) for name in LAYER_COUNTS})
        if jobs == 1:   # otherwise the pool workers counted the bytes they sent
            counts["experiments.result_bytes"] = sum(
                len(pickle.dumps(run)) for runs in output.runs.values() for run in runs)
        metrics.update({
            "decoder.useful_ratio": (counts["decoder.recovered"] / max(counts["decoder.ingested"], 1), 1),
            "experiments.write_bytes": (write_bytes, 1),
            "experiments.result_bytes": (counts["experiments.result_bytes"], 1),
            "experiments.worker_run_s_p50": _median(rec.samples["worker_run_s"]),
            "experiments.pool_wait_s": (pool_wait, 1),
            "experiments.pool_speedup": (serial / pooled, len(times)),
            "problem.generate_s": (generate[0], 1),
            "problem.bytes": (generate[1], 1),
            "trace.overhead_frac": (elapsed / untraced[0] - 1.0, 1),
            "trace.traced_pass_s": (elapsed, 1),
            "trace.untraced_pass_s": untraced,
            "trace.self_sum_frac": (coverage, 1),
        })
        return metrics

    def _check_accounting(self, elapsed, metrics, pool_wait, worker_spans, jobs):
        """Check the emitted layer times against the traced pass; returns their coverage.

        The parent's self times add up to the pass. Pool workers run while the
        parent waits in the pool, so their self times, which add up to their
        `_execute_run` spans, replace that wait: the layer times plus the wait,
        minus the workers' spans, must come to the pass time within 5 %. Every
        run of the pass must have been timed exactly once, and the workers
        cannot have been busy for longer than `jobs` times the wait.
        """
        layers = sum(metrics[name][0] for name in LAYER_TIMES)
        coverage = (layers + pool_wait - sum(worker_spans)) / elapsed
        if abs(coverage - 1.0) > SELF_SUM_TOLERANCE:
            self.errors.append("layer times account for %.4f of the traced pass (%.4f s)"
                               % (coverage, elapsed))
        runs = workloads.runs_per_pass(self.workload, self.cfg)
        timed = len(self.recorder.samples["worker_run_s"])
        if timed != runs:
            self.errors.append("traced pass timed %d runs, it has %d" % (timed, runs))
        if sum(worker_spans) > jobs * pool_wait * (1.0 + SELF_SUM_TOLERANCE):
            self.errors.append("pool workers ran for %.4f s, the parent waited %.4f s on %d"
                               % (sum(worker_spans), pool_wait, jobs))
        return coverage


def _median(values):
    return (statistics.median(values) if values else None, len(values))


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def setup_seconds(name, seed, toy):
    """Median time for a fresh process to import codedgd and generate the problem."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed), str(int(toy))]
    samples = [float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                    timeout=150).stdout)
               for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples), len(samples)


def measure(name, seed, seconds, trace, toy=False):
    """Run one workload; returns metrics {name: (value, samples)}, counts and errors."""
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        bench = Bench(name, seed, toy, tmp)
        if trace:
            metrics = bench.traced(seconds)
        else:
            metrics = bench.untraced(seconds)
            bench.problem = None
            experiments._CACHED.clear()
            metrics["setup_s"] = setup_seconds(name, seed, toy)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics["fail_frac"] = (bench.failed / bench.attempted, bench.attempted)
    return {"metrics": metrics, "attempted": bench.attempted, "failed": bench.failed,
            "errors": bench.errors, "digest": bench.digest}

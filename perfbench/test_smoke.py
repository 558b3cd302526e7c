"""Smoke test of the benchmark at toy size (K=N=4, T=5, d=8).

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os

import pytest

import measure
import workloads

with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(name, trace):
    result = measure.measure(name, workloads.default_seed(workloads.WORKLOADS[name]),
                             seconds=0, trace=trace, toy=True)
    assert result["errors"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert [n for n in wanted if result["metrics"].get(n, (None,))[0] is None] == []
    assert result["metrics"]["fail_frac"][0] == 0


def test_wrappers_are_removed_after_the_traced_pass(tmp_path):
    tracer = measure.tracer
    recorder = tracer.Recorder(str(tmp_path))
    recorder.install(full=True)
    try:
        assert tracer.wrapped_names() == tracer.target_names(full=True)
    finally:
        recorder.uninstall()
    assert tracer.wrapped_names() == set()


def test_corrupted_recovery_vector_fails_the_pass(tmp_path):
    bench = measure.Bench("fig3", 227, True, str(tmp_path))
    elapsed, sweep, out_dir, error = bench.timed_pass(set())
    assert error is None
    run = sweep.runs["rcs"][0]
    run.records[2].r[0] ^= 1
    assert not bench.judge(sweep, out_dir, error)
    assert bench.failed / bench.attempted > 0
    assert any("replay" in e for e in bench.errors)

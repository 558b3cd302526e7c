"""codedgd benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig3|table1|wide [--seed N]
                             [--seconds S] [--trace 0|1]

``--seed`` is the master seed of the experiment and defaults to the preset's
seed; ``--seconds`` is how long the timed passes run and defaults to
``run_seconds`` of ``BENCHMARK.json``. ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer metrics
of one traced pass. The output is a table (value, unit, sample count, and
``fail_frac``), an ``env`` line, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The full record, with the
environment stamp, is also written under ``.perfbench_work/results/``.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description="codedgd benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "codedgd", "__init__.py")):
        print("perfbench: no codedgd sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    import envinfo
    import measure
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    seed = workloads.default_seed(workload) if args.seed is None else args.seed
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spec = bench["per_layer" if args.trace else "end_to_end"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    result = measure.measure(args.workload, seed, seconds, bool(args.trace))
    measured = result["metrics"]
    for error in result["errors"]:
        print("perfbench: " + error, file=sys.stderr)
    missing = [m["name"] for m in spec if measured.get(m["name"], (None,))[0] is None]
    if missing:
        print("perfbench: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1

    # Printed but not in the JSON: fail_frac is 0 on a correct run, and the
    # self-time coverage of the traced pass is checked by the run itself.
    units = {m["name"]: m["unit"] for m in spec}
    units.update((name, "ratio") for name in ("fail_frac", "trace.self_sum_frac")
                 if name in measured)
    print("perfbench %s seed=%d trace=%d" % (args.workload, seed, args.trace))
    for name, unit in units.items():
        value, samples = measured[name]
        print("  %-30s %16.6g %-6s n=%d" % (name, value, unit, samples))
    env = envinfo.environment(seed)
    print("env " + json.dumps(env, sort_keys=True))

    correct = result["failed"] == 0 and not result["errors"]
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in spec}
    record = dict(result, env=env, workload=args.workload, trace=args.trace,
                  seconds=seconds, correct=correct)
    out_dir = os.path.join(measure.WORK_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json" % (args.workload, seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

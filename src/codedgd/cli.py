"""Command-line driver.

Subcommands:
  run     --config FILE        run an experiment described by a key=value file
  preset  NAME                 run one of the built-in experiment presets
  table1                       staleness-objective grid over tolerance levels

Exit codes: 0 success, 2 configuration error, 3 runtime error. The default
output directory can be set with the CODEDGD_OUT environment variable.
"""

import argparse
import os
import sys
from dataclasses import fields, replace

from .experiments import (PRESETS, ExperimentConfig, PolicySpec, _problem_cache,
                          preset_config, run_experiment, table1_grid)
from .problem import ConfigurationError, largest_eigenvalue


def parse_policy_token(token):
    token = token.strip()
    if token == "rcs":
        return PolicySpec("rcs", "static")
    if token == "rcs1":
        return PolicySpec("rcs1", "fixed_shift")
    kind, colon, a_th = token.partition(":")
    if kind == "adaptive":   # `adaptive` or `adaptive:N`
        a_th = int(a_th) if colon else 1
        return PolicySpec("adaptive%d" % a_th, "adaptive", a_th)
    raise ConfigurationError("unknown policy token %r" % token)


def parse_config_file(path):
    """Flat `key = value` file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError("%s:%d: expected key = value" % (path, lineno))
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    # Each key is an ExperimentConfig field, parsed by its type; `profile`
    # aliases `profile_kind`.
    parsers = {f.name: f.type for f in fields(ExperimentConfig)}
    parsers["degrees"] = lambda val: tuple(int(x) for x in val.split(","))
    parsers["policies"] = lambda val: tuple(parse_policy_token(t) for t in val.split(","))
    parsers["profile"] = parsers["profile_kind"]
    kwargs = {}
    for key, val in values.items():
        if key not in parsers:
            raise ConfigurationError("%s: unknown config key %r" % (path, key))
        try:
            kwargs["profile_kind" if key == "profile" else key] = parsers[key](val)
        except ValueError as exc:
            raise ConfigurationError("%s: %s = %r: %s" % (path, key, val, exc)) from None
    return ExperimentConfig(**kwargs)


def parse_q_list(text):
    """Comma-separated distinct tolerance levels of `table1 --q`, each in [0, 1)."""
    try:
        q_values = [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigurationError("--q must be comma-separated numbers, got %r" % text) from None
    if any(not 0 <= q < 1 for q in q_values):
        raise ConfigurationError("--q values must lie in [0, 1), got %r" % text)
    if len(set(q_values)) < len(q_values):
        raise ConfigurationError("--q values must be distinct, got %r" % text)
    return q_values


def check_step_size(config):
    """Reject an eta for which masked GD diverges: eta must be below 2 / lambda_max(W).

    A masked step is a gradient step on the recovered blocks alone, whose
    curvature lambda_max(W_SS) is at most W's, so below this one bound every
    step lowers the training loss, whatever the recovery vector. The problem
    comes from the experiment cache, so the runs (and pool workers forked
    later) reuse it.
    """
    bound = 2 / largest_eigenvalue(_problem_cache(config).W)
    if config.eta >= bound:
        raise ConfigurationError("eta = %g makes masked GD diverge: it must be below "
                                 "2 / lambda_max(W) = %.4g" % (config.eta, bound))


def _default_out():
    return os.environ.get("CODEDGD_OUT", "codedgd_out")


def build_parser():
    parser = argparse.ArgumentParser(prog="codedgd",
                                     description="coded gradient-descent simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    _common_flags(p_run)

    p_preset = sub.add_parser("preset", help="run a built-in experiment preset")
    p_preset.add_argument("name", choices=PRESETS)
    _common_flags(p_preset)

    p_t1 = sub.add_parser("table1", help="objective grid over tolerance levels")
    p_t1.add_argument("--a-th", type=int, default=2)
    p_t1.add_argument("--q", default="0.1,0.2,0.3",
                      help="comma-separated tolerance levels")
    _common_flags(p_t1)
    return parser


def _common_flags(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)


def _apply_overrides(config, args):
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.replicas is not None:
        config = replace(config, replicas=args.replicas)
    out = args.out if args.out is not None else (config.output_dir or _default_out())
    if not out:
        raise ConfigurationError("--out (or CODEDGD_OUT) must name a directory, got ''")
    return replace(config, output_dir=out)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = _apply_overrides(parse_config_file(args.config), args)
        elif args.command == "preset":
            config = _apply_overrides(preset_config(args.name), args)
        else:
            config = _apply_overrides(replace(preset_config("table1"), a_th=args.a_th), args)
            q_values = parse_q_list(args.q)
            for q in q_values:   # constructing each grid cell validates it
                replace(config, q=q)
        if args.jobs < 1:
            raise ConfigurationError("--jobs must be >= 1, got %d" % args.jobs)
        check_step_size(config)
        os.makedirs(config.output_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        if args.command == "table1":
            out_path = os.path.join(config.output_dir, "table1.csv")
            grid = table1_grid(config, q_values, a_th=config.a_th,
                               n_jobs=args.jobs, out_path=out_path)
            for q in q_values:
                cells = "  ".join("%s=%.4f" % kv for kv in sorted(grid[q].items()))
                print("q=%g  %s" % (q, cells))
            print("wrote %s" % out_path)
        else:
            result = run_experiment(config, n_jobs=args.jobs)
            total = config.replicas * config.n_iterations
            for name in result.policy_names():
                mean, _ = result.mean_test_loss(name)
                exhausted = sum(len(run.exhausted_iterations) for run in result.runs[name])
                print("%s: final mean test loss %.6g, objective %.4f, exhausted %d/%d iterations"
                      % (name, mean[-1], result.mean_objective(name), exhausted, total))
                if exhausted:
                    print("warning: %s: %d of %d iterations used every message without "
                          "reaching the recovery target" % (name, exhausted, total),
                          file=sys.stderr)
                unrecovered = sum(bool(run.never_recovered) for run in result.runs[name])
                if unrecovered:
                    print("warning: %s: %d of %d runs never recovered some block" % (
                        name, unrecovered, config.replicas), file=sys.stderr)
            print("wrote %s" % config.output_dir)
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code 3
        print("runtime error: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

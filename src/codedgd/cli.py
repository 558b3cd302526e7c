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
from dataclasses import replace

from .experiments import (PRESETS, ExperimentConfig, PolicySpec, preset_config,
                          run_experiment, table1_grid)
from .problem import ConfigurationError

_INT_KEYS = {"n_train", "n_test", "d", "n_blocks", "n_workers", "n_iterations",
             "a_th", "n_stragglers", "replicas", "seed"}
_FLOAT_KEYS = {"noise_std", "eta", "q", "mu", "alpha", "alpha_straggler", "p", "mu_slow"}


def parse_policy_token(token):
    token = token.strip()
    if token == "rcs":
        return PolicySpec("rcs", "static")
    if token == "rcs1":
        return PolicySpec("rcs1", "fixed_shift")
    if token.startswith("adaptive"):
        a_th = int(token.split(":", 1)[1]) if ":" in token else 1
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
    kwargs = {}
    for key, val in values.items():
        if key in _INT_KEYS:
            kwargs[key] = int(val)
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(val)
        elif key == "degrees":
            kwargs[key] = tuple(int(x) for x in val.split(","))
        elif key == "policies":
            kwargs[key] = tuple(parse_policy_token(t) for t in val.split(","))
        elif key == "profile":
            kwargs["profile_kind"] = val
        elif key in ("profile_kind", "output_dir"):
            kwargs[key] = val
        else:
            raise ConfigurationError("%s: unknown config key %r" % (path, key))
    return ExperimentConfig(**kwargs)


def parse_q_list(text):
    """Comma-separated tolerance levels of `table1 --q`, each in [0, 1)."""
    try:
        q_values = [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigurationError("--q must be comma-separated numbers, got %r" % text) from None
    if any(not 0 <= q < 1 for q in q_values):
        raise ConfigurationError("--q values must lie in [0, 1), got %r" % text)
    return q_values


def _default_out():
    return os.environ.get("CODEDGD_OUT", "codedgd_out")


def build_parser():
    parser = argparse.ArgumentParser(prog="codedgd",
                                     description="coded gradient-descent simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    for p in (p_run,):
        _common_flags(p)

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
    return replace(config, output_dir=out)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = _apply_overrides(parse_config_file(args.config), args)
        elif args.command == "preset":
            config = _apply_overrides(preset_config(args.name), args)
        else:
            config = _apply_overrides(preset_config("table1"), args)
            q_values = parse_q_list(args.q)
        checked = ([replace(config, q=q) for q in q_values]
                   if args.command == "table1" else [config])
        # surface bad numeric settings before running
        for cfg in checked:
            cfg.train_config(cfg.policies[0], run_seed=0)
    except (ConfigurationError, OSError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        os.makedirs(config.output_dir, exist_ok=True)
        if args.command == "table1":
            out_path = os.path.join(config.output_dir, "table1.csv")
            grid = table1_grid(config, q_values, a_th=args.a_th,
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
            print("wrote %s" % config.output_dir)
    except ConfigurationError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code 3
        print("runtime error: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

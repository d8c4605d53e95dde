"""Command-line pipeline driver.

    ridepool all --config run.ini --out runs/demo
    ridepool gen|graph|embed|train|match|evaluate|sweep [--config ...] [--seed N]
                                                        [--out DIR] [--objective ...]

Exit codes: 0 success, 1 config validation error, 2 runtime error (missing
artifacts, routing failures, ...).
"""

import argparse
import sys

from . import pipeline
from .geo import NoRouteError
from .scenario import ConfigError, ScenarioConfig, load_config, with_overrides

_COMMANDS = pipeline.STAGES + ("all",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridepool",
        description="Ride-pooling matching pipeline: scenario generation, shareability "
        "graph, user embeddings, policy training, matching, evaluation, and the "
        "social-distance sensitivity sweep.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value section config file")
    common.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    common.add_argument("--out", default="out", metavar="DIR", help="artifact directory (default: out)")
    common.add_argument(
        "--objective",
        choices=("distance", "time", "vehicle"),
        help="override the matching objective",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "gen": "generate the seeded network and trip demand",
        "graph": "build and export the shareability graph",
        "embed": "compute and export user context vectors",
        "train": "train the selection policy and write a checkpoint",
        "match": "decode a matching with the trained policy",
        "evaluate": "compute the indicator report for a matching",
        "sweep": "run the social-distance sensitivity sweep",
        "all": "run every stage in order",
    }
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=help_text[name])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        cfg = with_overrides(cfg, seed=args.seed, objective=args.objective)
    except FileNotFoundError as exc:
        print(f"error: config file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable or not UTF-8
        reason = (exc.strerror or exc) if isinstance(exc, OSError) else exc
        print(f"config error: {args.config}: {reason}", file=sys.stderr)
        return 1
    stages = pipeline.STAGES if args.command == "all" else (args.command,)
    try:
        pipeline.run_pipeline(cfg, args.out, stages)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, NoRouteError) as exc:  # bad or missing artifacts, unroutable trips
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

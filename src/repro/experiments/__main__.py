"""Command-line entry: ``python -m repro.experiments <id> [--seed N]``."""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import (
    REGISTRY,
    experiment_keywords,
    run_experiment,
)


def _fail_usage(message):
    """One-line argument error; exit code 2 like argparse."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Regenerate one of the paper's tables/figures."
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"experiment id, one of: {', '.join(sorted(REGISTRY))}",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--substrate",
        default=None,
        help="ambient-substrate filter, for experiments that accept one "
        "(currently subgrid)",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        for key in sorted(REGISTRY):
            print(f"{key:8s} {REGISTRY[key][1]}")
        return 0

    try:
        keywords = experiment_keywords(args.experiment)
    except KeyError as exc:
        return _fail_usage(exc.args[0])
    kwargs = {}
    if args.substrate is not None:
        from repro.substrates import get_substrate

        if "substrate" not in keywords:
            return _fail_usage(
                f"experiment {args.experiment!r} does not take a "
                "--substrate filter"
            )
        try:
            get_substrate(args.substrate)
        except KeyError as exc:
            return _fail_usage(exc.args[0])
        kwargs["substrate"] = args.substrate
    result = run_experiment(args.experiment, seed=args.seed, **kwargs)
    print(f"# {result.name}: {result.description}")
    print(result.format_table())
    if result.notes:
        print(f"# {result.notes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

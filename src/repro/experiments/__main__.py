"""``python -m repro.experiments <id> [--seed N]`` runs ``repro experiment``."""

import sys

from repro.cli import main as cli_main


def main(argv=None):
    return cli_main(["experiment", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())

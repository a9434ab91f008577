"""``python -m repro.lint``: the same as ``biggerfish lint``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["lint", *sys.argv[1:]]))

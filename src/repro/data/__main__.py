"""``python -m repro.data``: the same as ``biggerfish data``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["data", *sys.argv[1:]]))

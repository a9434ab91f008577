"""``python -m repro.verify``: the same as ``biggerfish verify``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["verify", *sys.argv[1:]]))

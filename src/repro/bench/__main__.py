"""``python -m repro.bench``: the same as ``biggerfish bench``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))

"""`python -m omtop`: the command-line interface of :mod:`omtop.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

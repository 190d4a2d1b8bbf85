"""``python -m weylstir``: the command-line front end of :mod:`weylstir.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

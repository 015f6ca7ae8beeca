"""`python -m haarmult`: the command line of `haarmult.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

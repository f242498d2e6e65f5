"""``python -m abgup``: the same command line as the ``abgup`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

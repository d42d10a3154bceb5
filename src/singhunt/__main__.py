"""``python -m singhunt``: the same command line as the ``singhunt`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m tandempoll``: the ``polling-wait`` command line."""

import sys

from .reporting import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m qpspec``: the same entry point as the ``qpspec`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

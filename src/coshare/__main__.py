"""``python -m coshare``: the coshare command line, as the ``coshare`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

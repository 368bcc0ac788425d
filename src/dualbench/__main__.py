"""``python -m dualbench ARGS`` runs the ``dualbench`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

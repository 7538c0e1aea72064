"""Run the command-line interface without an install: ``PYTHONPATH=src python -m rindlercv ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

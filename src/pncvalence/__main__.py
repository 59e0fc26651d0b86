"""Run the pipeline as ``python -m pncvalence <stage> --config ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

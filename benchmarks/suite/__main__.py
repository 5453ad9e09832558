"""``python -m benchmarks.suite`` — see :mod:`benchmarks.suite.cli`."""

import sys

from . import env
from .cli import main

if __name__ == "__main__":
    env.pin_hash_seed()
    sys.exit(main())

"""Entry point: ``python3 benchmarks/harness ...``; see ``runner.py``."""

import sys

from runner import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""``python -m benchmarks.suite [--workload NAME]... [--seed N] [--repeats K]
[--trace] [--out FILE]`` and ``python -m benchmarks.suite agree A.json B.json``.
"""

import sys

from benchmarks.suite.run import main

if __name__ == "__main__":
    sys.exit(main(contract=False))

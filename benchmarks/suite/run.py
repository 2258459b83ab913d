"""The benchmark's command: ``python3 benchmarks/suite/run.py --workload NAME
--seed N --seconds S --trace 0|1`` prints the metric lines and, last, one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).

It is also the ``__main__`` of every workload process (``_worker``), so the
multiproc backend's spawned replicas re-import this file: nothing runs at
import but the path set-up, and the entry point sits behind the guard.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _p in (_ROOT, os.path.join(_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)


def main(argv=None, contract=True):
    from benchmarks.suite import harness

    return harness.main(argv, contract)


if __name__ == "__main__":
    sys.exit(main())

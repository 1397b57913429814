"""One sample of ``setup_s``, taken in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints the CPU seconds from before ``import repro`` to the end of
building the workload's deployment, its ``setup()`` and the registration
of its functions.  ``run.py`` starts this script several times and
reports the median.
"""

import time

_T0 = time.process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deploy import deploy  # noqa: E402
from plans import WORKLOADS  # noqa: E402


def main(argv) -> int:
    workload, seed = WORKLOADS[argv[0]], int(argv[1])
    deploy(workload, seed, workload.functions)
    print(f"{time.process_time() - _T0:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Time one benchmark set-up in a fresh process and print it in seconds.

    python3 perfbench/setup_probe.py <seed>

The set-up is the one every workload pays before its first timed op:
importing the program, filling a results store with the run's stored
scenarios and starting the results service.  The probe prints the set-up
time in host seconds and the factor to reference seconds measured right
after it (``harness.setup_scale``).  run.py takes the median of its own
set-up and several of these.
"""

import time

STARTED = time.perf_counter()

import shutil  # noqa: E402  (the start time is taken before any import)
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402


def main() -> int:
    fabric = harness.Fabric(int(sys.argv[1]))
    elapsed = time.perf_counter() - STARTED
    scale = harness.setup_scale()
    # the service's threads are daemons and end with this process; only the
    # scratch store needs removing
    shutil.rmtree(fabric.work)
    print(f"{elapsed:.9f} {scale:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

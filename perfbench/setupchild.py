"""Time one cold set-up of a workload in a fresh process.

    python3 perfbench/setupchild.py WORKLOAD SEED

Imports mulingua and makes the workload's inputs untimed, then times
``set_up()`` once and prints ``{"seconds": ..., "ok": ...}`` as JSON.
``run.py`` starts one of these for each repeated set-up of an in-process
workload, so every figure behind ``setup_s`` is the first set-up of a
process, as a user starting the workload meets it: nothing the program
keeps from an earlier set-up in the same process can shorten it.
"""

import gc
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = WORKLOADS[name](seed, HERE / "out")
    gc.collect()
    start = time.perf_counter()
    workload.set_up()
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "ok": workload.setup_ok()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

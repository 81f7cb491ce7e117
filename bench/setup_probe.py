"""Time one set-up in a fresh interpreter and print it as one JSON line.

Set-up is what a user pays before the first solver step: importing
``ssqpbench``, building the workload's instance and, for the regression
workloads, the reference solve.  ``run.py`` starts this script several times
and reports the median; the last probe's instance document (reference point,
strong convexity and smoothness) is what the measured passes use.

    python3 bench/setup_probe.py <workload> <seed> [--quick]
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    t0 = time.process_time()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import ssqpbench  # noqa: F401  (the import is what is timed)
    import workloads

    t1 = time.process_time()
    name, seed, quick = sys.argv[1], int(sys.argv[2]), "--quick" in sys.argv[3:]
    instance, split = workloads.build_instance(name, seed, quick)
    t2 = time.process_time()
    print(json.dumps({"import_s": t1 - t0, **split, "setup_s": t2 - t0, "instance": instance}))

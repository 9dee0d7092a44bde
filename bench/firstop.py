"""Set-up probe: a fresh interpreter imports evicrit and runs one workload's
first op on inputs already prepared in a work directory.

    python3 bench/firstop.py <workload> <work dir>

``run.py`` times whole runs of this script for the ``setup_s`` metric.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import evicrit  # noqa: E402,F401  (the import is part of what is timed)
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
workload.op(workload.load(Path(sys.argv[2])))

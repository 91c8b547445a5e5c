"""Set-up probe, run in a fresh process by run.py to measure ``setup_s``.

It imports structham, builds the workload's problems and builds the first
coefficient table cold, which is what every CLI call pays before its first
step.  run.py times the whole process, interpreter start included.

    python3 perfbench/probe.py <workload> <seed> [--smoke]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the src path above)

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](seed, smoke="--smoke" in sys.argv[3:]).setup()

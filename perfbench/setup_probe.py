"""Set up one workload in a fresh interpreter and print "ready".

    python3 perfbench/setup_probe.py WORKLOAD SEED SECONDS [--toy]

run.py times this process from its start to the "ready" line, which covers
interpreter start, imports, building the inputs and warm-up.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    workloads.WORKLOADS[name](seed, seconds, "--toy" in sys.argv[4:]).warm_up()
    print("ready", flush=True)

"""Cold-start probe: perform one workload's set-up, print ``ready``, exit.

``python3 perfbench/probe.py WORKLOAD SEED SECONDS`` -- the harness spawns
it several times per run and times each from spawn to the ``ready`` line;
the median is the run's ``setup_s``.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.run import workload_module  # noqa: E402

if __name__ == "__main__":
    common.require_source()
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    workload_module(name).setup(name, seed, seconds)
    print("ready", flush=True)
    # skip interpreter teardown: only the time to ready is measured
    os._exit(0)

"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-recurring --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then again with every layer
wrapped, and reports the per-layer metrics.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("stream-recurring", "campaign-fig3", "service-http")


def workload_module(name: str):
    """The module implementing workload *name*."""
    if name.startswith("stream-"):
        from perfbench import streams as module
    elif name == "campaign-fig3":
        from perfbench import campaign as module
    else:
        from perfbench import service as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        common.require_source()
        module = workload_module(args.workload)
        outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return common.emit(outcome, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

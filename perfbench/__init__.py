"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``README.md`` in this
directory describes the workloads, the metrics and how to read them.
"""

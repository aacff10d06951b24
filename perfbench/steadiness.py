"""Measure the benchmark's own run-to-run spread.

``python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out FILE]``
runs every workload once per seed through ``run.py``, interleaved (seed 1
of every workload, then seed 2, ...) because consecutive runs drift
together.  For each workload and end-to-end metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread --
the interquartile distance as a share of the median -- next to the bound
``BENCHMARK.json`` fixes.  Every run must pass its output checks.  With
``--against FILE`` (an earlier ``--out``) it also reports how far each
median moved in the metric's worse direction, as a share of the earlier
median; the benchmark expects two sets to agree within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import WORKLOADS  # noqa: E402


def parse_seeds(text: str):
    """``1-10`` or ``1,4,7`` -> a list of seeds."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """Run ``run.py`` once; returns its JSON result plus the wall time."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def table(results: dict, bounds: dict, worse: dict, earlier=None) -> list:
    """One row per (workload, metric): median, quartiles, spread, bound.

    With *earlier* rows, ``shift`` is the move of the median in the
    metric's worse direction, relative to the earlier median.
    """
    before = {(row["workload"], row["metric"]): row["median"] for row in earlier or []}
    rows = []
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "runs": len(values),
                    "median": statistics.median(values),
                    "q1": q1,
                    "q3": q3,
                    "spread": (q3 - q1) / statistics.median(values),
                    "bound": bound,
                }
            )
            previous = before.get((workload, name))
            if previous is not None:
                rows[-1]["shift"] = worse[name] * (rows[-1]["median"] - previous) / previous
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=None, help="write the raw runs and rows as JSON")
    parser.add_argument("--against", default=None, help="an earlier --out to compare with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {row["name"]: row["bound"] for row in spec["end_to_end"]}
    worse = {row["name"]: 1 if row["better"] == "lower" else -1 for row in spec["end_to_end"]}
    earlier = None
    if args.against:
        earlier = json.loads(Path(args.against).read_text(encoding="utf-8"))["rows"]
    workloads = args.workloads.split(",")
    results = {workload: [] for workload in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            run = one_run(workload, seed, spec["run_seconds"])
            run["seed"] = seed
            results[workload].append(run)
            print(f"{workload} seed {seed}: {run['wall_s']:.1f}s", file=sys.stderr, flush=True)
    if args.out:
        # the raw runs first, so that they survive a failure below
        Path(args.out).write_text(json.dumps({"runs": results}, indent=1))
    rows = table(results, bounds, worse, earlier)
    print("| workload | metric | runs | median | q1 | q3 | spread | bound | shift |")
    print("|---|---|---|---|---|---|---|---|---|")
    for row in rows:
        flag = "" if row["spread"] <= row["bound"] / 3 else " (> bound/3)"
        shift = f"{row['shift']:+.3f}" if "shift" in row else "-"
        print(
            f"| {row['workload']} | {row['metric']} | {row['runs']} | {row['median']:.5g} "
            f"| {row['q1']:.5g} | {row['q3']:.5g} | {row['spread']:.3f}{flag} | {row['bound']} "
            f"| {shift} |"
        )
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": results, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

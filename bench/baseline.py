"""Run the benchmark over several seeds and print the baseline tables.

    python3 bench/baseline.py --seeds 1-10 > /tmp/baseline.md

For each workload it runs ``run.py --trace 0`` once per seed and reports,
per end-to-end metric, the median and quartiles of the per-run values (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median.  It then makes one ``--trace 1`` run per workload, at the
first seed, and prints the per-layer table.  Run it from the root of a
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        *("--workload", workload, "--seed", str(seed)),
        *("--seconds", str(seconds), "--trace", str(trace)),
    ]
    done = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: answers failed\n{done.stdout}")
    return result


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> str:
    import numpy
    import scipy

    return (
        f"nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}"
    )


def main() -> int:
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]

    seeds = f"{args.seeds[0]}..{args.seeds[-1]}"
    print(f"Machine: {machine()}. Seeds {seeds}, {args.seconds} s per run.\n")
    print("| workload | metric | median | q1 | q3 | spread | runs | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in workloads:
        results = [run_once(workload, s, args.seconds, 0) for s in args.seeds]
        for metric in manifest["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(
                f"| {workload} | {metric['name']} ({metric['unit']}) | {median:.4g} | {q1:.4g} "
                f"| {q3:.4g} | {(q3 - q1) / median:.3f} | {len(values)} | {metric['bound']} |"
            )
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"| {workload} | fail_frac | {failed / attempted:.4g} | | | | {attempted} solves | |")

    traced = {w: run_once(w, args.seeds[0], args.seconds, 1)["metrics"] for w in workloads}
    print(f"\nPer-layer metrics, one traced run at seed {args.seeds[0]}:\n")
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("| --- | --- |" + " --- |" * len(workloads))
    for metric in manifest["per_layer"]:
        name = metric["name"]
        cells = " | ".join(f"{traced[w][name]['value']:.4g}" for w in workloads)
        print(f"| {name} | {metric['unit']} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

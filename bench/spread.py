"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--trace 1] [--out FILE]

For every metric: the median of the per-seed values and the distance
between their first and third quartiles (statistics.quantiles, n=4) as a
share of that median, next to a third of the metric's bound.  Untraced
runs also report the spread of the raw medians, before run.py restates
them at nominal machine speed.  The runs are sequential, one process at
a time, each as long as BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", default=None, help="also write every run's result here (JSON)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            capture_output=True, text=True, timeout=900, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = next(json.loads(x[len("record "):]) for x in lines if x.startswith("record "))
        runs.append({"seed": seed, "result": result, "record": record})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        med, iqr = spread([r["result"]["metrics"][name]["value"] for r in runs])
        summary[name] = {"median": med, "iqr_frac": iqr}
        line = f"{name:45s} median {med:<14.6g} iqr/median {iqr:.4f}"
        raw = [r["record"]["info"].get("raw_medians", {}).get(name) for r in runs]
        if None not in raw:
            summary[name]["raw_median"], summary[name]["raw_iqr_frac"] = spread(raw)
            line += f"  raw {summary[name]['raw_iqr_frac']:.4f}"
        if name in bounds:
            over = "  OVER" if iqr > bounds[name] / 3 else ""
            line += f"  (bound/3 {bounds[name] / 3:.4f}{over})"
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": bench["run_seconds"],
                       "trace": int(args.trace), "runs": runs, "summary": summary},
                      fh, indent=1, sort_keys=True)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload once per seed, one run at a time, and report each
end-to-end metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --workload toy_train --seeds 1-10

The spread is (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``. Every run must print the metrics
BENCHMARK.json lists, with their units, and pass its checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in listed}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
        units = {k: v["unit"] for k, v in metrics.items()}
        if units != {k: m["unit"] for k, m in listed.items()}:
            print(f"seed {seed}: metrics {units} do not match BENCHMARK.json", file=sys.stderr)
            ok = False
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: not correct: {proc.stdout}", file=sys.stderr)
            ok = False
        for k in values:
            values[k].append(metrics[k]["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={metrics[k]['value']:.4g}" for k in values), flush=True)
    print(f"\n{args.workload}: {len(args.seeds)} runs")
    for k, vs in values.items():
        bound = listed[k].get("bound")
        line = f"  {k:<40} median {statistics.median(vs):<12.5g}"
        if len(vs) >= 2:
            spread = quartile_spread(vs)
            line += f" spread {spread:.4f}"
            if bound is not None:
                line += f"  bound {bound}  ({spread / bound:.2f} of it)"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload crystal --seeds 1-10 --seconds 20 [--trace 0]

For every metric it prints the median and the quartile spread
(Q3 - Q1) / median of `statistics.quantiles(values, n=4)`, next to the bound
from BENCHMARK.json, and the share of failed operations of each run.
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


def _seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="comma-separated seeds or ranges, e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m.get("bound") for m in json.load(handle)["end_to_end"]}
    values: dict = {}
    shares = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        for name, v in row.items():
            values.setdefault(name, []).append(v)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:30s} median {med:<12.6g} spread {spread:.3f}" + (f"  bound {bound}" if bound else ""))
    print("failed shares:", sorted(set(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

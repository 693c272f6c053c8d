#!/usr/bin/env python3
"""crystalcubes benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

The workload runs in a fresh single-threaded worker process.  Set-up time is
measured from process start to the worker's READY line (interpreter, import of
crystalcubes, input generation); it is taken on several fresh processes and the
median is reported.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("decompose", "crystal", "cube-exact", "cube-mc")
SETUP_PROBES = 5


def _env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _run(args: list, timeout: float):
    """Start a worker; returns (seconds until its READY line, rest of its stdout)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode} and no result")
    return ready, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crystalcubes", "__init__.py")):
        sys.stderr.write(f"no crystalcubes sources under {ROOT}/src; run from a checkout of the repository\n")
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup = [_run(common + ["--setup-only"], 60)[0] for _ in range(SETUP_PROBES)]
        ready, out = _run(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], args.seconds + 150)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setup.append(ready)
    lines = out.strip().splitlines()
    if not lines:
        sys.stderr.write("benchmark failed: the worker printed no result\n")
        return 1
    result = json.loads(lines[-1])
    speed = result.pop("speed")
    if not args.trace:
        # at the reference speed, like the worker's job times
        value = statistics.median(setup) * speed
        result["metrics"]["setup_s"] = {"value": value, "unit": "s"}
        sys.stderr.write(f"  setup_s {value:.6g} s (median of {len(setup)} processes; unscaled {statistics.median(setup):.6g} s)\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

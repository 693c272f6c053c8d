"""One workload in one process: set up, run whole rounds for the given time, check, report.

Started by run.py.  Prints READY on stdout once crystalcubes is imported and
the inputs are made, then, at the end, one JSON line with the counts and the
metrics; the human-readable report goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import crystalcubes
    from crystalcubes import bundles, cli, crystal, demazure, rootsys, stringpoly, twistedcube  # noqa: F401

    return crystalcubes


# The machine's speed drifts by tens of percent over minutes (other tenants).  A
# fixed piece of work, timed between jobs, tracks that drift: over 10 s windows the
# job time varied by 14 % while its ratio to the kernel's time varied by 1.8 %.
# Job times are reported at the speed where the kernel takes its reference time.
CALIBRATE_EVERY_S = 0.25


def _interpreted_work() -> None:
    """Fraction arithmetic and tuple keys in a dict, like the exact layers, plus a small NumPy pass."""
    import numpy as np

    table: dict = {}
    acc = Fraction(0)
    for k in range(1500):
        key = (k % 89, k % 13, Fraction(k % 7, 3))
        table[key] = table.get(key, 0) + 1
        acc += Fraction(k % 11, 1 + k % 5)
    x = np.random.default_rng(k).uniform(-1.0, 1.0, size=(20000, 3))
    float((np.where(x[:, 0] <= 0, -1.0, 1.0) * x[:, 1]).sum())


def _vectorised_work() -> None:
    """Uniform samples, a sign mask and a weighted histogram, like the Monte Carlo layer."""
    import numpy as np

    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(150_000, 3))
    rho = np.where(x[:, 0] <= 0, -1.0, 1.0) * (x[:, 1] < x[:, 2])
    np.histogram(x[:, 0] + x[:, 1], bins=24, weights=rho)


def _polynomial_work() -> None:
    """A product of two sparse polynomials with Fraction coefficients, like the exact integrator."""
    p = {(i, j, 0): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
    q = {(i, j, 1): Fraction(j + 1, i + 3) for i in range(6) for j in range(6)}
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, 0) + c1 * c2


# workload -> (calibration kernel, its time at the reference speed in seconds):
# each kernel does the kind of work the workload spends its time on
KERNELS = {"cube-exact": (_polynomial_work, 0.010), "cube-mc": (_vectorised_work, 0.009)}
DEFAULT_KERNEL = (_interpreted_work, 0.010)


def calibrate(work) -> float:
    """Seconds one run of work takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()  # keep the heap of the package out of the measurement
    try:
        start = perf_counter()
        work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _at_reference_speed(latencies: list, calibration: list, reference_s: float) -> list:
    """Job times of one round scaled by that round's calibration to the reference speed."""
    factor = reference_s / statistics.fmean(calibration)
    return [x * factor for x in latencies]


def _declared_units(group: str) -> dict:
    """Metric name -> unit as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[group]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cc = _load_package()
    import reference
    import workloads
    from tracing import Tracer

    jobs = workloads.make_jobs(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out_dir = os.path.join(HERE, "_out", f"{args.workload}-{os.getpid()}")
    runner = workloads.Runner(cc, out_dir)
    tracer = Tracer() if args.trace else None
    work, reference_s = KERNELS.get(args.workload, DEFAULT_KERNEL)
    rounds_seen: list = []  # per round: (traced, job seconds, calibration seconds)
    first: dict = {}  # job id -> (result, canonical bytes) of its first success
    status: list = []  # (job id, "ok" | error text) per execution
    deadline = perf_counter() + args.seconds
    try:
        # whole rounds only, at least two, so every artifact is also compared with a rerun
        while len(rounds_seen) < 2 or perf_counter() < deadline:
            traced = tracer is not None and len(rounds_seen) % 2 == 1
            if traced:
                tracer.install(cc)
            runner.new_round()
            latencies, calibration = [], [calibrate(work)]
            last_calibration = perf_counter()
            for job in jobs:
                if perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
                    calibration.append(calibrate(work))
                    last_calibration = perf_counter()
                if traced:
                    tracer.start_job(f"{len(rounds_seen)}:{job.id}")
                start = perf_counter()
                try:
                    result = runner.run(job)
                except Exception as exc:  # every failure is counted, the run goes on
                    status.append((job.id, f"raised {type(exc).__name__}: {exc}"))
                    continue
                finally:
                    latencies.append(perf_counter() - start)
                    if traced:
                        tracer.end_job(runner.shared.values())
                blob = runner.canonical(job, result)
                if job.id not in first:
                    first[job.id] = (result, blob)
                    status.append((job.id, "ok"))
                else:
                    same = first[job.id][1] == blob
                    status.append((job.id, "ok" if same else "output differs from an earlier round"))
            rounds_seen.append((traced, latencies, calibration))
            if traced:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checker = workloads.Checker(cc, ROOT)
        check_errors: dict = {}
        for job in jobs:
            if job.id in first:
                try:
                    errors = checker.check(job, *first[job.id])
                except Exception as exc:
                    errors = [f"check raised {type(exc).__name__}: {exc}"]
                if errors:
                    check_errors[job.id] = errors
        ref_failures = reference.self_test()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(1 for job_id, s in status if s != "ok" or job_id in check_errors)
    mismatches = [s for s in status if s[1].startswith("output differs")]
    wrong = {job_id: [e for e in errors if not isinstance(e, workloads.Malformed)] for job_id, errors in check_errors.items()}
    correct = not any(wrong.values()) and not mismatches and not ref_failures

    log = sys.stderr
    log.write(f"workload {args.workload} seed {args.seed}: {len(rounds_seen)} rounds of {len(jobs)} jobs, "
              f"{len(status)} attempted, {failed} failed\n")
    for job_id, s in status:
        if s != "ok":
            log.write(f"  FAILED {job_id}: {s}\n")
    for job_id, errors in check_errors.items():
        for e in errors:
            kind = "FAILED" if isinstance(e, workloads.Malformed) else "WRONG"
            log.write(f"  {kind} {job_id}: {e}\n")
    for line in ref_failures:
        log.write(f"  REFERENCE {line}\n")
    log.write(f"  checks: {'all passed' if correct else 'FAILED'} ({len(first)} distinct outputs checked)\n")

    speed = reference_s / statistics.fmean(c for _, _, cal in rounds_seen for c in cal)
    log.write(f"  machine speed {speed:.4f} of the reference (calibration kernel, mean over the run)\n")
    if tracer is None:
        raw = [x for _, lat, _ in rounds_seen for x in lat]
        scaled = [x for _, lat, cal in rounds_seen for x in _at_reference_speed(lat, cal, reference_s)]
        metrics = {
            "jobs_per_s": {"value": len(scaled) / sum(scaled), "unit": "jobs/s"},
            "job_p50_ms": {"value": statistics.median(scaled) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        log.write(f"  unscaled: jobs_per_s {len(raw) / sum(raw):.6g} jobs/s, "
                  f"job_p50_ms {statistics.median(raw) * 1000:.6g} ms\n")
        # the highest percentile with at least ten samples beyond it
        if len(scaled) >= 100:
            p90 = statistics.quantiles(scaled, n=10)[-1] * 1000
            log.write(f"  job_p90_ms {p90:.6g} ms over {len(scaled)} jobs\n")
        else:
            log.write(f"  job_p90_ms omitted: {len(scaled)} jobs leave fewer than ten beyond it\n")
    else:
        round_s = {False: [], True: []}
        for traced, lat, cal in rounds_seen:
            round_s[traced].append(sum(_at_reference_speed(lat, cal, reference_s)))
        untraced = statistics.median(round_s[False])
        overhead = statistics.median(round_s[True]) - untraced
        values = tracer.metrics(len(round_s[True]), overhead, overhead / untraced)
        units = _declared_units("per_layer")
        if set(units) != set(values):
            raise RuntimeError(f"traced metrics and BENCHMARK.json differ: {sorted(set(units) ^ set(values))}")
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "_out", f"trace-{args.workload}-seed{args.seed}.jsonl"))
    for name, m in metrics.items():
        log.write(f"  {name} {m['value']:.6g} {m['unit']}\n")
    log.flush()
    result = {"correct": correct, "attempted": len(status), "failed": failed, "metrics": metrics, "speed": speed}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

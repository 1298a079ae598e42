"""Benchmark of the holderbounds pipeline, run from the root of a checkout.

    python3 bench/run.py --workload desk --seed 42 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
fresh-interpreter imports plus parsing), the wall time of one pass over
the workload's jobs (the sum of each job's median time over the passes
that fit in ``--seconds``; at least one pass) and the process's peak
resident memory.  ``--trace 1`` makes one untraced and one traced pass,
checks that both give identical outputs, reports the per-layer metrics
and writes the spans and counters to ``bench/out/``.  Every output is
checked against ``bench/reference.json``.  The last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, SRC)

import holderbounds  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# The traced pass may leave at most this share of its wall time outside
# every layer span; more means a layer call is missing from the trace.
MAX_UNATTRIBUTED = 0.05

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import holderbounds
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        holderbounds.parse_system(handle.read())
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "newton.faces": "count",
    "newton.sum_generators": "count",
    "nondegen.faces": "count",
    "nondegen.samples": "count",
    "nondegen.degenerate_faces": "count",
    "nondegen.exact_witnesses": "count",
    "verify.queries": "count",
    "verify.zero_frac": "fraction",
    "verify.certified_frac": "fraction",
}


def measure_setup(paths: list[str]) -> float:
    """Median time to import the package and parse the inputs in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, *paths],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_pass(jobs, systems, seed, lib=holderbounds, tracer=None):
    """One pass over the jobs: (results, per-job seconds, wall seconds).

    A job that raises is recorded with its exception in place of a result.
    """
    results, times = [], []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = time.perf_counter()
        try:
            with tracer.span("cli.run") if tracer is not None and job.cli else nullcontext():
                results.append(workloads.execute(job, systems, seed, lib))
        except Exception as err:  # a failed job is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            results.append(err)
        times.append(time.perf_counter() - t0)
    return results, times, time.perf_counter() - start


def check_pass(jobs, results, reference, seed):
    """Per job: the (code, payload) output, or None, and its problems."""
    outputs, problems = [], []
    for job, raw in zip(jobs, results):
        if isinstance(raw, Exception):
            outputs.append(None)
            problems.append([f"{job.name}: raised {type(raw).__name__}: {raw}"])
            continue
        code, payload = workloads.to_payload(job, raw)
        outputs.append((code, payload))
        problems.append(workloads.check(job, code, payload, reference, seed))
    return outputs, problems


def count_failed(problems) -> int:
    for found in problems:
        for problem in found:
            print(f"FAIL {problem}", file=sys.stderr)
    return sum(bool(found) for found in problems)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest value with at least ten samples above it (the maximum below 11 samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


def layer_metrics(tracer, jobs, untraced_times, untraced_wall, traced_wall) -> dict:
    selfs = tracer.self_times(exclude_job="setup")
    counts = tracer.counts

    def own(*names):
        return sum(selfs.get(name, 0.0) for name in names)

    def per_query(key):
        queries = counts.get("verify.queries", 0)
        return counts.get(key, 0) / queries if queries else 0.0

    def kind_time(kind):
        return sum(t for job, t in zip(jobs, untraced_times) if job.kind == kind)

    faces = tracer.durations("nondegen.face")
    distances = tracer.durations("verify.distance")
    return {
        "polysys.parse_s": sum(tracer.durations("polysys.parse")),
        "newton.polytope_s": own("newton.polytope"),
        "newton.minkowski_s": own("newton.minkowski"),
        "newton.faces_s": own("newton.faces"),
        "newton.decompose_s": own("newton.decompose"),
        "newton.faces": counts.get("newton.faces", 0),
        "newton.sum_generators": counts.get("newton.sum_generators", 0),
        "nondegen.build_s": own("nondegen.build"),
        "nondegen.face_s.p50": median(faces),
        "nondegen.face_s.tail": tail(faces),
        "nondegen.faces": counts.get("nondegen.faces", 0),
        "nondegen.samples": counts.get("nondegen.samples", 0),
        "nondegen.degenerate_faces": counts.get("nondegen.degenerate_faces", 0),
        "nondegen.exact_witnesses": counts.get("nondegen.exact_witnesses", 0),
        "verify.pool_s": own("verify.pool"),
        "verify.distance_s.p50": median(distances),
        "verify.distance_s.tail": tail(distances),
        "verify.distance_s.total": sum(distances),
        "verify.queries": counts.get("verify.queries", 0),
        "verify.zero_frac": per_query("verify.zero"),
        "verify.certified_frac": per_query("verify.certified"),
        "verify.batch_s": own("verify.batch"),
        "verify.goodness_s": own("verify.goodness"),
        "verify.slope_s": own("verify.slope"),
        "bounds.s": own("bounds.exponent", "bounds.quadratic"),
        "cli.self_s": own("cli.run"),
        "jobs.analyze_s": kind_time("analyze"),
        "jobs.certify_s": kind_time("certify"),
        "jobs.verify_s": kind_time("verify"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - sum(selfs.values()),
    }


def report(values: dict, units: dict, correct: bool, attempted: int, failed: int) -> None:
    width = max(len(name) for name in values)
    for name, value in values.items():
        print(f"  {name:<{width}}  {value:.6g} {units.get(name, 's')}")
    print(f"  {'fail_frac':<{width}}  {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    metrics = {name: {"value": value, "unit": units.get(name, "s")} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def measure_end_to_end(jobs, paths, reference, seed, seconds) -> None:
    setup_s = measure_setup(paths)
    systems = workloads.load_systems(paths)
    walls, job_times, failed = [], [[] for _ in jobs], 0
    start = time.perf_counter()
    # Start another pass only while it is expected to end within the run.
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        results, times, wall = run_pass(jobs, systems, seed)
        failed += count_failed(check_pass(jobs, results, reference, seed)[1])
        walls.append(wall)
        for samples, t in zip(job_times, times):
            samples.append(t)
    print(f"{len(walls)} pass(es): " + ", ".join(f"{w:.3f}" for w in walls) + " s")
    values = {
        "setup_s": setup_s,
        "wall_s": sum(statistics.median(samples) for samples in job_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report(values, END_TO_END_UNITS, failed == 0, len(walls) * len(jobs), failed)


def measure_layers(workload, jobs, paths, reference, seed) -> None:
    tracer = traced.Tracer()
    library = traced.TracedLibrary(tracer)
    tracer.job = "setup"
    systems = workloads.load_systems(paths, parse=library.parse_system)
    results, times, wall = run_pass(jobs, systems, seed)
    outputs, problems = check_pass(jobs, results, reference, seed)
    with library.patch_cli():
        traced_results, _, traced_wall = run_pass(jobs, systems, seed, library, tracer)
    traced_outputs, traced_problems = check_pass(jobs, traced_results, reference, seed)
    for job, plain, out, found in zip(jobs, outputs, traced_outputs, traced_problems):
        if out is not None and out != plain:
            found.append(f"{job.name}: traced output differs from the untraced one")
    failed = count_failed(problems) + count_failed(traced_problems)

    values = layer_metrics(tracer, jobs, times, wall, traced_wall)
    correct = failed == 0
    if values["trace.unattributed_s"] > MAX_UNATTRIBUTED * traced_wall:
        print("FAIL layer self-times do not account for the traced wall time", file=sys.stderr)
        correct = False
    if values["verify.queries"] and values["verify.certified_frac"] != 1.0:
        print("FAIL a distance came without a feasible certificate", file=sys.stderr)
        correct = False

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "metrics": values, **tracer.to_json()},
                  handle, indent=1)
    print(f"spans and counters written to {os.path.relpath(out_path, ROOT)}")
    report(values, LAYER_UNITS, correct, 2 * len(jobs), failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    jobs = workloads.WORKLOADS[args.workload]
    paths = workloads.input_paths(jobs)
    reference = workloads.load_reference(args.workload)
    print(f"workload {args.workload}: {len(jobs)} jobs, seed {args.seed}")
    if args.trace:
        measure_layers(args.workload, jobs, paths, reference, args.seed)
    else:
        measure_end_to_end(jobs, paths, reference, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

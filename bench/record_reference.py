"""Record bench/reference.json: every workload's outputs at the default seed.

    python3 bench/record_reference.py

Run it only when a change is meant to alter the outputs, and say so in
the change: every benchmark run checks its outputs against this file.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    recorded = {}
    for name, jobs in workloads.WORKLOADS.items():
        systems = workloads.load_systems(workloads.input_paths(jobs))
        recorded[name] = {}
        for job in jobs:
            code, payload = workloads.to_payload(job, workloads.execute(job, systems, seed))
            problems = workloads.invariants(job, code, payload)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            recorded[name][job.name] = workloads.summarize(job, code, payload)
            print(f"{name} {job.name}: exit {code}")
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "workloads": recorded}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

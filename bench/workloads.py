"""Benchmark workloads: their jobs, how each job runs, and the checks on its output.

A job is one user-visible call: a ``holderbounds.cli.run`` command (the
``desk`` workload) or one library entry point (``geometry`` and
``certify``).  Every output is reduced to a summary and checked against
``reference.json``, recorded at the default seed: the seed-independent
part is checked at every seed, the seeded part only at the recorded seed,
and the invariants of the pipeline always.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import holderbounds
from holderbounds import CertifyConfig
from holderbounds.cli import RunConfig, run
from holderbounds.newton import face_to_json

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEMO_SYSTEMS = os.path.join(ROOT, "demos", "systems")
BENCH_SYSTEMS = os.path.join(BENCH_DIR, "systems")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

DEFAULT_SEED = 42
DESK_SAMPLES = 500
DESK_BOX = (-3.0, 3.0)
TAU_ZERO = 1e-12
REL_TOL = 1e-9
STATUSES = ("degenerate", "inconclusive", "nondegenerate_probable")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # analyze | certify | exponent | verify | slope | quadratic
    path: str
    cli: bool = False
    samples: int | None = None
    rings: tuple[float, ...] | None = None
    point: tuple[float, ...] | None = None


def _demo(name: str) -> str:
    return os.path.join(DEMO_SYSTEMS, f"{name}.poly")


def _bench(name: str) -> str:
    return os.path.join(BENCH_SYSTEMS, f"{name}.poly")


DEMO_FIXTURES = (
    "degenerate_pair",
    "degenerate_pair_perturbed",
    "half_disk",
    "partition_n2",
    "quadratic_bowl",
    "sphere_cubic",
)


def _desk_jobs() -> list[Job]:
    # The README's commands (analyze half_disk, certify degenerate_pair,
    # exponent sphere_cubic, verify half_disk --samples 500, slope, quadratic),
    # analyze and exponent on every demo fixture, and verify on quadratic_bowl
    # with rings for the goodness probe.  Other verify runs take 3-17 s each
    # and would leave too few passes per run for a steady median.
    jobs = []
    for name in DEMO_FIXTURES:
        jobs.append(Job(f"analyze:{name}", "analyze", _demo(name), cli=True))
        jobs.append(Job(f"exponent:{name}", "exponent", _demo(name), cli=True))
    jobs.append(Job("certify:degenerate_pair", "certify", _demo("degenerate_pair"), cli=True))
    jobs.append(Job("verify:half_disk", "verify", _demo("half_disk"), cli=True, samples=DESK_SAMPLES))
    jobs.append(
        Job("verify:quadratic_bowl", "verify", _demo("quadratic_bowl"), cli=True,
            samples=DESK_SAMPLES, rings=(2.0, 8.0, 32.0))
    )
    jobs.append(Job("slope:half_disk", "slope", _demo("half_disk"), cli=True, point=(-2.0, 0.0)))
    jobs.append(Job("quadratic:quadratic_bowl", "quadratic", _demo("quadratic_bowl"), cli=True))
    return jobs


WORKLOADS = {
    "desk": _desk_jobs(),
    "geometry": [
        Job(f"analyze:{name}", "analyze", _bench(name)) for name in ("stress_n4p2", "stress_n5p2")
    ],
    "certify": [
        Job("certify:rand_n3p2_s8", "certify", _bench("rand_n3p2_s8")),
        Job("certify:sphere_cubic", "certify", _demo("sphere_cubic")),
    ],
}


def input_paths(jobs: list[Job]) -> list[str]:
    return sorted({job.path for job in jobs})


def load_systems(paths: list[str], parse=holderbounds.parse_system) -> dict:
    systems = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            systems[path] = parse(handle.read())
    return systems


# -- running a job ------------------------------------------------------------------


def run_config(job: Job, seed: int, n: int) -> RunConfig:
    return RunConfig(
        command=job.kind,
        input_path=job.path,
        seed=seed,
        samples=job.samples,
        box=tuple(DESK_BOX for _ in range(n)) if job.kind == "verify" else None,
        rings=job.rings,
        point=job.point,
        output_format="json",
    )


def execute(job: Job, systems: dict, seed: int, lib=holderbounds):
    """Run one job; ``lib`` supplies analyze_system and certify_system."""
    system = systems[job.path]
    if job.cli:
        return run(run_config(job, seed, system.n))
    if job.kind == "analyze":
        return lib.analyze_system(system)
    return lib.certify_system(system, CertifyConfig(seed=seed))


def geometry_payload(geometry) -> dict:
    return {
        "components": [[list(v) for v in p.vertices] for p in geometry.polytopes],
        "convenient": geometry.convenient,
        "sum_polytope": {
            "vertices": [list(v) for v in geometry.sum_polytope.vertices],
            "generators": len(geometry.sum_polytope.points),
        },
        "faces_at_infinity": [face_to_json(face) for face in geometry.faces],
    }


def to_payload(job: Job, raw) -> tuple[int, dict]:
    """(exit code, JSON payload) of a job's result, as the CLI would report it."""
    if job.cli:
        code, rendered = raw
        return code, json.loads(rendered)
    if job.kind == "analyze":
        return 0, geometry_payload(raw)
    return (1 if raw.status == "degenerate" else 0), raw.to_json()


# -- summaries and checks -----------------------------------------------------------


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _certification(cert: dict) -> dict:
    return {
        "status": cert["status"],
        "face_status": [f["status"] for f in cert["faces"]],
        "objective_min": [f["objective_min"] for f in cert["faces"]],
        "witness": [f["witness"] is not None for f in cert["faces"]],
        "witness_exact": [f["witness_exact"] for f in cert["faces"]],
    }


def summarize(job: Job, code: int, payload: dict) -> dict:
    """Split an output into its seed-independent and its seeded parts."""
    if job.kind == "analyze":
        faces = payload["faces_at_infinity"]
        fixed = {
            "exit": code,
            "convenient": payload["convenient"],
            "faces": len(faces),
            "faces_sha256": _sha256(faces),
            "sum_vertices": len(payload["sum_polytope"]["vertices"]),
        }
        return {"fixed": fixed, "seeded": {}}
    if job.kind == "exponent":
        return {"fixed": {"exit": code, "H": payload["H"], "alpha": payload["alpha"]}, "seeded": {}}
    if job.kind == "certify":
        fixed = {"convenient": payload["convenient"], "faces": len(payload["faces"])}
        return {"fixed": fixed, "seeded": {"exit": code, **_certification(payload)}}
    if job.kind == "verify":
        fixed = {
            "H": payload["exponent"]["H"],
            "faces": len(payload["certification"]["faces"]),
            "samples": len(payload["verification"]["samples"]),
        }
        seeded = {
            "exit": code,
            "hypothesis": payload["hypothesis_established"],
            "violations": payload["verification"]["violations"],
            **_certification(payload["certification"]),
        }
        return {"fixed": fixed, "seeded": seeded}
    if job.kind == "slope":
        fixed = {k: payload[k] for k in ("slope", "multipliers", "active")}
        return {"fixed": {"exit": code, **fixed}, "seeded": {}}
    fixed = {k: payload[k] for k in ("lambda_min_nonzero", "constant", "critical_point")}
    return {"fixed": {"exit": code, **fixed}, "seeded": {}}


def _close(a: float, b: float, key: str) -> bool:
    if key == "objective_min" and a <= TAU_ZERO and b <= TAU_ZERO:
        return True  # below tau_zero the face status carries the meaning
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare(actual, expected, key: str, where: str, problems: list[str]) -> None:
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if not _close(float(actual), expected, key):
            problems.append(f"{where}: {actual!r} != reference {expected!r}")
    elif isinstance(expected, list) and isinstance(actual, list) and len(actual) == len(expected):
        for i, (a, e) in enumerate(zip(actual, expected)):
            _compare(a, e, key, f"{where}[{i}]", problems)
    elif actual != expected:
        problems.append(f"{where}: {actual!r} != reference {expected!r}")


def _certification_invariants(cert: dict, where: str) -> list[str]:
    problems = []
    faces = cert["faces"]
    if cert["status"] not in STATUSES or any(f["status"] not in STATUSES for f in faces):
        problems.append(f"{where}: unknown status")
    for f in faces:
        if f["status"] == "degenerate" and f["witness"] is None:
            problems.append(f"{where}: degenerate face {f['face']} has no witness")
        if not math.isfinite(f["objective_min"]) or f["objective_min"] < 0:
            problems.append(f"{where}: face {f['face']} objective_min {f['objective_min']!r}")
    statuses = {f["status"] for f in faces}
    expected = next((s for s in STATUSES if s in statuses), "nondegenerate_probable")
    if cert["status"] != expected:
        problems.append(f"{where}: verdict {cert['status']} from face statuses {sorted(statuses)}")
    return problems


def invariants(job: Job, code: int, payload: dict) -> list[str]:
    """Properties every output must have, whatever the seed."""
    where = job.name
    if job.kind == "certify":
        problems = _certification_invariants(payload, where)
        if code != (1 if payload["status"] == "degenerate" else 0):
            problems.append(f"{where}: exit {code} for verdict {payload['status']}")
        return problems
    if job.kind == "verify":
        cert = payload["certification"]
        ver = payload["verification"]
        problems = _certification_invariants(cert, where)
        hypothesis = cert["convenient"] and cert["status"] == "nondegenerate_probable"
        if payload["hypothesis_established"] != hypothesis:
            problems.append(f"{where}: hypothesis flag disagrees with the certification")
        if hypothesis and not (ver["fitted_c"] is not None and ver["fitted_c"] > 0 and ver["violations"] == 0):
            problems.append(f"{where}: fitted_c {ver['fitted_c']!r}, violations {ver['violations']}")
        if code != (1 if cert["status"] == "degenerate" or ver["violations"] > 0 else 0):
            problems.append(f"{where}: exit {code}")
        if any(not (math.isfinite(s["distance"]) and s["distance"] >= 0) for s in ver["samples"]):
            problems.append(f"{where}: a distance is negative or not finite")
        return problems
    if job.kind == "exponent":
        d, n, p = payload["d"], payload["n"], payload["p"]
        if int(payload["H"]) != 2 * d * (12 * d - 3) ** (n + p - 1):
            return [f"{where}: H = {payload['H']} is not 2d(12d-3)^(n+p-1)"]
    if job.kind == "analyze":
        p = len(payload["components"])
        if any(len(f["decomposition"]) != p for f in payload["faces_at_infinity"]):
            return [f"{where}: a face decomposition does not have {p} parts"]
    return []


def check(job: Job, code: int, payload: dict, reference: dict, seed: int) -> list[str]:
    """Problems with one output: reference mismatches and broken invariants."""
    expected = reference["jobs"].get(job.name)
    if expected is None:
        return [f"{job.name}: no reference output"]
    actual = summarize(job, code, payload)
    problems: list[str] = []
    parts = ("fixed", "seeded") if seed == reference["seed"] else ("fixed",)
    for part in parts:
        for key, value in expected[part].items():
            _compare(actual[part].get(key), value, key, f"{job.name}.{key}", problems)
    return problems + invariants(job, code, payload)


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        data = json.load(handle)
    return {"seed": data["seed"], "jobs": data["workloads"][workload]}

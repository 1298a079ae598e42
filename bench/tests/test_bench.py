"""Fast checks of the benchmark itself: python -m pytest bench/tests -q"""

from __future__ import annotations

import json
import os
import re
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from holderbounds import (  # noqa: E402
    CertifyConfig,
    SamplePlan,
    analyze_system,
    certify_system,
    holder_exponent,
    parse_system,
    verify_bound,
)

HALF_DISK = os.path.join(ROOT, "demos", "systems", "half_disk.poly")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _half_disk():
    with open(HALF_DISK, encoding="utf-8") as handle:
        return parse_system(handle.read())


def test_traced_composition_reproduces_the_library_on_half_disk():
    system = _half_disk()
    tracer = traced.Tracer()
    library = traced.TracedLibrary(tracer)
    cfg = CertifyConfig(samples=512)

    geometry = library.analyze_system(system)
    assert geometry == analyze_system(system)
    assert workloads.geometry_payload(geometry) == workloads.geometry_payload(analyze_system(system))
    assert library.certify_system(system, cfg) == certify_system(system, cfg)

    report = holder_exponent(system.d, system.n, system.p)
    plan = SamplePlan(box=((-3.0, 3.0), (-3.0, 3.0)), count=24, rings=(2.0, 8.0), seed=7)
    assert library.verify_bound(system, report, plan).to_json() == verify_bound(system, report, plan).to_json()

    names = {span["name"] for span in tracer.spans}
    assert {"newton.polytope", "newton.minkowski", "newton.faces", "newton.decompose",
            "nondegen.build", "nondegen.face", "verify.pool", "verify.distance",
            "verify.batch", "verify.goodness"} <= names
    assert tracer.counts["nondegen.faces"] == len(geometry.faces)
    assert tracer.counts["verify.certified"] == tracer.counts["verify.queries"] > 0


def test_inputs_parse_and_metric_names_are_valid():
    for jobs in workloads.WORKLOADS.values():
        systems = workloads.load_systems(workloads.input_paths(jobs))
        assert all(system.n >= 2 for system in systems.values())

    end_to_end = set(run.END_TO_END_UNITS)
    per_layer = set(run.layer_metrics(traced.Tracer(), [], [], 0.0, 0.0))
    for name in end_to_end | per_layer:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    reference = json.load(open(workloads.REFERENCE_PATH, encoding="utf-8"))
    for name, jobs in workloads.WORKLOADS.items():
        assert {job.name for job in jobs} == set(reference["workloads"][name])


def _desk_output(job_name, seed):
    job = next(j for j in workloads.WORKLOADS["desk"] if j.name == job_name)
    systems = workloads.load_systems([job.path])
    code, payload = workloads.to_payload(job, workloads.execute(job, systems, seed))
    return job, code, payload


def test_wrong_verdict_or_geometry_is_reported():
    reference = workloads.load_reference("desk")
    seed = reference["seed"]

    job, code, payload = _desk_output("certify:degenerate_pair", seed)
    assert workloads.check(job, code, payload, reference, seed) == []
    wrong = json.loads(json.dumps(payload))
    wrong["status"] = "nondegenerate_probable"
    assert workloads.check(job, 0, wrong, reference, seed)
    assert workloads.check(job, 0, wrong, reference, seed + 1)  # the invariants still hold it

    job, code, payload = _desk_output("analyze:half_disk", seed)
    assert workloads.check(job, code, payload, reference, seed + 1) == []
    payload["faces_at_infinity"][0]["normal"][0] += "0"
    assert workloads.check(job, code, payload, reference, seed + 1)

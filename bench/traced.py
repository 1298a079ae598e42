"""Spans and counters for the traced benchmark run.

The library has no tracing of its own, so the traced run rebuilds each
composite entry point (``analyze_system``, ``certify_system``,
``verify_bound``) from the public functions it is made of and records a
span around every part.  ``TracedLibrary.patch_cli`` points the names
``holderbounds.cli`` calls at these traced versions for the length of a
``with`` block, so CLI jobs are traced without changing the CLI.  The
traced results must equal the untraced ones; the benchmark checks that on
every traced run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace

import holderbounds.cli as cli
from holderbounds import (
    CertifyConfig,
    DistanceConfig,
    DistanceOracle,
    NondegVerdict,
    SystemGeometry,
    build_m_delta,
    certify_face,
    decompose_face,
    faces_at_infinity,
    holder_exponent,
    is_convenient,
    minkowski_sum,
    newton_polytope,
    parse_system,
    probe_goodness,
    quadratic_bound,
    slope,
    verify_bound,
)


class Tracer:
    """Spans (name, job, parent, start, end) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.job: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "job": self.job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, exclude_job: str | None = None) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, child in zip(self.spans, covered):
            if exclude_job is not None and s["job"] == exclude_job:
                continue
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child
        return out

    def to_json(self) -> dict:
        origin = min((s["start"] for s in self.spans), default=0.0)
        return {
            "spans": [
                {**s, "start": s["start"] - origin, "end": s["end"] - origin}
                for s in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
        }


class TracedLibrary:
    """Library entry points rebuilt from their public parts, one span per part."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def parse_system(self, text):
        with self.tracer.span("polysys.parse"):
            return parse_system(text)

    def analyze_system(self, system) -> SystemGeometry:
        span = self.tracer.span
        with span("newton.polytope"):
            polytopes = tuple(newton_polytope(f) for f in system.polys)
            convenience = tuple(is_convenient(f) for f in system.polys)
        with span("newton.minkowski"):
            sum_polytope = minkowski_sum(polytopes)
        with span("newton.faces"):
            faces = faces_at_infinity(sum_polytope)
        with span("newton.decompose"):
            faces = tuple(
                replace(face, decomposition=decompose_face(face, polytopes))
                for face in faces
            )
        self.tracer.count("newton.faces", len(faces))
        self.tracer.count("newton.sum_generators", len(sum_polytope.points))
        return SystemGeometry(polytopes, convenience, sum_polytope, faces)

    def certify_system(self, system, cfg=CertifyConfig(), geometry=None) -> NondegVerdict:
        if geometry is None:
            geometry = self.analyze_system(system)
        with self.tracer.span("nondegen.build"):
            matrices = [build_m_delta(system, face) for face in geometry.faces]
        faces = []
        for index, matrix in enumerate(matrices):
            with self.tracer.span("nondegen.face"):
                faces.append(certify_face(matrix, cfg, face_index=index))
        for face in faces:
            self.tracer.count("nondegen.faces")
            self.tracer.count("nondegen.samples", face.samples)
            self.tracer.count("nondegen.degenerate_faces", face.status == "degenerate")
            self.tracer.count("nondegen.exact_witnesses", face.witness_exact is not None)
        # Same verdict rule as certify_system.
        if any(f.status == "degenerate" for f in faces):
            status = "degenerate"
        elif any(f.status == "inconclusive" for f in faces):
            status = "inconclusive"
        else:
            status = "nondegenerate_probable"
        return NondegVerdict(
            status=status,
            faces=tuple(faces),
            convenient=geometry.convenient,
            missing_axes=tuple(c.missing_axes for c in geometry.convenience),
            seed=cfg.seed,
        )

    def holder_exponent(self, d, n, p):
        with self.tracer.span("bounds.exponent"):
            return holder_exponent(d, n, p)

    def quadratic_bound(self, *args, **kwargs):
        with self.tracer.span("bounds.quadratic"):
            return quadratic_bound(*args, **kwargs)

    def slope(self, system, x):
        with self.tracer.span("verify.slope"):
            return slope(system, x)

    def verify_bound(self, system, report, plan, dist_cfg=None):
        """verify_bound with a timed oracle and the goodness probe split out.

        Passing the oracle's own pool as ``anchors`` and its distances as
        ``distance_fn`` is what verify_bound does internally; the rings only
        feed probe_goodness, so running it separately changes no result.
        """
        tracer = self.tracer
        cfg = dist_cfg or DistanceConfig(seed=plan.seed, search_box=plan.box)
        oracle = DistanceOracle(system, cfg)
        with tracer.span("verify.pool"):
            pool = oracle.feasible_pool()

        def distance(x):
            with tracer.span("verify.distance"):
                result = oracle.distance(x)
            tracer.count("verify.queries")
            tracer.count("verify.zero", result.distance == 0.0)
            tracer.count("verify.certified", result.max_violation <= cfg.tau_feas)
            return result.distance

        with tracer.span("verify.batch"):
            out = verify_bound(
                system, report, replace(plan, rings=None), distance_fn=distance, anchors=pool
            )
        if plan.rings:
            with tracer.span("verify.goodness"):
                out = replace(out, goodness=probe_goodness(system, plan))
        return out

    @contextmanager
    def patch_cli(self):
        """Route the library calls made by holderbounds.cli through this object."""
        names = (
            "parse_system",
            "analyze_system",
            "certify_system",
            "holder_exponent",
            "quadratic_bound",
            "slope",
            "verify_bound",
        )
        saved = {name: getattr(cli, name) for name in names}
        try:
            for name in names:
                setattr(cli, name, getattr(self, name))
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

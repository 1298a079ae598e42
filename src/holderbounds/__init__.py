"""Newton-polyhedron certification and explicit Hölder error-bound exponents.

Pipeline for a polynomial inequality system F = (f_1, ..., f_p):

1. ``polysys``  -- exact sparse polynomials and the input grammar.
2. ``newton``   -- Newton polyhedra at infinity, convenience, Minkowski
   sums, faces at infinity and their unique summand decompositions.
3. ``nondegen`` -- rank-test matrices per face and a randomized search
   certifying (non-)degeneracy at infinity.
4. ``bounds``   -- the exact exponent H = 2d(12d-3)^(n+p-1) with
   alpha = 2/H, the quadratic square-root bound, stability radii.
5. ``verify``   -- residuals, a distance upper-bound oracle, min-norm
   slopes, goodness-at-infinity probes, and empirical bound fitting.
6. ``cli``      -- the ``holderbounds`` command.

``evaluator`` holds the compiled float map that ``nondegen`` and
``verify`` evaluate through.  Importing the package imports none of
these: each public name loads its module on first access, so parsing and
Newton geometry, which are exact, never load numpy.  Parsing loads
``polysys`` alone, which imports no ``dataclasses`` or ``typing`` either.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOME = {
    name: module
    for module, names in {
        "bounds": "ExponentReport QuadraticBound holder_exponent quadratic_bound stability_radius",
        "newton": "ConvenienceReport FaceAtInfinity NewtonPolytope SystemGeometry analyze_system"
        " decompose_face faces_at_infinity is_convenient min_face min_support minkowski_sum"
        " newton_polytope",
        "nondegen": "CertifyConfig FaceCertificate MDeltaMatrix NondegVerdict build_m_delta"
        " certify_face certify_system minor_norm_objective normalized_minor_objective",
        "polysys": "Polynomial PolySystem evaluate gradient parse_system principal_part",
        "verify": "DistanceConfig DistanceOracle GoodnessReport SamplePlan SlopeResult"
        " VerificationReport distance_to_S probe_goodness residual slope verify_bound",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Load a public name's module on first use (``sys.modules`` caches it)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Command-line front end.

Subcommands map one-to-one onto the library pipeline:

* ``analyze``   -- Newton polyhedra, convenience, summed polytope, faces
  at infinity with their summand decompositions.
* ``certify``   -- non-degeneracy search over every face (exit 1 when a
  degenerate face is found).
* ``exponent``  -- the exact error-bound exponent report.
* ``verify``    -- exponent + certification, then empirical bound
  verification over a sampling plan (exit 1 on degeneracy or ratio
  violations).
* ``slope``     -- nonsmooth slope of max_i f_i at a point.
* ``quadratic`` -- square-root bound data for one quadratic component.

JSON output is canonical (sorted keys); identical configuration and seed
give byte-identical bytes.  Text output rounds to 6 significant digits
but renders the same numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bounds import holder_exponent, quadratic_bound
from .newton import FaceEnumerationError, analyze_system, face_to_json
from .nondegen import CertifyConfig, certify_system
from .polysys import ParseError, PolynomialError, PolySystem, parse_system
from .verify import FeasibleSetEmptyError, SamplePlan, ValueOverflowError, slope, verify_bound

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """One command's settings; each field is the ``dest`` of its CLI flag,
    whose default is the field's."""

    command: str
    input_path: str
    seed: int = CertifyConfig.seed
    samples: int | None = None
    box: tuple[tuple[float, float], ...] | None = None
    rings: tuple[float, ...] | None = None
    point: tuple[float, ...] | None = None
    tau_zero: float = CertifyConfig.tau_zero
    tau_axis: float | None = None
    output_format: str = "text"
    out_path: str | None = None


def _g6(value) -> str:
    return f"{float(value):.6g}"


def _axis_schedule(tau_axis: float | None) -> tuple[float, ...]:
    """The default floors above ``tau_axis``, then ``tau_axis`` itself."""
    schedule = CertifyConfig.tau_axis_schedule
    if tau_axis is None:
        return schedule
    return tuple(t for t in schedule if t > tau_axis) + (tau_axis,)


def _certify_config(cfg: RunConfig) -> CertifyConfig:
    return CertifyConfig(
        samples=CertifyConfig.samples if cfg.samples is None else cfg.samples,
        tau_zero=cfg.tau_zero,
        tau_axis_schedule=_axis_schedule(cfg.tau_axis),
        seed=cfg.seed,
    )


def _load_system(cfg: RunConfig) -> PolySystem:
    with open(cfg.input_path, "r", encoding="utf-8") as handle:
        return parse_system(handle.read())


# -- per-command payload builders ---------------------------------------------------


def _run_analyze(cfg: RunConfig):
    system = _load_system(cfg)
    geometry = analyze_system(system)
    payload = {
        "n": system.n,
        "p": system.p,
        "d": system.d,
        "varnames": list(system.varnames),
        "components": [
            {
                "name": name,
                "vertices": [list(v) for v in polytope.vertices],
                "dim": polytope.dim,
                "convenient": report.convenient,
                "missing_axes": [system.varnames[j] for j in report.missing_axes],
            }
            for name, polytope, report in zip(
                system.names, geometry.polytopes, geometry.convenience
            )
        ],
        "sum_polytope": {
            "vertices": [list(v) for v in geometry.sum_polytope.vertices],
            "dim": geometry.sum_polytope.dim,
        },
        "convenient": geometry.convenient,
        "faces_at_infinity": [face_to_json(face) for face in geometry.faces],
    }

    lines = [
        f"system: p={system.p} components, n={system.n} variables, degree d={system.d}",
        f"convenient: {'yes' if geometry.convenient else 'no'}",
    ]
    for entry in payload["components"]:
        miss = (
            ""
            if entry["convenient"]
            else f"  (missing axes: {', '.join(entry['missing_axes'])})"
        )
        lines.append(
            f"  {entry['name']}: vertices {entry['vertices']}"
            f" convenient={'yes' if entry['convenient'] else 'no'}{miss}"
        )
    lines.append(f"summed polytope vertices: {payload['sum_polytope']['vertices']}")
    lines.append(f"faces at infinity: {len(geometry.faces)}")
    for index, face in enumerate(geometry.faces):
        parts = " + ".join(str([list(p) for p in part]) for part in face.decomposition)
        lines.append(
            f"  face {index}: dim {face.dim}, support {[list(p) for p in face.support_points]},"
            f" normal {list(face.witness_normal)}, value {face.value} = {parts}"
        )
    return EXIT_OK, payload, "\n".join(lines)


def _run_certify(cfg: RunConfig):
    system = _load_system(cfg)
    verdict = certify_system(system, _certify_config(cfg))
    payload = verdict.to_json()
    lines = [
        f"verdict: {verdict.status}",
        f"convenient: {'yes' if verdict.convenient else 'no'}",
    ]
    for face in verdict.faces:
        entry = (
            f"  face {face.face_index}: {face.status} ({face.reason or face.method}),"
            f" objective_min {_g6(face.objective_min)}, samples {face.samples}"
        )
        if face.witness is not None:
            entry += f", witness {[_g6(v) for v in face.witness]}"
        if face.witness_exact is not None:
            entry += f", exact witness ({', '.join(face.witness_exact)})"
        lines.append(entry)
    code = EXIT_FINDING if verdict.status == "degenerate" else EXIT_OK
    return code, payload, "\n".join(lines)


def _require_variables(system: PolySystem, what: str) -> None:
    if system.n == 0:
        raise UsageError(f"the system has no variables, so it has no {what}")


def _exponent_report(system: PolySystem):
    _require_variables(system, "Hölder exponent")
    return holder_exponent(max(system.d, 1), system.n, system.p)


def _run_exponent(cfg: RunConfig):
    system = _load_system(cfg)
    report = _exponent_report(system)
    payload = report.to_json()
    lines = [
        f"d={report.d} n={report.n} p={report.p}",
        f"H(2d, n, p) = {report.H}",
        f"alpha = {payload['alpha']}  (beta = 1)",
    ]
    lines.extend(f"note: {note}" for note in report.notes)
    return EXIT_OK, payload, "\n".join(lines)


def _run_verify(cfg: RunConfig):
    system = _load_system(cfg)
    box = cfg.box or tuple((-3.0, 3.0) for _ in range(system.n))
    if len(box) != system.n:
        raise UsageError(f"--box needs {system.n} intervals, got {len(box)}")
    try:
        plan = SamplePlan(
            box=box,
            count=SamplePlan.count if cfg.samples is None else cfg.samples,
            rings=cfg.rings,
            seed=cfg.seed,
        )
    except ValueError as err:
        raise UsageError(str(err)) from err
    report = _exponent_report(system)
    verdict = certify_system(system, _certify_config(cfg))
    hypothesis = verdict.convenient and verdict.status == "nondegenerate_probable"
    report = replace(
        report,
        convenient=verdict.convenient,
        nondegenerate_probable=verdict.status == "nondegenerate_probable",
    )

    verification = verify_bound(system, report, plan)
    payload = {
        "exponent": report.to_json(),
        "certification": verdict.to_json(),
        "hypothesis_established": hypothesis,
        "verification": verification.to_json(),
    }
    lines = []
    if hypothesis:
        lines.append("hypothesis established: convenient and non-degenerate at infinity")
    else:
        lines.append(
            "WARNING: error-bound hypotheses not established"
            f" (certification: {verdict.status}, convenient:"
            f" {'yes' if verdict.convenient else 'no'}); empirical results only"
        )
    lines.append(f"alpha = {payload['exponent']['alpha']}, beta = 1")
    lines.append(
        f"samples {len(verification.records)}, fitted_c ="
        f" {_g6(verification.fitted_c) if verification.fitted_c is not None else 'n/a'},"
        f" violations {verification.violations}"
    )
    if verification.goodness is not None:
        for ring in verification.goodness.rings:
            floor = "n/a" if ring.floor is None else _g6(ring.floor)
            overflowed = f", {ring.overflowed} samples overflowed" if ring.overflowed else ""
            lines.append(f"  ring R={_g6(ring.radius)}: slope floor {floor}{overflowed}")
        lines.append(f"  slope-floor trend: {verification.goodness.trend}")
    bad = verdict.status == "degenerate" or verification.violations > 0
    return (EXIT_FINDING if bad else EXIT_OK), payload, "\n".join(lines)


def _run_slope(cfg: RunConfig):
    system = _load_system(cfg)
    _require_variables(system, "slope")
    if cfg.point is None:
        raise UsageError("slope requires --point")
    if len(cfg.point) != system.n:
        raise UsageError(
            f"--point needs {system.n} coordinates, got {len(cfg.point)}"
        )
    out = slope(system, cfg.point)
    if not all(map(math.isfinite, (out.value, *out.multipliers))):
        raise UsageError(f"the slope at --point overflows floating point: {out.value}")
    payload = {
        "point": list(cfg.point),
        "slope": out.value,
        "multipliers": list(out.multipliers),
        "active": [system.names[i] for i in out.active],
    }
    text = (
        f"slope at {list(cfg.point)}: {_g6(out.value)}\n"
        f"active components: {', '.join(payload['active'])}\n"
        f"multipliers: {[_g6(v) for v in out.multipliers]}"
    )
    return EXIT_OK, payload, text


def _quadratic_data(system: PolySystem):
    _require_variables(system, "quadratic bound")
    if system.p != 1:
        raise UsageError("quadratic expects a single component")
    f = system.polys[0]
    if f.degree() > 2:
        raise UsageError("quadratic expects degree at most 2")
    n = f.nvars
    A = np.zeros((n, n))
    b = np.zeros(n)
    c0 = 0.0
    for kappa, coeff in f.terms.items():
        idx = [j for j, k in enumerate(kappa) if k]
        degree = sum(kappa)
        try:
            value = float(coeff)
        except OverflowError:
            raise ValueOverflowError("a coefficient lies outside the floating-point range") from None
        if degree == 0:
            c0 = value
        elif degree == 1:
            b[idx[0]] = value
        elif len(idx) == 1:
            A[idx[0], idx[0]] = 2.0 * value
        else:
            A[idx[0], idx[1]] = A[idx[1], idx[0]] = value
    return A, b, c0


def _run_quadratic(cfg: RunConfig):
    system = _load_system(cfg)
    A, b, c0 = _quadratic_data(system)
    try:
        qb = quadratic_bound(A, b, c0)
    except ValueError as err:
        raise UsageError(str(err)) from err
    payload = qb.to_json()
    text = (
        f"lambda(A) = {_g6(qb.lambda_min_nonzero)}\n"
        f"constant sqrt(2 lambda)/2 = {_g6(qb.constant)}\n"
        f"critical point = {[_g6(v) for v in qb.critical_point]}\n"
        f"critical value = {_g6(payload['critical_value'])}"
    )
    return EXIT_OK, payload, text


class UsageError(ValueError):
    pass


_RUNNERS = {
    "analyze": _run_analyze,
    "certify": _run_certify,
    "exponent": _run_exponent,
    "verify": _run_verify,
    "slope": _run_slope,
    "quadratic": _run_quadratic,
}


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit code, rendered output).

    numpy's overflow and invalid-value warnings are off: a value that
    overflows is reported once, as an ``error:`` line or a null in the
    output.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        code, payload, text = _RUNNERS[cfg.command](cfg)
    if cfg.output_format == "json":
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        rendered = text
    return code, rendered


# -- argument handling --------------------------------------------------------------


def _parse_box(text: str):
    intervals = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition(":")
        intervals.append((float(lo), float(hi)))
    return tuple(intervals)


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text, then reject values not ``ok``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" message
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
_unit_interval = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


def _parse_floats(text: str):
    return tuple(float(v) for v in text.split(","))


_finite_box = _checked(
    _parse_box, lambda box: all(math.isfinite(v) for pair in box for v in pair), "finite"
)
_finite_floats = _checked(_parse_floats, lambda vs: all(map(math.isfinite, vs)), "finite")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holderbounds",
        description=(
            "Newton-polyhedron certification and explicit Hölder error-bound "
            "exponents for polynomial inequality systems"
        ),
    )
    # Values like "-3:3,-3:3" or "-2,0" must parse as option values, not flags.
    negative_value = re.compile(r"^-\d")
    parser._negative_number_matcher = negative_value
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p._negative_number_matcher = negative_value
        p.add_argument("input_path", metavar="input", help="polynomial system file")
        p.add_argument("--seed", type=_nonnegative_int, default=RunConfig.seed)
        p.add_argument("--samples", type=_positive_int, default=None)
        p.add_argument("--box", type=_finite_box, default=None, help="lo:hi,lo:hi,...")
        p.add_argument("--rings", type=_finite_floats, default=None, help="r1,r2,...")
        p.add_argument("--point", type=_finite_floats, default=None, help="v1,v2,...")
        p.add_argument("--tau-zero", type=_positive_float, default=RunConfig.tau_zero)
        p.add_argument("--tau-axis", type=_unit_interval, default=None)
        p.add_argument(
            "--format", dest="output_format", choices=("text", "json"), default=RunConfig.output_format
        )
        p.add_argument("--out", dest="out_path", metavar="OUT", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    cfg = RunConfig(**vars(args))
    try:
        code, rendered = run(cfg)
        if cfg.out_path:
            with open(cfg.out_path, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (
        UsageError,
        PolynomialError,
        OSError,
        FaceEnumerationError,
        FeasibleSetEmptyError,
        ValueOverflowError,
        # numpy raises these for an array size it cannot hold, such as --samples 10**30.
        OverflowError,
        MemoryError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if not cfg.out_path:
        try:
            print(rendered)
            # Flush here, so that a reader that has gone raises inside the try.
            sys.stdout.flush()
        except BrokenPipeError:
            # Python flushes stdout again at exit; point it at devnull so
            # that flush has nowhere to fail (the signal module's SIGPIPE note).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())

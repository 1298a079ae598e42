"""Vertices and edges decided in closed form, against the search and the
float closed form it replaced.

``nondegen._certify`` decides a face of dimension 0 or 1 from exact data:
on a vertex the objective is a constant, and on an edge it is
G(t) / H(|t|)^2 in t = x^v, with a Sturm count ruling out real roots of
G, and its minimum is computed in ``Fraction``s.  The torus search
``_certify_faces``, which certified every face before, is one oracle: on
every face decided in closed form the status and exact witness must be
the search's, and the closed-form minimum may not exceed the search's
beyond roundoff.  ``closed_form_oracle``, which evaluated the float rank
test at torus points on the critical orbits, is the other.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from holderbounds.cli import main
from holderbounds.newton import analyze_system
from holderbounds.nondegen import (
    CertifyConfig,
    _certificate,
    _certify,
    _certify_faces,
    _closed_form,
    _edge_polynomials,
    _padd,
    _pderiv,
    _pmul,
    _pseudo_divmod,
    _ptrim,
    _Sturm,
    build_m_delta,
    certify_face,
    certify_system,
    normalized_minor_objective,
)
from holderbounds.polysys import parse_system

import closed_form_oracle
from conftest import DEGENERATE_PAIR_TEXT, DEMO_SYSTEMS, HALF_DISK_TEXT, random_convenient_system

BENCH_SYSTEMS = sorted((Path(__file__).resolve().parent.parent / "bench" / "systems").glob("*.poly"))
FIXTURES = DEMO_SYSTEMS + BENCH_SYSTEMS


def _random_systems(count: int = 20):
    for k in range(count):
        yield random_convenient_system(random.Random(k), max_vars=4, max_polys=3, min_vars=1)


def _low_faces(system):
    """The matrices and indices of the faces of dimension 0 and 1."""
    faces = analyze_system(system).faces
    indices = [k for k, face in enumerate(faces) if face.dim <= 1]
    return [build_m_delta(system, faces[k]) for k in indices], indices


def _assert_matches_search(system, samples: int) -> int:
    """Closed form against the search on every vertex and edge; returns
    how many faces the closed form decided."""
    matrices, indices = _low_faces(system)
    exact = 0
    for seed in (1, 7, 42):
        cfg = CertifyConfig(samples=samples, multistarts=4, descent_iters=100, seed=seed)
        decided = _certify(matrices, indices, cfg)
        searched = _certify_faces(matrices, indices, cfg)
        for got, want in zip(decided, searched):
            if got.method == "search":
                assert got == want
                continue
            exact += 1
            assert (got.status, got.witness_exact) == (want.status, want.witness_exact), got.face_index
            assert got.samples == 0 and got.witness is None and got.reason is None
            assert got.objective_min <= want.objective_min * (1 + 1e-12), (got, want)
    return exact


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_closed_form_matches_search_on_fixtures(path):
    assert _assert_matches_search(parse_system(path.read_text()), samples=512) > 0


def test_closed_form_matches_search_on_random_systems():
    exact = sum(_assert_matches_search(system, samples=256) for system in _random_systems())
    assert exact > 100


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_certify_face_is_the_one_face_case_of_certify_system(path):
    system = parse_system(path.read_text())
    cfg = CertifyConfig(samples=64, multistarts=3, descent_iters=40, seed=7)
    faces = analyze_system(system).faces
    verdict = certify_system(system, cfg)
    for index, face in enumerate(faces):
        assert certify_face(build_m_delta(system, face), cfg, index) == verdict.faces[index]


def test_vertex_constant_matches_the_objective_on_the_torus():
    rng = np.random.default_rng(3)
    checked = 0
    systems = [parse_system(path.read_text()) for path in FIXTURES] + list(_random_systems(8))
    for system in systems:
        for face in analyze_system(system).faces:
            matrix = build_m_delta(system, face)
            data = _edge_polynomials(matrix) if face.dim == 0 else None
            if data is None:
                continue
            G, H, _ = data
            assert len(G) == 1 and H == [1]
            parts = [matrix.entries[i][matrix.n + i] for i in range(matrix.p)]
            assert G[0] >= np.prod([float(c) ** 2 for part in parts for c in part.terms.values()])
            for _ in range(4):
                x = rng.choice([-1.0, 1.0], size=system.n) * np.exp(rng.uniform(-1.5, 1.5, size=system.n))
                assert normalized_minor_objective(matrix, x) == pytest.approx(float(G[0]), rel=1e-12)
            checked += 1
    assert checked > 20


def _value(poly, t) -> Fraction:
    return sum(Fraction(c) * Fraction(t) ** k for k, c in enumerate(poly))


def test_edge_objective_is_g_over_h_squared():
    # On an edge the objective depends on x through t = x^v alone.
    rng = np.random.default_rng(5)
    checked = 0
    systems = [parse_system(path.read_text()) for path in DEMO_SYSTEMS] + list(_random_systems(8))
    for system in systems:
        for face in analyze_system(system).faces:
            matrix = build_m_delta(system, face)
            data = _edge_polynomials(matrix) if face.dim == 1 else None
            if data is None:
                continue
            G, H, v = data
            # The limits at t -> 0 and t -> inf are G[0] and G[-1].
            assert H[0] == H[-1] == 1 and len(G) == 2 * len(H) - 1
            for _ in range(4):
                x = rng.choice([-1.0, 1.0], size=system.n) * np.exp(rng.uniform(-0.7, 0.7, size=system.n))
                t = float(np.prod(x ** np.array(v, dtype=float)))
                want = float(_value(G, t) / _value(H, abs(t)) ** 2)
                assert normalized_minor_objective(matrix, x) == pytest.approx(want, rel=1e-9, abs=1e-12)
            checked += 1
    assert checked > 20


def _numpy_positive_roots(poly) -> int:
    """Distinct positive real roots from ``numpy.roots``, for integer roots."""
    roots = np.roots([float(c) for c in reversed(poly)])
    real = roots[(np.abs(roots.imag) < 0.1) & (roots.real > 0.5)].real
    return len(set(np.rint(real).astype(int).tolist()))


def test_sturm_count_matches_numpy_roots():
    rng = random.Random(11)
    for _ in range(200):
        # Integer roots from -3 to 3 (0 included) with multiplicities up
        # to 3, times factors t^2 + b with no real root.
        poly = [Fraction(rng.choice([-3, -1, 1, 2]), 3)]
        roots = {}
        for _ in range(rng.randint(0, 4)):
            root = rng.randint(-3, 3)
            roots[root] = rng.randint(1, 3)
        for root, multiplicity in roots.items():
            for _ in range(multiplicity):
                poly = _pmul(poly, [-root, 1])
        for _ in range(rng.randint(0, 2)):
            poly = _pmul(poly, [rng.randint(1, 4), 0, 1])
        expected = sum(1 for root in roots if root > 0)
        assert _Sturm(poly).positive_count() == expected, (poly, roots)
        assert _numpy_positive_roots(poly) == expected, (poly, roots)
        found = sorted(_Sturm(poly).positive_roots())
        assert found == pytest.approx(sorted(root for root in roots if root > 0), rel=1e-15)
        mirrored = [-c if k % 2 else c for k, c in enumerate(poly)]
        assert _Sturm(mirrored).positive_count() == sum(1 for root in roots if root < 0)


@pytest.mark.parametrize(
    "poly, count",
    [
        ([5], 0),
        ([0, 0, 1], 0),  # t^2: a double root at 0 only
        ([1, -2, 1], 1),  # (t - 1)^2
        ([0, 0, 1, -2, 1], 1),  # t^2 (t - 1)^2
        ([-1, 3, -3, 1], 1),  # (t - 1)^3
        ([-2, 0, 1], 1),  # t^2 - 2: one irrational positive root
        ([1, 0, 1], 0),
    ],
)
def test_sturm_count_edge_cases(poly, count):
    assert _Sturm(poly).positive_count() == count
    assert len(_Sturm(poly).positive_roots()) == count


def test_edge_with_a_real_root_goes_to_the_search():
    system = parse_system(DEGENERATE_PAIR_TEXT)
    faces = analyze_system(system).faces
    matrix = build_m_delta(system, faces[2])
    assert faces[2].dim == 1
    G, _, _ = _edge_polynomials(matrix)
    # f1 = x^2 - y^2 and f2 = x - y share the root t = x/y = 1 (or y/x).
    assert _Sturm(G).positive_count() == 1
    assert _closed_form(matrix) is None
    verdict = certify_system(system, CertifyConfig(samples=256, seed=1))
    assert [f.method for f in verdict.faces] == ["exact", "exact", "search"]
    assert verdict.faces[2].status == "degenerate" and verdict.faces[2].witness_exact is not None


def test_vanishing_part_and_higher_faces_go_to_the_search():
    # f1 has no pure power of y, so its part on the face at y^4 vanishes.
    system = parse_system("f1 = -2*x^4 - 3*z\nf2 = -x^2*z^2 + z^4 + y^4 - z^2 + x")
    kinds = set()
    for face in analyze_system(system).faces:
        matrix = build_m_delta(system, face)
        vanishing = not all(matrix.entries[i][matrix.n + i].terms for i in range(matrix.p))
        if vanishing or face.dim > 1:
            assert _edge_polynomials(matrix) is None and _closed_form(matrix) is None
            kinds.add("vanishing" if vanishing else "higher")
    assert kinds == {"vanishing", "higher"}


def test_value_below_the_band_stays_exact():
    # half_disk's vertex (0, 3) has the constant objective 6; with
    # tau_zero = 1 it is not above 10 tau_zero, but tau_zero applies to
    # searched faces only.
    system = parse_system(HALF_DISK_TEXT)
    matrix = build_m_delta(system, analyze_system(system).faces[0])
    assert _closed_form(matrix) == 6
    out = certify_face(matrix, CertifyConfig(samples=64, seed=1, tau_zero=1.0))
    assert (out.method, out.samples, out.status, out.objective_min) == ("exact", 0, "nondegenerate_probable", 6.0)


def test_inconclusive_reasons():
    system = parse_system(HALF_DISK_TEXT)
    matrix = build_m_delta(system, analyze_system(system).faces[0])
    cfg = CertifyConfig()
    # A value at tau_zero, pinned near the axes, with no exact witness.
    pinned = _certificate(matrix, 0, 1e-13, np.array([1e-3, 1e-3]), 10, cfg)
    assert (pinned.status, pinned.reason) == ("inconclusive", "axis_floor")
    assert pinned.to_json()["reason"] == "axis_floor"
    band = _certificate(matrix, 0, 5e-12, np.array([0.5, 0.5]), 10, cfg)
    assert (band.status, band.reason) == ("inconclusive", "objective_band")
    clear = _certificate(matrix, 0, 1.0, np.array([0.5, 0.5]), 10, cfg)
    assert (clear.status, clear.reason) == ("nondegenerate_probable", None)
    assert clear.to_json()["reason"] is None


def test_cli_reports_method_and_reason(tmp_path, capsys):
    path = tmp_path / "pair.poly"
    path.write_text(DEGENERATE_PAIR_TEXT, encoding="utf-8")
    assert main(["certify", str(path), "--samples", "64", "--format", "json"]) == 1
    faces = json.loads(capsys.readouterr().out)["faces"]
    assert [(f["method"], f["samples"], f["reason"]) for f in faces] == [
        ("exact", 0, None),
        ("exact", 0, None),
        ("search", 192, None),
    ]


def test_closed_form_points_lie_on_the_torus():
    # The oracle's every candidate point has nonzero finite coordinates,
    # and critical points are found on both signs of t = x^v.
    signs = set()
    for system in itertools.islice(_random_systems(), 10):
        for face in analyze_system(system).faces:
            matrix = build_m_delta(system, face)
            form = closed_form_oracle.closed_form(matrix)
            assert (form is None) == (_closed_form(matrix) is None)
            if form is None or face.dim == 0:
                continue
            points = form[1]
            assert points.shape[0] == system.n
            assert np.all(np.isfinite(points)) and np.all(points != 0)
            v = np.array(_edge_polynomials(matrix)[2], dtype=float)
            signs.update(np.sign(np.prod(points ** v[:, None], axis=0)).tolist())
    assert signs == {-1.0, 1.0}


# Faces whose minimum the float oracle did not report, with why: its
# minimum was at most 10 tau_zero, so the face went to the search, or its
# rank test read NaN at a critical point where x^600 overflows.
SCALED_TEXT = "f1 = 1e-7*x^4 + 1e-7*y^4 - 1e-7"
OVERFLOW_TEXT = "f1 = x^400*y^300 + x^600 + y^500 - 1\nf2 = x - y^3"
ORACLE_SENT_TO_SEARCH = {(SCALED_TEXT, 0): "band", (SCALED_TEXT, 1): "band", (SCALED_TEXT, 2): "band", (OVERFLOW_TEXT, 6): "nan"}


def test_closed_form_matches_float_oracle():
    # The closed form uses no seed, so one pass covers every seed.  Both
    # decide the same faces, and the exact minimum rounds to within
    # 4e-15 of the float one wherever the float one was reported.
    systems = [path.read_text() for path in FIXTURES] + [SCALED_TEXT, OVERFLOW_TEXT]
    systems = [(text, parse_system(text)) for text in systems] + [(k, s) for k, s in enumerate(_random_systems())]
    decided, unreported = 0, {}
    for key, system in systems:
        for index, face in enumerate(analyze_system(system).faces):
            matrix = build_m_delta(system, face)
            got, want = _closed_form(matrix), closed_form_oracle.minimum(matrix)
            assert (got is None) == (want is None), (key, index)
            if got is None:
                continue
            decided += 1
            if np.isnan(want) or want <= 10 * CertifyConfig().tau_zero:
                unreported[key, index] = "nan" if np.isnan(want) else "band"
            else:
                assert float(got) == pytest.approx(want, rel=4e-15, abs=0), (key, index)
    assert unreported == ORACLE_SENT_TO_SEARCH
    assert decided > 400


def _minimum_at_bisected_roots(matrix) -> Fraction:
    """The closed-form minimum at critical roots isolated by Sturm counts
    and bisected in ``Fraction``s to 2^-200 relative."""
    G, H, _ = _edge_polynomials(matrix)
    mirrored = [-c if k % 2 else c for k, c in enumerate(G)]
    best = min(G[0], G[-1])
    for branch in (G, mirrored):
        crit = _ptrim(_padd(_pmul(_pderiv(branch), H), [-2 * c for c in _pmul(branch, _pderiv(H))]))
        if not crit:
            continue
        sturm = _Sturm(crit)
        free = _pseudo_divmod(sturm.seq[0], sturm.seq[-1])[0]
        stack, isolated = [(Fraction(0), Fraction(sturm.bound))], []
        while stack:
            a, b = stack.pop()
            count = sturm.changes(a) - sturm.changes(b)
            if count == 1:
                isolated.append((a, b))
            elif count > 1:
                mid = (a + b) / 2
                while _Sturm.sign(free, mid) == 0:
                    mid = (a + mid) / 2
                stack += [(a, mid), (mid, b)]
        for a, b in isolated:
            above = _Sturm.sign(free, b)
            while b - a > a * Fraction(1, 2**200):
                mid = (a + b) / 2
                a, b = (a, mid) if _Sturm.sign(free, mid) in (0, above) else (mid, b)
            u = (a + b) / 2
            best = min(best, _value(branch, u) / _value(H, u) ** 2)
    return best


def test_minimum_is_the_rounded_minimum_at_exactly_bisected_roots():
    systems = [parse_system(path.read_text()) for path in FIXTURES] + list(_random_systems(10))
    checked = 0
    for system in systems:
        for face in analyze_system(system).faces:
            matrix = build_m_delta(system, face)
            got = _closed_form(matrix)
            if got is not None:
                assert float(got) == float(_minimum_at_bisected_roots(matrix))
                checked += 1
    assert checked > 200


def test_quadratic_bowl_edge_reads_32_sevenths():
    # (5s^2 + 4s + 20) / (s + 1)^2 with s = x^2/y^2 is least at s = 6.
    verdict = certify_system(parse_system((DEMO_SYSTEMS[0].parent / "quadratic_bowl.poly").read_text()))
    edge = verdict.faces[2]
    assert (edge.method, edge.objective_min) == ("exact", float(Fraction(32, 7)))


def test_scaled_system_is_decided_exactly():
    # At 1e-7 every minimum lies under 10 tau_zero; the search called the
    # system degenerate.  A Sturm count decides each face whatever its scale.
    verdict = certify_system(parse_system(SCALED_TEXT), CertifyConfig(seed=1))
    assert verdict.status == "nondegenerate_probable"
    assert [(f.method, f.samples) for f in verdict.faces] == [("exact", 0)] * 3
    minima = [Fraction(17, 10**14), Fraction(17, 10**14), Fraction(9, 10**14)]
    assert [f.objective_min for f in verdict.faces] == [float(m) for m in minima]


def test_positive_roots_are_bisected_to_double_precision():
    # An irrational root; a double and a triple one, at bisection points.
    assert _Sturm([-2, 0, 1]).positive_roots() == [pytest.approx(2**0.5, rel=1e-15)]
    one, three_halves = [-1, 1], [-Fraction(3, 2), 1]
    poly = _pmul(_pmul(one, one), _pmul(three_halves, _pmul(three_halves, three_halves)))
    roots = sorted(_Sturm(poly).positive_roots())
    assert roots == [pytest.approx(1.0, rel=1e-15), pytest.approx(1.5, rel=1e-15)]

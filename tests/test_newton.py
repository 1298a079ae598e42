from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from holderbounds.newton import (
    _AffineFrame,
    _null_space,
    DecompositionError,
    FaceEnumerationError,
    ZeroPolynomialError,
    all_proper_faces,
    analyze_system,
    decompose_face,
    faces_at_infinity,
    is_convenient,
    min_face,
    min_support,
    minkowski_sum,
    newton_polytope,
)
from holderbounds.polysys import Polynomial, PolynomialError, parse_system

from conftest import DEMO_SYSTEMS, random_convenient_system
from hull_oracle import _hyperplane_normal, _row_reduce


def _poly(text: str) -> Polynomial:
    return parse_system(f"f1 = {text}").polys[0]


def test_newton_polytope_linear(half_disk):
    P = newton_polytope(half_disk.polys[0])
    assert set(P.vertices) == {(0, 0), (1, 0), (0, 1)}
    assert P.dim == 2


def test_newton_polytope_circle(half_disk):
    P = newton_polytope(half_disk.polys[1])
    assert set(P.vertices) == {(0, 0), (2, 0), (0, 2)}
    assert set(P.points) == {(0, 0), (2, 0), (0, 2)}


def test_newton_polytope_constant():
    P = newton_polytope(Polynomial.constant(5, 1))
    assert P.points == ((0,),)
    assert P.dim == 0
    assert faces_at_infinity(P) == ()


def test_newton_polytope_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        newton_polytope(Polynomial.zero(2))


def test_is_convenient_examples():
    assert is_convenient(_poly("x^2 + y^2 + z^2")).convenient
    report = is_convenient(_poly("x*y"))
    assert not report.convenient
    assert report.missing_axes == (0, 1)
    assert is_convenient(_poly("x + y")).convenient


def test_is_convenient_matches_geometric_axis_test():
    rng = random.Random(11)
    for _ in range(30):
        system = random_convenient_system(rng, max_polys=1)
        f = system.polys[0]
        # Break convenience on a random axis half the time.
        if rng.random() < 0.5:
            axis = rng.randrange(f.nvars)
            f = Polynomial(
                {
                    k: c
                    for k, c in f.terms.items()
                    if not (k[axis] > 0 and all(v == 0 for j, v in enumerate(k) if j != axis))
                },
                f.nvars,
            )
            if f.is_zero:
                continue
        report = is_convenient(f)
        P = newton_polytope(f)
        top = f.degree() + 1
        for j in range(f.nvars):
            axis_hit = any(
                P.contains(tuple(m if i == j else 0 for i in range(f.nvars)))
                for m in range(1, top + 1)
            )
            assert axis_hit == (report.pure_power_degrees[j] is not None)


def test_random_convenient_system_is_convenient():
    for seed in range(200):
        for max_polys in (1, 2, 3):
            system = random_convenient_system(random.Random(seed), max_polys=max_polys)
            convenient = [is_convenient(f).convenient for f in system.polys]
            assert all(convenient), (seed, max_polys)


def test_random_convenient_system_keeps_its_draws():
    # At seed 5, f2 draws an extra term x3^2 with coefficient 0: the pure
    # power -3*x3^2 stays, and every other term follows the same draws.
    system = random_convenient_system(
        random.Random(5), max_vars=5, max_polys=2, max_extra_terms=6, max_degree=4
    )
    assert system.to_text() == (
        "f1 = x2*x3^2 + 3*x1*x3 + 3*x2^2 + x1 - 2*x3 - x4\n"
        "f2 = -2*x2^4 - 2*x1*x3*x4 - x2*x4 - 3*x3^2 - 2*x1 - x4"
    )


def test_minkowski_sum_half_disk(half_disk):
    parts = [newton_polytope(f) for f in half_disk.polys]
    total = minkowski_sum(parts)
    assert set(total.vertices) == {(0, 0), (3, 0), (0, 3)}


def test_minkowski_sum_identity_element():
    P = newton_polytope(_poly("x^2 + y"))
    origin_only = newton_polytope(_poly("1"))
    # Promote the constant to two variables.
    origin_only = newton_polytope(Polynomial({(0, 0): 1}, 2))
    total = minkowski_sum([P, origin_only])
    assert set(total.vertices) == set(P.vertices)
    assert set(total.facets) == set(P.facets)


def test_minkowski_sum_sphere_cubic(sphere_cubic):
    parts = [newton_polytope(f) for f in sphere_cubic.polys]
    total = minkowski_sum(parts)
    assert set(total.vertices) == {
        (0, 0, 0),
        (3, 0, 0),
        (0, 3, 0),
        (0, 0, 5),
        (2, 0, 3),
        (0, 2, 3),
    }


def test_minkowski_sum_dimension_mismatch():
    P = newton_polytope(_poly("x"))
    Q = newton_polytope(_poly("x + y"))
    with pytest.raises(PolynomialError):
        minkowski_sum([P, Q])


@pytest.mark.parametrize("q", [(1,), (-1, -1, 5)])
def test_min_support_and_min_face_reject_a_direction_of_the_wrong_length(q):
    # Lengths n - 1 and n + 1 used to be truncated silently by the dot product.
    P = newton_polytope(_poly("x^2 + y^2 - 1"))
    for measure in (min_support, min_face, type(P).contains):
        with pytest.raises(PolynomialError, match="ambient dimension mismatch"):
            measure(P, q)


def test_faces_at_infinity_triangle(half_disk):
    total = minkowski_sum([newton_polytope(f) for f in half_disk.polys])
    faces = faces_at_infinity(total)
    assert len(faces) == 3
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 0, 1]
    verts = {f.vertices for f in faces if f.dim == 0}
    assert verts == {((3, 0),), ((0, 3),)}
    edge = next(f for f in faces if f.dim == 1)
    assert set(edge.vertices) == {(3, 0), (0, 3)}
    # Witness behaves like a supporting direction: negative value, negative entry.
    assert edge.value < 0
    assert min(edge.witness_normal) < 0


def test_faces_at_infinity_sphere_cubic_count(sphere_cubic):
    total = minkowski_sum([newton_polytope(f) for f in sphere_cubic.polys])
    faces = faces_at_infinity(total)
    assert len(faces) == 13


def test_faces_at_infinity_segment():
    for n in (1, 2, 4):
        f = Polynomial({tuple(3 if j == 0 else 0 for j in range(n)): 1}, n)
        P = newton_polytope(f)
        faces = faces_at_infinity(P)
        assert len(faces) == 1
        assert faces[0].support_points == (tuple(3 if j == 0 else 0 for j in range(n)),)
        assert faces[0].dim == 0


def test_face_enumeration_cap():
    f = _poly("x^2 + y^2 + x*y + x + y + 1")
    with pytest.raises(FaceEnumerationError):
        all_proper_faces(newton_polytope(f, face_cap=2))


def test_decompose_half_disk_edge(half_disk):
    parts = [newton_polytope(f) for f in half_disk.polys]
    total = minkowski_sum(parts)
    edge = next(f for f in faces_at_infinity(total) if f.dim == 1)
    decomposition = decompose_face(edge, parts)
    assert set(decomposition[0]) == {(1, 0), (0, 1)}
    assert set(decomposition[1]) == {(2, 0), (0, 2)}


def test_decompose_sphere_cubic_facet(sphere_cubic):
    parts = [newton_polytope(f) for f in sphere_cubic.polys]
    total = minkowski_sum(parts)
    faces = faces_at_infinity(total)
    target = next(
        f
        for f in faces
        if set(f.vertices) == {(2, 0, 3), (0, 2, 3), (0, 0, 5)}
    )
    decomposition = decompose_face(target, parts)
    assert set(decomposition[0]) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
    assert set(decomposition[1]) == {(0, 0, 3)}


def test_decompose_single_summand():
    P = newton_polytope(_poly("x^2 + y^2"))
    for face in faces_at_infinity(P):
        (part,) = decompose_face(face, [P])
        assert set(part) == set(face.support_points)


def test_decompose_rejects_bad_witness(half_disk):
    parts = [newton_polytope(f) for f in half_disk.polys]
    total = minkowski_sum(parts)
    edge = next(f for f in faces_at_infinity(total) if f.dim == 1)
    from dataclasses import replace

    broken = replace(edge, witness_normal=(1, 1))
    with pytest.raises(DecompositionError):
        decompose_face(broken, parts)


def test_minkowski_support_linearity_random():
    rng = random.Random(5)
    checked = 0
    while checked < 1000:
        system = random_convenient_system(rng, max_polys=3)
        parts = [newton_polytope(f) for f in system.polys]
        total = minkowski_sum(parts)
        for _ in range(25):
            q = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(system.n)
            )
            lhs = min_support(total, q)
            rhs = sum(min_support(p, q) for p in parts)
            assert lhs == rhs
            checked += 1


def test_face_decomposition_matches_direct_support_sets():
    # With two summands the stored sum generators are exactly the vertex
    # sums, so the face identity can be compared set-for-set.
    rng = random.Random(13)
    for _ in range(12):
        system = random_convenient_system(rng, max_polys=2)
        parts = [newton_polytope(f) for f in system.polys]
        total = minkowski_sum(parts)
        for face in faces_at_infinity(total):
            q = face.witness_normal
            component_minimizers = [
                [
                    v
                    for v in p.vertices
                    if sum(a * b for a, b in zip(q, v)) == min_support(p, q)
                ]
                for p in parts
            ]
            sums = {
                tuple(sum(c) for c in zip(*combo))
                for combo in itertools.product(*component_minimizers)
            }
            if len(parts) == 1:
                sums = {tuple(v) for v in component_minimizers[0]}
            assert sums == set(min_face(total, q))
            assert set(min_face(total, q)) == set(face.support_points)


def test_origin_value_sign_equivalence_random_convenient():
    rng = random.Random(17)
    for _ in range(50):
        system = random_convenient_system(rng, max_polys=2)
        parts = [newton_polytope(f) for f in system.polys]
        total = minkowski_sum(parts)
        origin = (0,) * system.n
        for face in all_proper_faces(total):
            at_infinity = origin not in face.support
            value_negative = face.value < 0
            witness_negative = min(face.witness) < 0
            assert at_infinity == value_negative == witness_negative


def test_convenient_summands_give_convenient_component_faces():
    rng = random.Random(19)
    for _ in range(20):
        system = random_convenient_system(rng, max_polys=3)
        parts = [newton_polytope(f) for f in system.polys]
        total = minkowski_sum(parts)
        origin = (0,) * system.n
        for face in faces_at_infinity(total):
            for part_face in decompose_face(face, parts):
                assert origin not in part_face


def test_polytope_invariants_random():
    rng = random.Random(23)
    for _ in range(25):
        system = random_convenient_system(rng, max_polys=2)
        for f in system.polys:
            P = newton_polytope(f)
            origin = (0,) * f.nvars
            assert origin in P.points
            assert set(P.vertices) <= set(P.points)
            for point in P.points:
                for normal, offset in P.facets:
                    assert sum(a * b for a, b in zip(normal, point)) >= offset
            from holderbounds.newton import _build_polytope

            rebuilt = _build_polytope(P.vertices, f.nvars)
            assert set(rebuilt.vertices) == set(P.vertices)
            for point in P.points:
                assert rebuilt.contains(point)


def _row_reduce_by_division(rows):
    """``newton._row_reduce`` before it went fraction-free: Gauss-Jordan on
    ``Fraction``s, each pivot row scaled to a leading 1 before it is used."""
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        top = len(pivots)
        if top == len(a):
            break
        pivot = next((r for r in range(top, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[top], a[pivot] = a[pivot], a[top]
        inv = 1 / a[top][col]
        a[top] = [v * inv for v in a[top]]
        for r in range(len(a)):
            if r != top and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[top])]
        pivots.append(col)
    return a, pivots


def test_row_reduce_matches_division_oracle():
    rng = random.Random(3)
    draws = {
        "int": lambda: rng.randint(-3, 3),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        "float": lambda: rng.choice([0.0, rng.uniform(-2, 2)]),
    }
    for _ in range(400):
        draw = draws[rng.choice(list(draws))]
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        rows = [[draw() for _ in range(n)] for _ in range(m)]
        if m >= 3 and rng.random() < 0.5:
            # A dependent row: the elimination must find the rank drop.
            rows[-1] = [2 * u - v for u, v in zip(rows[0], rows[1])]
        got = _row_reduce(rows)
        assert got == _row_reduce_by_division(rows)
        assert all(type(v) is Fraction for row in got[0] for v in row)


def test_null_space_is_a_primitive_basis():
    rng = random.Random(5)
    for _ in range(400):
        m, width = rng.randint(0, 6), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(m)]
        if m >= 3 and rng.random() < 0.5:
            rows[-1] = [2 * u - v for u, v in zip(rows[0], rows[1])]
        basis = _null_space(rows, width)
        assert len(basis) == width - len(_row_reduce_by_division(rows)[1])
        assert len(_row_reduce_by_division(basis)[1]) == len(basis)
        for x in basis:
            assert all(type(v) is int for v in x) and gcd(*x) == 1
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)
    # k x (k + 1) rows of full rank: the one vector is the cofactor normal
    # made primitive, up to sign.
    checked = 0
    for _ in range(300):
        k = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(k + 1)] for _ in range(k)]
        normal = _hyperplane_normal(rows, k + 1)
        if normal is None:
            continue
        g = gcd(*normal)
        primitive = tuple(v // g for v in normal)
        assert _null_space(rows, k + 1) in ([primitive], [tuple(-v for v in primitive)])
        checked += 1
    assert checked > 200


def test_face_dims_match_affine_rank():
    # A face's dimension comes from the rank of its facets' normals; the
    # affine rank of its support is the independent reference.
    systems = [parse_system(path.read_text()) for path in DEMO_SYSTEMS]
    systems += [random_convenient_system(random.Random(seed), max_polys=3) for seed in range(20)]
    # Polytopes of lower dimension than their ambient space.
    systems += [parse_system("f1 = x*y + x^2*y^2"), parse_system("f1 = x*y + x*z\nf2 = y*z")]
    for system in systems:
        polytopes = [newton_polytope(f) for f in system.polys]
        for P in polytopes + [minkowski_sum(polytopes)]:
            for face in all_proper_faces(P):
                assert face.dim == _AffineFrame(list(face.support)).dim


def test_analyze_system_attaches_decompositions(half_disk):
    geometry = analyze_system(half_disk)
    assert geometry.convenient
    assert len(geometry.faces) == 3
    for face in geometry.faces:
        assert face.decomposition is not None
        assert len(face.decomposition) == half_disk.p


def test_analyze_system_rejects_zero_component():
    system = parse_system("f1 = x\nf2 = 0")
    with pytest.raises(ZeroPolynomialError, match="f2"):
        analyze_system(system)

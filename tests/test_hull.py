"""The double-description hull and the hull-free decomposition check.

Both are compared against the code they replaced, kept in
``hull_oracle.py``: the brute-force facet search and the check that
rebuilds two hulls per face.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from holderbounds.newton import (
    DecompositionError,
    _AffineFrame,
    _build_polytope,
    _hull_coord_facets,
    all_proper_faces,
    analyze_system,
    decompose_face,
    faces_at_infinity,
    min_face,
    min_support,
    minkowski_sum,
    newton_polytope,
)
from holderbounds.polysys import parse_system

from conftest import random_convenient_system
from hull_oracle import (
    IncrementalAffineFrame,
    brute_force_hull,
    decompose_face_by_hull_rebuild,
)

DEMO_SYSTEMS = sorted(
    (Path(__file__).resolve().parent.parent / "demos" / "systems").glob("*.poly")
)

# n = 6, p = 2 with 53 sum generators: the brute-force search would try
# C(53, 6) ~ 2.3e7 hyperplanes, above its cap of 5e6.
SCALE_TEXT = (
    "f1 = -2*x6^4 + 3*x1^3 + 3*x2*x3*x5 + 3*x3^2 + x2 - 2*x4 - x5 + 3\n"
    "f2 = -3*x1^3 + x2^3 - 3*x4^3 - x5^3 - 2*x3^2 + 2*x6"
)


def _oracle_systems():
    for path in DEMO_SYSTEMS:
        yield path.name, parse_system(path.read_text())
    for seed in range(40):
        system = random_convenient_system(random.Random(seed), max_vars=4, max_polys=3)
        yield f"seed {seed}", system


def _geometry(system, decompose):
    """Every polytope built for the system, and its decomposed faces at infinity."""
    parts = [newton_polytope(f) for f in system.polys]
    total = minkowski_sum(parts)
    faces = tuple(
        replace(face, decomposition=decompose(face, parts))
        for face in faces_at_infinity(total)
    )
    polytopes = [
        (P.points, P.vertices, P.facets, P.dim, all_proper_faces(P))
        for P in (*parts, total)
    ]
    return polytopes, faces


def test_hull_matches_brute_force_oracle():
    names = []
    for name, system in _oracle_systems():
        hull = _geometry(system, decompose_face)
        with brute_force_hull():
            brute = _geometry(system, decompose_face_by_hull_rebuild)
        assert hull == brute, name
        names.append(name)
    assert len(names) == len(DEMO_SYSTEMS) + 40 and len(DEMO_SYSTEMS) >= 6


def _raises(check, face, parts):
    try:
        return False, check(face, parts)
    except DecompositionError:
        return True, None


def test_decompose_check_matches_hull_rebuild_oracle():
    pairs = raised = 0
    for seed in range(12):
        system = random_convenient_system(random.Random(seed), max_polys=3)
        parts = [newton_polytope(f) for f in system.polys]
        faces = faces_at_infinity(minkowski_sum(parts))
        for face in faces:
            for other in faces:
                probe = replace(face, witness_normal=other.witness_normal)
                new = _raises(decompose_face, probe, parts)
                old = _raises(decompose_face_by_hull_rebuild, probe, parts)
                assert new == old, (seed, face, other)
                pairs += 1
                raised += new[0]
    # Both outcomes occur: a foreign witness is rejected, the face's own is not.
    assert 0 < raised < pairs


def test_scale_system_beyond_the_old_candidate_cap():
    system = parse_system(SCALE_TEXT)
    geometry = analyze_system(system)
    total = geometry.sum_polytope
    assert system.n == 6 and len(total.points) == 53
    assert geometry.faces
    for face in geometry.faces:
        q = face.witness_normal
        assert set(min_face(total, q)) == set(face.support_points)
        assert min_support(total, q) == face.value
        assert len(face.decomposition) == system.p


def _primitive_facets(coords, k, simplex, order):
    """Facets of conv(coords) with the points inserted in ``order``."""
    facets = _hull_coord_facets([coords[i] for i in order], k, simplex)
    out = set()
    for w, mask in facets:
        g = gcd(*w)
        original = sum(1 << order[i] for i in range(len(order)) if mask >> i & 1)
        out.add((tuple(v // g for v in w), original))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_facets_do_not_depend_on_insertion_order(seed):
    rng = random.Random(seed)
    system = random_convenient_system(rng, max_vars=4, max_polys=2, max_extra_terms=4)
    parts = [newton_polytope(f) for f in system.polys]
    total = minkowski_sum(parts)
    generators = list(total.points)
    assert total.facets == tuple(sorted(total.facets))

    rng.shuffle(generators)
    shuffled = _build_polytope(generators, system.n)
    assert shuffled.facets == total.facets
    assert faces_at_infinity(shuffled) == faces_at_infinity(total)

    # The hull itself, fed the points in another order from another simplex.
    frame = _AffineFrame(list(total.points))
    coords = frame.coordinates(total.points)
    order = list(range(len(coords)))
    rng.shuffle(order)
    permuted_simplex = _AffineFrame([coords[i] for i in order]).simplex
    assert _primitive_facets(coords, frame.dim, permuted_simplex, order) == (
        _primitive_facets(coords, frame.dim, frame.simplex, list(range(len(coords))))
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_affine_frame_matches_incremental_oracle(n):
    rng = random.Random(n)
    dims, spanned = set(), set()
    for dim in range(n + 1):
        for _ in range(8):
            base = [rng.randint(-4, 4) for _ in range(n)]
            directions = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(dim)]
            points = [tuple(base)] + [tuple(b + d for b, d in zip(base, v)) for v in directions]
            for _ in range(rng.randint(0, 5)):
                c = [rng.randint(-2, 2) for _ in directions]
                shift = [sum(x * v[j] for x, v in zip(c, directions)) for j in range(n)]
                points.append(tuple(b + s for b, s in zip(base, shift)))
            points += [rng.choice(points) for _ in range(rng.randint(0, 3))]
            rng.shuffle(points)

            new, old = _AffineFrame(points), IncrementalAffineFrame(points)
            assert (new.simplex, new.basis, new.dim) == (old.simplex, old.basis, old.dim)
            assert new.coordinates(points) == old.coordinates(points)
            ws = [[rng.randint(-3, 3) for _ in range(new.dim)] for _ in range(4)]
            if new.dim:
                assert new.lift_normals(ws) == [old.lift_normal(w) for w in ws]
            dims.add(new.dim)

            queries = list(points) + [
                tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(3)
            ]
            for _ in range(4):
                u, v = rng.choice(points), rng.choice(points)
                t = Fraction(rng.randint(-3, 5), rng.choice([1, 2, 3, 4]))
                mid = [t * a + (1 - t) * b for a, b in zip(u, v)]
                off = list(mid)
                off[rng.randrange(n)] += Fraction(1, 3)
                queries += [tuple(mid), tuple(off), tuple(map(float, mid)), tuple(map(float, off))]
            for q in queries:
                assert new.spans(q) == old.spans(q), (points, q)
                spanned.add(new.spans(q))
    assert dims == set(range(n + 1))
    assert spanned == {True, False}

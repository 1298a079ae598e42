"""The double-description hull, the face lattice and the decomposition check.

Each is compared against the code it replaced, kept in ``hull_oracle.py``:
the brute-force facet search, the face enumeration that checks every
witness against every generator, and the check that rebuilds two hulls
per face.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

from holderbounds import newton
from holderbounds.newton import (
    DecompositionError,
    FaceEnumerationError,
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
    facets_by_incremental_frame,
    proper_faces_by_dot_products,
    vertices_by_dot_products,
)

ROOT = Path(__file__).resolve().parent.parent
DEMO_SYSTEMS = sorted((ROOT / "demos" / "systems").glob("*.poly"))
BENCH_SYSTEMS = sorted((ROOT / "bench" / "systems").glob("*.poly"))

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


def _lattice_systems():
    for path in DEMO_SYSTEMS + BENCH_SYSTEMS:
        yield path.name, parse_system(path.read_text())
    yield "scale", parse_system(SCALE_TEXT)
    # Polytopes of lower dimension than their ambient space.
    yield "flat segment", parse_system("f1 = x*y + x^2*y^2")
    yield "flat triangle", parse_system("f1 = x*y + x*z\nf2 = y*z")
    for seed in range(40):
        rng = random.Random(1000 + seed)
        yield f"seed {seed}", random_convenient_system(rng, max_vars=5, max_polys=3)


def test_lattice_matches_dot_product_oracle():
    names = []
    for name, system in _lattice_systems():
        parts = [newton_polytope(f) for f in system.polys]
        for P in (*parts, minkowski_sum(parts)):
            assert P.vertices == vertices_by_dot_products(P), name
            assert P.facets == facets_by_incremental_frame(P.points), name
            assert all_proper_faces(P) == proper_faces_by_dot_products(P), name
        names.append(name)
    assert len(names) == len(DEMO_SYSTEMS) + len(BENCH_SYSTEMS) + 43
    assert len(DEMO_SYSTEMS) >= 6 and len(BENCH_SYSTEMS) >= 3


def test_corrupted_tight_mask_fails_the_face_cut_check():
    # Moving a vertex onto or off a facet leaves some vertex whose facets
    # no longer meet in it alone.
    flips = 0
    for system in (parse_system(path.read_text()) for path in DEMO_SYSTEMS):
        total = minkowski_sum([newton_polytope(f) for f in system.polys])
        for v in total.vertices:
            bit = 1 << total.points.index(v)
            for f in range(len(total.facets)):
                tight = list(total._tight)
                tight[f] ^= bit
                corrupted = replace(total, _tight=tuple(tight))
                with pytest.raises(RuntimeError, match="does not cut its face exactly"):
                    all_proper_faces(corrupted)
                flips += 1
    assert flips > 50


def test_analyze_system_enumerates_no_component_lattice():
    for path in DEMO_SYSTEMS + BENCH_SYSTEMS:
        system = parse_system(path.read_text())
        with mock.patch.object(
            newton, "_enumerate_faces", wraps=newton._enumerate_faces
        ) as enumerate_faces:
            geometry = analyze_system(system)
        calls = [call.args[0] for call in enumerate_faces.call_args_list]
        assert len(calls) == 1 and calls[0] is geometry.sum_polytope, path.name
        if system.p > 1:
            assert all(P is not geometry.sum_polytope for P in geometry.polytopes)


def test_face_cap_fires_when_the_sum_lattice_is_enumerated(half_disk):
    # Building enumerates no lattice, so the components build under the
    # cap; the sum's six faces exceed it.
    for f in half_disk.polys:
        newton_polytope(f, face_cap=2)
    with pytest.raises(FaceEnumerationError):
        analyze_system(half_disk, face_cap=2)


def test_decompose_frame_path_matches_hull_rebuild():
    # (1, 1) is a point of f1's support on the edge from (2, 0) to (0, 2),
    # not a vertex, so the sum (1, 1) + (2, 0) = (3, 1) is no generator of
    # the sum polytope and needs the affine frame of its face.
    system = parse_system("f1 = x^2 + x*y + y^2 + 1\nf2 = x^2 + y^2 + 1")
    parts = [newton_polytope(f) for f in system.polys]
    framed = []
    for face in faces_at_infinity(minkowski_sum(parts)):
        with mock.patch.object(newton, "_AffineFrame", wraps=newton._AffineFrame) as frame:
            decomposition = decompose_face(face, parts)
        assert decomposition == decompose_face_by_hull_rebuild(face, parts)
        if frame.call_count:
            framed.append(face.support_points)
    assert framed == [((0, 4), (2, 2), (4, 0))]


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

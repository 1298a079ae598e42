"""The double-description hull, the face lattice and the decomposition check.

Each is compared against the code it replaced, kept in ``hull_oracle.py``:
the brute-force facet search, the Gram solves that built and lifted
lower-dimensional hulls, the face enumerations that check every witness
against every generator and that close the tight masks under
intersection, and the check that rebuilds two hulls per face.
``analyze_system``'s summand faces from tight masks are compared against
``decompose_face``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from unittest import mock

import numpy as np
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
from holderbounds.polysys import Polynomial, PolySystem, parse_system

import hull_oracle
from conftest import random_convenient_system
from hull_oracle import (
    GramFrame,
    IncrementalAffineFrame,
    _hyperplane_normal,
    brute_force_hull,
    cofactor_normals,
    coord_facets_batched,
    coord_facets_one_by_one,
    coords_fit_int64,
    decompose_face_by_hull_rebuild,
    facets_by_gram_lift,
    facets_by_incremental_frame,
    proper_faces_by_closure,
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


def _sparse_system(rng):
    """Random system with 1 to 4 terms per component, rarely convenient."""
    n = rng.randint(2, 5)
    polys = []
    for _ in range(rng.randint(1, 3)):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 4))
        }
        polys.append(Polynomial(terms, n))
    return PolySystem.from_polynomials(polys)


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
    for seed in range(40):
        yield f"sparse {seed}", _sparse_system(random.Random(3000 + seed))


def test_lattice_matches_dot_product_oracle():
    names, flat = [], 0
    for name, system in _lattice_systems():
        parts = [newton_polytope(f) for f in system.polys]
        for P in (*parts, minkowski_sum(parts)):
            assert P.vertices == vertices_by_dot_products(P), name
            assert P.facets == facets_by_gram_lift(P.points), name
            assert P.facets == facets_by_incremental_frame(P.points), name
            assert all_proper_faces(P) == proper_faces_by_dot_products(P), name
            flat += 0 < P.dim < P.nvars
        names.append(name)
    assert len(names) == len(DEMO_SYSTEMS) + len(BENCH_SYSTEMS) + 83
    assert len(DEMO_SYSTEMS) >= 6 and len(BENCH_SYSTEMS) >= 3
    assert flat > 60


def test_lattice_walk_matches_closure_oracle():
    capped = 0
    for name, system in _lattice_systems():
        parts = [newton_polytope(f) for f in system.polys]
        for P in (*parts, minkowski_sum(parts)):
            faces = all_proper_faces(P)
            assert faces == proper_faces_by_closure(P), name
            if not faces:
                continue
            # The cap is the number of faces either may hold.
            for enumerate_faces in (all_proper_faces, proper_faces_by_closure):
                with pytest.raises(FaceEnumerationError):
                    enumerate_faces(replace(P, _face_cap=len(faces) - 1))
                assert enumerate_faces(replace(P, _face_cap=len(faces))) == faces, name
            capped += 1
    assert capped > 100


def _decomposition_systems():
    for path in DEMO_SYSTEMS + BENCH_SYSTEMS:
        yield path.name, parse_system(path.read_text())
    yield "scale", parse_system(SCALE_TEXT)
    # (1, 1) is a generator of f1 but no vertex, as in
    # test_decompose_frame_path_matches_hull_rebuild.
    yield "non-vertex generator", parse_system("f1 = x^2 + x*y + y^2 + 1\nf2 = x^2 + y^2 + 1")
    for seed in range(40):
        rng = random.Random(2000 + seed)
        yield f"seed {seed}", random_convenient_system(rng, max_vars=4, max_polys=3)


def test_tight_mask_decompositions_match_decompose_face():
    counts = set()
    for name, system in _decomposition_systems():
        geometry = analyze_system(system)
        bare = tuple(replace(face, decomposition=None) for face in geometry.faces)
        assert bare == faces_at_infinity(geometry.sum_polytope), name
        for face in geometry.faces:
            assert face.decomposition == decompose_face(face, geometry.polytopes), name
        counts.add(system.p)
    assert counts == {1, 2, 3}


def _candidate_coords():
    """Hull coordinates of demo, bench and random polytopes, then random integer points."""
    systems = [parse_system(path.read_text()) for path in DEMO_SYSTEMS + BENCH_SYSTEMS]
    for seed in range(6):
        systems.append(random_convenient_system(random.Random(seed), max_vars=4, max_polys=2))
    for system in systems:
        parts = [newton_polytope(f) for f in system.polys]
        for P in (*parts, minkowski_sum(parts)):
            frame = GramFrame(list(P.points))
            if frame.dim >= 2:
                yield frame.coordinates(P.points), frame.dim
    rng = random.Random(0)
    for k in range(2, 6):
        for big in (3, 1000):
            yield [tuple(rng.randint(-big, big) for _ in range(k)) for _ in range(k + 6)], k


def test_cofactor_normals_match_bareiss_minors():
    rng = random.Random(7)
    checked = 0
    for coords, k in _candidate_coords():
        assert coords_fit_int64(coords, k)
        combos = [rng.sample(range(len(coords)), k) for _ in range(40)]
        normals = cofactor_normals(np.asarray(coords, dtype=np.int64), np.array(combos))
        for combo, row in zip(combos, normals.tolist()):
            base = coords[combo[0]]
            diffs = [[a - b for a, b in zip(coords[i], base)] for i in combo[1:]]
            assert tuple(row) == (_hyperplane_normal(diffs, k) or (0,) * k), (coords, combo)
            checked += 1
    assert checked > 1000


def test_batched_facet_search_matches_one_by_one(monkeypatch):
    # A few candidates per batch, so facets also repeat across batches.
    monkeypatch.setattr(hull_oracle, "BATCH_ENTRIES", 64)
    searched = 0
    for coords, k in _candidate_coords():
        if comb(len(coords), k) > 3000:
            continue
        assert coord_facets_batched(coords, k) == coord_facets_one_by_one(coords, k)
        searched += 1
    assert searched > 30


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


def test_corrupted_hull_mask_fails_the_build_check(monkeypatch):
    # Both hull paths, full-dimensional and flat, check every facet's
    # tight mask against every generator.
    hull = newton._hull_coord_facets
    flips = 0
    for text in (DEMO_SYSTEMS[0].read_text(), "f1 = x*y + x^2*y^2", "f1 = x*y + x*z\nf2 = y*z"):
        system = parse_system(text)
        P = minkowski_sum([newton_polytope(f) for f in system.polys])
        for f in range(len(P.facets)):
            for i in range(len(P.points)):

                def corrupted(*args, f=f, i=i):
                    facets = hull(*args)
                    w, tight = facets[f]
                    facets[f] = (w, tight ^ 1 << i)
                    return facets

                with monkeypatch.context() as patch:
                    patch.setattr(newton, "_hull_coord_facets", corrupted)
                    with pytest.raises(RuntimeError, match="facet table mismatch"):
                        _build_polytope(P.points, system.n)
                flips += 1
    assert flips > 20


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
    frame = GramFrame(list(total.points))
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
            if new.dim:
                facets = _build_polytope(points, n).facets
                assert facets == facets_by_gram_lift(points), points
                assert facets == facets_by_incremental_frame(points), points
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

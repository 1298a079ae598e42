"""Reference hull and decomposition check: brute-force facet search.

``enumerate_coord_facets`` is the facet search ``newton`` used before it
moved to the double-description hull.  It tries every hyperplane through
k of the m points (C(m, k) cofactor normals) and keeps those with every
point on one side, so it follows the definition of a facet with no
algorithm in between.  ``decompose_face_by_hull_rebuild`` is the old
``decompose_face`` check, which rebuilds the hull of the summed component
faces and of the face and compares their vertices.  Tests compare the
library against both.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial
from unittest import mock

import numpy as np

from holderbounds import newton
from holderbounds.newton import (
    DecompositionError,
    FaceEnumerationError,
    _build_polytope,
    _hyperplane_normal,
    min_face,
    min_support,
)

CANDIDATE_CAP = 5_000_000


def enumerate_coord_facets(coords: list[tuple[int, ...]], k: int):
    """All facets of conv(coords) in Z^k: list of (coord normal, equality mask)."""
    m = len(coords)
    if k == 1:
        vals = [c[0] for c in coords]
        lo, hi = min(vals), max(vals)
        lo_mask = sum(1 << i for i, v in enumerate(vals) if v == lo)
        hi_mask = sum(1 << i for i, v in enumerate(vals) if v == hi)
        return [((1,), lo_mask), ((-1,), hi_mask)]

    if comb(m, k) > CANDIDATE_CAP:
        raise FaceEnumerationError(
            f"facet search over C({m},{k}) candidate hyperplanes exceeds the cap"
        )

    use_numpy = coords_fit_int64(coords, k)
    pts_np = np.asarray(coords, dtype=np.int64) if use_numpy else None

    facets: list[tuple[tuple[int, ...], int]] = []
    facet_masks: list[int] = []
    for combo in itertools.combinations(range(m), k):
        combo_mask = sum(1 << i for i in combo)
        if any(combo_mask & fm == combo_mask for fm in facet_masks):
            continue
        base = coords[combo[0]]
        diffs = [
            [coords[i][j] - base[j] for j in range(k)] for i in combo[1:]
        ]
        w = _hyperplane_normal(diffs, k)
        if w is None:
            continue
        if use_numpy:
            s = pts_np @ np.asarray(w, dtype=np.int64)
            s = s - int(np.dot(base, w))
            smin, smax = int(s.min()), int(s.max())
        else:
            offs = sum(b * wv for b, wv in zip(base, w))
            svals = [sum(c * wv for c, wv in zip(pt, w)) - offs for pt in coords]
            smin, smax = min(svals), max(svals)
        if smin == 0:
            normal = w
        elif smax == 0:
            normal = tuple(-v for v in w)
        else:
            continue
        if use_numpy:
            sel = s == (smin if smin == 0 else smax)
            eq_mask = sum(1 << int(i) for i in np.flatnonzero(sel))
        else:
            target = smin if smin == 0 else smax
            eq_mask = sum(1 << i for i, v in enumerate(svals) if v == target)
        facets.append((normal, eq_mask))
        facet_masks.append(eq_mask)
    return facets


def coords_fit_int64(coords, k) -> bool:
    big = max((abs(v) for pt in coords for v in pt), default=0)
    bound = factorial(k - 1) * (2 * big) ** (k - 1) * big * k if big else 0
    return bound < 2**62


@contextmanager
def brute_force_hull():
    """Build every polytope inside the block with the brute-force search."""

    def search(coords, k, simplex):
        return enumerate_coord_facets(coords, k)

    with mock.patch.object(newton, "_hull_coord_facets", search):
        yield


def decompose_face_by_hull_rebuild(face, polytopes):
    """The old ``decompose_face``: compare the vertices of two rebuilt hulls."""
    q = face.witness_normal
    parts = [min_face(p, q) for p in polytopes]
    total = sum((min_support(p, q) for p in polytopes), Fraction(0))
    for kappa in face.support_points:
        if sum(Fraction(a) * b for a, b in zip(q, kappa)) != total:
            raise DecompositionError(
                "witness normal does not support the face on the summed polytope"
            )
    sums = {
        tuple(sum(c) for c in zip(*combo))
        for combo in itertools.product(*parts)
    }
    recombined = _build_polytope(sums, len(q))
    original = _build_polytope(face.support_points, len(q))
    if set(recombined.vertices) != set(original.vertices):
        raise DecompositionError("component faces do not sum back to the face")
    return tuple(parts)

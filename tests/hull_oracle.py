"""Reference hull and decomposition check: brute-force facet search.

``enumerate_coord_facets`` is the facet search ``newton`` used before it
moved to the double-description hull.  It tries every hyperplane through
k of the m points (C(m, k) cofactor normals) and keeps those with every
point on one side, so it follows the definition of a facet with no
algorithm in between.  Where the coordinates fit int64 it tries the
candidates in batches, all cofactors of a batch at once; tests check the
batches against the one-at-a-time search and its Bareiss minors.
``decompose_face_by_hull_rebuild`` is the old ``decompose_face`` check,
which rebuilds the hull of the summed component faces and of the face
and compares their vertices.  Tests compare the library against both.

``IncrementalAffineFrame`` is the affine frame ``newton`` used before its
one elimination helper took over: it reduces each new point difference
against the basis so far in ``Fraction``s, solves the Gram system once
per point, and builds the starting simplex's facet normals from k + 1
Bareiss determinants each (``_hyperplane_normal``).  Its Gram solves go
through ``_row_reduce``, which scales every pivot to 1, and its normals
through ``_primitive``; ``facets_by_incremental_frame`` lifts a hull's
facets with it.

``GramFrame`` keeps the Gram solves ``newton`` built lower-dimensional
hulls with before it used the integer points y = B u: rational hull
coordinates rescaled by their lcm, and facet normals lifted back by a
second solve.  ``facets_by_gram_lift`` builds a hull's facets with it.

``proper_faces_by_dot_products`` is the face enumeration ``newton`` used
before it derived faces from the facet table alone: it recomputes every
facet's tight mask, closes them under intersection, and checks each
face's witness by its dot product with every generator.
``proper_faces_by_closure`` is the one that followed it, before the
lattice walk: it closes the facet table's tight masks and the vertex
singletons under intersection and takes each face's dimension from one
``_eliminate`` rank of its active facet normals.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd, lcm
from operator import and_
from typing import Sequence
from unittest import mock

import numpy as np

from holderbounds import newton
from holderbounds.newton import (
    DecompositionError,
    FaceEnumerationError,
    PolytopeFace,
    _AffineFrame,
    _build_polytope,
    _dot,
    _eliminate,
    min_face,
    min_support,
)
from holderbounds.polysys import Exponent, grlex_key

CANDIDATE_CAP = 5_000_000
# Entries of one batch's (candidates, points) value matrix.
BATCH_ENTRIES = 1 << 20


def _row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form, every pivot scaled to 1, as ``Fraction``s."""
    a, pivots = _eliminate(rows)
    heads = [a[r][col] for r, col in enumerate(pivots)] + [1] * (len(a) - len(pivots))
    return [[Fraction(v) / h for v in row] for row, h in zip(a, heads)], pivots


def _primitive(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational into primitive integers."""
    denom = lcm(*(Fraction(v).denominator for v in values)) if values else 1
    ints = [int(Fraction(v) * denom) for v in values]
    g = gcd(*ints) if any(ints) else 1
    return tuple(v // max(g, 1) for v in ints)


def _int_det(matrix) -> int:
    """Fraction-free (Bareiss) determinant of a small integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for c in range(i + 1, n):
                a[j][c] = (a[j][c] * a[i][i] - a[j][i] * a[i][c]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def _hyperplane_normal(diffs, k: int) -> tuple[int, ...] | None:
    """Cofactor normal of the linear hyperplane spanned by k-1 vectors in Z^k (k >= 2).

    Returns None when the vectors do not span a hyperplane.
    """
    normal = []
    for j in range(k):
        minor = [[row[c] for c in range(k) if c != j] for row in diffs]
        normal.append((-1) ** j * _int_det(minor))
    if all(v == 0 for v in normal):
        return None
    return tuple(normal)


def _solve_fraction(matrix, rhs) -> list[Fraction]:
    """Solve a small nonsingular rational system exactly."""
    n = len(rhs)
    a, pivots = _row_reduce([list(row[:n]) + [b] for row, b in zip(matrix, rhs)])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [row[n] for row in a]


class IncrementalAffineFrame:
    """Affine hull of a point set: base point, integer basis, exact coords.

    ``simplex`` holds the indices of dim + 1 affinely independent points:
    the base point and the points whose differences form the basis.
    """

    def __init__(self, points):
        self.base = points[0]
        self.basis: list[tuple[int, ...]] = []
        self.simplex = [0]
        self._reduced: list[tuple[int, list[Fraction]]] = []
        for index, u in enumerate(points[1:], start=1):
            diff = tuple(a - b for a, b in zip(u, self.base))
            rem = self._remainder(diff)
            pivot = next((j for j, v in enumerate(rem) if v != 0), None)
            if pivot is not None:
                inv = 1 / rem[pivot]
                self._reduced.append((pivot, [v * inv for v in rem]))
                self.basis.append(diff)
                self.simplex.append(index)
        self.dim = len(self.basis)
        self._gram = [
            [sum(a * b for a, b in zip(r1, r2)) for r2 in self.basis]
            for r1 in self.basis
        ]

    def _remainder(self, vec) -> list[Fraction]:
        rem = [Fraction(v) for v in vec]
        for pivot, row in self._reduced:
            if rem[pivot] != 0:
                factor = rem[pivot]
                rem = [v - factor * w for v, w in zip(rem, row)]
        return rem

    def spans(self, point: Sequence) -> bool:
        diff = [Fraction(a) - b for a, b in zip(point, self.base)]
        return all(v == 0 for v in self._remainder(diff))

    def coordinates(self, points) -> list[tuple[int, ...]]:
        """Integer coordinates of hull points (common positive rescaling)."""
        k = self.dim
        raw = []
        for u in points:
            diff = [a - b for a, b in zip(u, self.base)]
            rhs = [sum(row[j] * diff[j] for j in range(len(diff))) for row in self.basis]
            raw.append(_solve_fraction(self._gram, rhs) if k else [])
        scale = lcm(*(c.denominator for y in raw for c in y)) if k else 1
        return [tuple(int(c * scale) for c in y) for y in raw]

    def lift_normal(self, w: Sequence[int]) -> tuple[int, ...]:
        """Primitive ambient normal inducing the coordinate functional ``w``."""
        z = _solve_fraction(self._gram, list(w))
        ambient = [
            sum(z[i] * self.basis[i][j] for i in range(self.dim))
            for j in range(len(self.base))
        ]
        return _primitive(ambient)


class GramFrame(_AffineFrame):
    """``_AffineFrame`` with hull coordinates and lifted normals from Gram solves."""

    def _solve(self, columns) -> list[list[tuple[int, int]]]:
        """z with G z = c for each column c, G the Gram matrix of the basis.

        Each z_i comes back as an integer pair (numerator, denominator):
        G is nonsingular, so its pivots lie on the diagonal and are the
        denominators.
        """
        gram = [[_dot(r1, r2) for r2 in self.basis] for r1 in self.basis]
        a, pivots = _eliminate([g + list(c) for g, c in zip(gram, zip(*columns))])
        heads = [row[col] for row, col in zip(a, pivots)]
        return [
            [(row[self.dim + j], head) for row, head in zip(a, heads)]
            for j in range(len(columns))
        ]

    def coordinates(self, points: Sequence[Exponent]) -> list[tuple[int, ...]]:
        """Integer coordinates of hull points (common positive rescaling).

        The scale is the least common denominator of the exact coordinates.
        """
        if not self.dim:
            return [() for _ in points]
        diffs = ([a - b for a, b in zip(u, self.base)] for u in points)
        raw = self._solve([[_dot(row, d) for row in self.basis] for d in diffs])
        scale = lcm(*(abs(d) // gcd(n, d) for z in raw for n, d in z))
        return [tuple(n * scale // d for n, d in z) for z in raw]

    def lift_normals(self, ws: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        """Primitive ambient normals inducing the coordinate functionals ``ws``."""
        out = []
        for z in self._solve(ws):
            scale = lcm(*(abs(d) for _, d in z))
            normal = [
                sum(n * scale // d * b for (n, d), b in zip(z, column))
                for column in zip(*self.basis)
            ]
            g = gcd(*normal) or 1
            out.append(tuple(v // g for v in normal))
        return out


def enumerate_coord_facets(coords: list[tuple[int, ...]], k: int):
    """All facets of conv(coords) in Z^k: list of (coord normal, equality mask).

    Candidates run in ``itertools.combinations`` order, and each facet is
    kept with the normal of the first candidate that spans it.  Under
    ``coords_fit_int64`` the candidates are tried in batches in int64
    (``coord_facets_batched``), otherwise one at a time in Python
    integers (``coord_facets_one_by_one``); both give the same list.
    """
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
    if coords_fit_int64(coords, k):
        return coord_facets_batched(coords, k)
    return coord_facets_one_by_one(coords, k)


def coord_facets_one_by_one(coords: list[tuple[int, ...]], k: int):
    """The candidate search one hyperplane at a time, in Python integers (k >= 2).

    A candidate inside a facet found earlier is skipped: its hyperplane
    is that facet's, or it spans none.
    """
    facets: list[tuple[tuple[int, ...], int]] = []
    facet_masks: list[int] = []
    for combo in itertools.combinations(range(len(coords)), k):
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
        offs = sum(b * wv for b, wv in zip(base, w))
        svals = [sum(c * wv for c, wv in zip(pt, w)) - offs for pt in coords]
        if min(svals) == 0:
            normal = w
        elif max(svals) == 0:
            normal = tuple(-v for v in w)
        else:
            continue
        eq_mask = sum(1 << i for i, v in enumerate(svals) if v == 0)
        facets.append((normal, eq_mask))
        facet_masks.append(eq_mask)
    return facets


def _det_int64(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square int64 matrices, by Laplace expansion."""
    r = a.shape[1]
    if r == 1:
        return a[:, 0, 0]
    rest = a[:, 1:]
    return sum(
        (-1) ** j * a[:, 0, j] * _det_int64(np.delete(rest, j, axis=2)) for j in range(r)
    )


def cofactor_normals(points: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """``_hyperplane_normal`` of every candidate at once, in int64 (zero rows for None).

    ``points`` is (m, k) and ``combos`` (N, k) indices into it; row r is
    the cofactor normal of the k - 1 differences from ``combos[r, 0]``.
    Exact while ``coords_fit_int64`` holds.
    """
    diffs = points[combos[:, 1:]] - points[combos[:, :1]]
    k = points.shape[1]
    return np.stack(
        [(-1) ** j * _det_int64(np.delete(diffs, j, axis=2)) for j in range(k)], axis=1
    )


def coord_facets_batched(coords: list[tuple[int, ...]], k: int):
    """The candidate search in int64 batches of candidates (k >= 2).

    Every candidate's values at every point come from one product per
    batch; a facet is kept from the first candidate that spans it, which
    is the candidate the one-at-a-time search keeps.  Needs
    ``coords_fit_int64``: a cofactor is at most (k - 1)! (2 big)^(k - 1)
    and a value at most k big times that.
    """
    points = np.asarray(coords, dtype=np.int64)
    candidates = itertools.combinations(range(len(coords)), k)
    batch = max(1, BATCH_ENTRIES // len(coords))
    facets: list[tuple[tuple[int, ...], int]] = []
    seen: set[int] = set()
    while True:
        combos = np.array(list(itertools.islice(candidates, batch)), dtype=np.intp)
        if not len(combos):
            return facets
        w = cofactor_normals(points, combos)
        s = w @ points.T - (w * points[combos[:, 0]]).sum(axis=1, keepdims=True)
        lo, hi = s.min(axis=1), s.max(axis=1)
        rows = np.flatnonzero(w.any(axis=1) & ((lo == 0) | (hi == 0)))
        # The first candidate of each tight set, in candidate order.
        _, first = np.unique(s[rows] == 0, axis=0, return_index=True)
        for row in rows[np.sort(first)]:
            eq_mask = sum(1 << int(i) for i in np.flatnonzero(s[row] == 0))
            if eq_mask not in seen:
                seen.add(eq_mask)
                sign = 1 if lo[row] == 0 else -1
                facets.append((tuple(sign * int(v) for v in w[row]), eq_mask))


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


def proper_faces_by_dot_products(polytope) -> tuple[PolytopeFace, ...]:
    """Every proper face, each witness checked against every generator."""
    pts = polytope.points
    facets = []
    for normal, offset in polytope.facets:
        values = [sum(a * b for a, b in zip(normal, p)) for p in pts]
        assert min(values) == offset
        facets.append((normal, offset, sum(1 << i for i, v in enumerate(values) if v == offset)))

    masks = {eq for _, _, eq in facets}
    queue = list(masks)
    while queue:
        current = queue.pop()
        for _, _, eq in facets:
            nxt = current & eq
            if nxt and nxt not in masks:
                masks.add(nxt)
                queue.append(nxt)

    proper = []
    for mask in masks:
        support = tuple(pts[i] for i in range(len(pts)) if mask >> i & 1)
        active = [f for f in facets if mask & f[2] == mask]
        witness = tuple(
            sum(normal[j] for normal, _, _ in active) for j in range(polytope.nvars)
        )
        values = [sum(a * b for a, b in zip(witness, p)) for p in pts]
        value = min(values)
        arg_mask = sum(1 << i for i, v in enumerate(values) if v == value)
        if arg_mask != mask:
            raise RuntimeError("witness normal does not cut its face exactly")
        rank = len(_row_reduce([normal for normal, _, _ in active])[1])
        proper.append(PolytopeFace(support, witness, value, polytope.dim - rank))
    proper.sort(key=lambda f: (f.dim, tuple(sorted(f.support, key=grlex_key))))
    return tuple(proper)


def vertices_by_dot_products(polytope) -> tuple:
    """The points that are 0-dimensional faces, in graded-lex order."""
    if not polytope.facets:
        return polytope.points
    faces = proper_faces_by_dot_products(polytope)
    return tuple(sorted({f.support[0] for f in faces if f.dim == 0}, key=grlex_key))


def facets_by_incremental_frame(points) -> tuple:
    """The facet pairs of conv(points), lifted by ``IncrementalAffineFrame``."""
    frame = IncrementalAffineFrame(list(points))
    if not frame.dim:
        return ()
    coords = frame.coordinates(points)
    facets = []
    for w, _ in newton._hull_coord_facets(coords, frame.dim, frame.simplex):
        normal = frame.lift_normal(w)
        facets.append((normal, min(sum(a * b for a, b in zip(normal, p)) for p in points)))
    return tuple(sorted(facets))


def facets_by_gram_lift(points) -> tuple:
    """The facet pairs of conv(points), lifted by ``GramFrame``."""
    frame = GramFrame(list(points))
    if not frame.dim:
        return ()
    coords = frame.coordinates(points)
    ws = [w for w, _ in newton._hull_coord_facets(coords, frame.dim, frame.simplex)]
    return tuple(
        sorted((normal, min(_dot(normal, p) for p in points)) for normal in frame.lift_normals(ws))
    )


def proper_faces_by_closure(polytope) -> tuple[PolytopeFace, ...]:
    """Every proper face, the facet table's masks closed under intersection.

    The closure starts from the facets' tight masks and the vertices'
    singletons.  A face's dimension is k minus the rank of its active
    facets' normals.  Raises ``FaceEnumerationError`` past the polytope's
    face cap, and ``RuntimeError`` when a face's active tight masks meet
    in more than the face.
    """
    if not polytope.facets:
        return ()
    pts = polytope.points
    table = [(n, o, t) for (n, o), t in zip(polytope.facets, polytope._tight)]
    masks = set(polytope._tight)
    masks.update(1 << pts.index(v) for v in polytope.vertices)
    cap = polytope._face_cap
    queue = list(masks)
    while queue:
        if len(masks) > cap:
            raise FaceEnumerationError(f"more than {cap} faces; raise the cap to proceed")
        current = queue.pop()
        for _, _, tight in table:
            nxt = current & tight
            if nxt and nxt not in masks:
                masks.add(nxt)
                queue.append(nxt)

    proper = []
    for mask in masks:
        active = [f for f in table if mask & f[2] == mask]
        if reduce(and_, (t for _, _, t in active), -1) != mask:
            raise RuntimeError("witness normal does not cut its face exactly")
        normals = [n for n, _, _ in active]
        proper.append(
            PolytopeFace(
                support=tuple(p for i, p in enumerate(pts) if mask >> i & 1),
                witness=tuple(map(sum, zip(*normals))),
                value=sum(o for _, o, _ in active),
                dim=polytope.dim - len(_eliminate(normals)[1]),
            )
        )
    proper.sort(key=lambda f: (f.dim, f.support))
    return tuple(proper)

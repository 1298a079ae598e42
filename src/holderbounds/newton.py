"""Newton polyhedra at infinity and their face combinatorics.

Everything here is exact: generator points are integer exponent
vectors, facet normals are primitive integer vectors, and face
identification uses integer arithmetic only.  Hulls are built inside
the affine hull of the generators by the double-description method:
the facets are the extreme rays of the cone of affine functionals that
are non-negative on every generator, found by adding the generators one
at a time to the cone of a starting simplex.  The work grows with the
number of facets met on the way, not with the C(m, k) candidate
hyperplanes through k of m generators.

Conventions:

* A "Newton polyhedron at infinity" is the convex hull of a support
  together with the origin, so the origin is always a generator.
* A facet pair ``(normal, offset)`` places the polytope inside the
  half-space ``<normal, kappa> >= offset``; the facet itself is the
  equality set.  The support value ``min_support(P, q)`` is therefore
  the offset attained by ``q``.
* A face is "at infinity" when the origin does not lie on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .polysys import (
    Exponent,
    Polynomial,
    PolynomialError,
    PolySystem,
    Rational,
    grlex_key,
    rational_str,
)

DEFAULT_FACE_CAP = 20000


class ZeroPolynomialError(PolynomialError):
    """The zero polynomial has an empty Newton polyhedron."""


class FaceEnumerationError(RuntimeError):
    """Enumeration exceeded the configured cap."""


class DecompositionError(ValueError):
    """A face decomposition request was inconsistent."""


# -- exact linear algebra helpers ------------------------------------------------


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


def _hyperplane_normal(diffs: Sequence[Sequence[int]], k: int) -> tuple[int, ...] | None:
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


def _row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Exact Gauss-Jordan elimination; returns (reduced rows, pivot columns)."""
    a = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
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


def _solve_fraction(matrix, rhs) -> list[Fraction]:
    """Solve a small nonsingular rational system exactly."""
    n = len(rhs)
    a, pivots = _row_reduce([list(row[:n]) + [b] for row, b in zip(matrix, rhs)])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [row[n] for row in a]


def _primitive(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational into primitive integers."""
    denom = lcm(*(Fraction(v).denominator for v in values)) if values else 1
    ints = [int(Fraction(v) * denom) for v in values]
    g = gcd(*ints) if any(ints) else 1
    return tuple(v // max(g, 1) for v in ints)


class _AffineFrame:
    """Affine hull of a point set: base point, integer basis, exact coords.

    ``simplex`` holds the indices of dim + 1 affinely independent points:
    the base point and the points whose differences form the basis.
    """

    def __init__(self, points: Sequence[Exponent]):
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

    def coordinates(self, points: Sequence[Exponent]) -> list[tuple[int, ...]]:
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


# -- hull and face machinery ------------------------------------------------------


def _hull_coord_facets(coords: list[tuple[int, ...]], k: int, simplex: Sequence[int]):
    """Facets of the full-dimensional conv(coords) in Z^k, by double description.

    A facet ``<w, y> >= c`` is an extreme ray h = (w, -c) of the cone
    {h : <h, (y, 1)> >= 0 for every point y}.  The rays start as the
    cofactor normals of the simplex on the k + 1 affinely independent
    points ``simplex``; the other points are then added one at a time
    (Fukuda & Prodon, "Double description method revisited", 1996).  A
    point keeps the rays on its non-negative side and joins each pair of
    rays on opposite sides that are adjacent: their common tight set has
    at least k - 1 points and no third ray is tight on all of it.
    Returns (coordinate normal, equality mask) pairs.
    """
    rows = [(*y, 1) for y in coords]
    rays = []
    for j in simplex:
        h = _hyperplane_normal([rows[i] for i in simplex if i != j], k + 1)
        sign = 1 if _dot(h, rows[j]) > 0 else -1
        rays.append(([sign * v for v in h], sum(1 << i for i in simplex if i != j)))
    for i in sorted(set(range(len(rows))).difference(simplex)):
        bit = 1 << i
        signed = [(h, tight, _dot(h, rows[i])) for h, tight in rays]
        rays = [(h, tight | bit if s == 0 else tight) for h, tight, s in signed if s >= 0]
        masks = [tight for _, tight, _ in signed]
        for hn, zn, sn in (ray for ray in signed if ray[2] < 0):
            for hp, zp, sp in (ray for ray in signed if ray[2] > 0):
                common = zp & zn
                if common.bit_count() < k - 1:
                    continue
                if sum(z & common == common for z in masks) > 2:
                    continue
                h = [sp * b - sn * a for a, b in zip(hp, hn)]
                g = gcd(*h)
                rays.append(([v // g for v in h], common | bit))
    return [(h[:k], tight) for h, tight in rays]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


@dataclass(frozen=True)
class PolytopeFace:
    support: tuple[Exponent, ...]
    witness: tuple[int, ...]
    value: int
    dim: int


@dataclass(frozen=True)
class NewtonPolytope:
    """Convex hull of a monomial support together with the origin."""

    points: tuple[Exponent, ...]
    vertices: tuple[Exponent, ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]
    dim: int
    nvars: int
    _frame: _AffineFrame = field(repr=False, compare=False)
    _proper_faces: tuple[PolytopeFace, ...] = field(repr=False, compare=False)

    def contains(self, point: Sequence) -> bool:
        """Exact membership test for a rational point."""
        if len(point) != self.nvars:
            raise PolynomialError("ambient dimension mismatch")
        if not self._frame.spans(point):
            return False
        if self.dim == 0:
            return all(Fraction(a) == b for a, b in zip(point, self.points[0]))
        return all(
            sum(Fraction(v) * c for v, c in zip(normal, point)) >= offset
            for normal, offset in self.facets
        )


def _affine_rank(points: Sequence[Exponent]) -> int:
    return _AffineFrame(list(points)).dim if points else 0


def _build_polytope(
    generators: Iterable[Exponent], nvars: int, face_cap: int = DEFAULT_FACE_CAP
) -> NewtonPolytope:
    pts = sorted({tuple(int(v) for v in g) for g in generators}, key=grlex_key)
    if not pts:
        raise ZeroPolynomialError("no generator points")
    frame = _AffineFrame(pts)
    k = frame.dim
    if k == 0:
        return NewtonPolytope(
            points=tuple(pts),
            vertices=tuple(pts),
            facets=(),
            dim=0,
            nvars=nvars,
            _frame=frame,
            _proper_faces=(),
        )

    coords = frame.coordinates(pts)
    coord_facets = _hull_coord_facets(coords, k, frame.simplex)

    facets = []
    for w, eq_mask in coord_facets:
        normal = frame.lift_normal(w)
        values = [sum(a * b for a, b in zip(normal, p)) for p in pts]
        offset = min(values)
        mask = sum(1 << i for i, v in enumerate(values) if v == offset)
        if mask != eq_mask:
            normal = tuple(-v for v in normal)
            values = [-v for v in values]
            offset = min(values)
            mask = sum(1 << i for i, v in enumerate(values) if v == offset)
        if mask != eq_mask:
            raise RuntimeError("facet lift mismatch; exact arithmetic invariant broken")
        facets.append((normal, offset, eq_mask))
    # Canonical order, independent of the order the hull inserted points.
    facets.sort()

    # Proper faces: closure of facet equality sets under intersection.
    masks = {eq for _, _, eq in facets}
    queue = list(masks)
    while queue:
        current = queue.pop()
        for _, _, eq in facets:
            nxt = current & eq
            if nxt and nxt not in masks:
                if len(masks) >= face_cap:
                    raise FaceEnumerationError(
                        f"more than {face_cap} faces; raise the cap to proceed"
                    )
                masks.add(nxt)
                queue.append(nxt)

    proper = []
    for mask in masks:
        support = tuple(pts[i] for i in range(len(pts)) if mask >> i & 1)
        active = [f for f in facets if mask & f[2] == mask]
        witness = tuple(
            sum(normal[j] for normal, _, _ in active) for j in range(nvars)
        )
        values = [sum(a * b for a, b in zip(witness, p)) for p in pts]
        value = min(values)
        arg_mask = sum(1 << i for i, v in enumerate(values) if v == value)
        if arg_mask != mask:
            raise RuntimeError("witness normal does not cut its face exactly")
        proper.append(
            PolytopeFace(
                support=support,
                witness=witness,
                value=value,
                dim=_affine_rank(support),
            )
        )
    proper.sort(key=lambda f: (f.dim, tuple(sorted(f.support, key=grlex_key))))

    vertices = sorted(
        {f.support[0] for f in proper if f.dim == 0}, key=grlex_key
    )
    return NewtonPolytope(
        points=tuple(pts),
        vertices=tuple(vertices),
        facets=tuple((n, o) for n, o, _ in facets),
        dim=k,
        nvars=nvars,
        _frame=frame,
        _proper_faces=tuple(proper),
    )


# -- public polytope operations ----------------------------------------------------


def newton_polytope(f: Polynomial, face_cap: int = DEFAULT_FACE_CAP) -> NewtonPolytope:
    """Newton polyhedron at infinity of ``f``: hull of supp(f) and the origin."""
    if f.is_zero:
        raise ZeroPolynomialError(
            "the zero polynomial has empty Newton polyhedron at infinity"
        )
    origin = (0,) * f.nvars
    return _build_polytope(set(f.terms) | {origin}, f.nvars, face_cap)


@dataclass(frozen=True)
class ConvenienceReport:
    convenient: bool
    missing_axes: tuple[int, ...]
    pure_power_degrees: tuple[int | None, ...]


def is_convenient(f: Polynomial) -> ConvenienceReport:
    """Does supp(f) contain a positive pure power of every variable?"""
    if f.is_zero:
        raise ZeroPolynomialError("convenience is undefined for the zero polynomial")
    degrees: list[int | None] = [None] * f.nvars
    for kappa in f.terms:
        live = [j for j, k in enumerate(kappa) if k > 0]
        if len(live) == 1:
            j = live[0]
            if degrees[j] is None or kappa[j] > degrees[j]:
                degrees[j] = kappa[j]
    missing = tuple(j for j, d in enumerate(degrees) if d is None)
    return ConvenienceReport(not missing, missing, tuple(degrees))


def minkowski_sum(
    polytopes: Sequence[NewtonPolytope], face_cap: int = DEFAULT_FACE_CAP
) -> NewtonPolytope:
    """Minkowski sum, reduced to vertex sums pairwise to keep generators small."""
    if not polytopes:
        raise ValueError("need at least one polytope")
    nvars = polytopes[0].nvars
    for p in polytopes[1:]:
        if p.nvars != nvars:
            raise PolynomialError("Minkowski summands live in different dimensions")
    if len(polytopes) == 1:
        return polytopes[0]
    current = polytopes[0]
    for nxt in polytopes[1:]:
        gens = {
            tuple(a + b for a, b in zip(u, v))
            for u in current.vertices
            for v in nxt.vertices
        }
        current = _build_polytope(gens, nvars, face_cap)
    return current


def min_support(polytope: NewtonPolytope, q: Sequence) -> Rational:
    """Support value d(q, P) = min over P of <q, kappa> (exact)."""
    q = [a if isinstance(a, int) else Fraction(a) for a in q]
    return min(_dot(q, p) for p in polytope.points)


def min_face(polytope: NewtonPolytope, q: Sequence) -> tuple[Exponent, ...]:
    """Generator points of the face of P selected by the direction q."""
    q = [a if isinstance(a, int) else Fraction(a) for a in q]
    values = [_dot(q, p) for p in polytope.points]
    low = min(values)
    return tuple(p for p, v in zip(polytope.points, values) if v == low)


@dataclass(frozen=True)
class FaceAtInfinity:
    """A face of a Newton polyhedron that avoids the origin."""

    support_points: tuple[Exponent, ...]
    vertices: tuple[Exponent, ...]
    witness_normal: tuple[int, ...]
    value: int
    dim: int
    decomposition: tuple[tuple[Exponent, ...], ...] | None = None


def all_proper_faces(polytope: NewtonPolytope) -> tuple[PolytopeFace, ...]:
    """Every proper face (any dimension), with witness normal and value."""
    return polytope._proper_faces


def faces_at_infinity(polytope: NewtonPolytope) -> tuple[FaceAtInfinity, ...]:
    """All faces of the polytope that do not contain the origin.

    Output is deduplicated by support set and ordered by dimension then
    graded-lex support, so it is deterministic.
    """
    origin = (0,) * polytope.nvars
    vertex_set = set(polytope.vertices)
    out = []
    for face in polytope._proper_faces:
        if origin in face.support:
            continue
        out.append(
            FaceAtInfinity(
                support_points=face.support,
                vertices=tuple(
                    p for p in face.support if p in vertex_set
                ),
                witness_normal=face.witness,
                value=face.value,
                dim=face.dim,
            )
        )
    return tuple(out)


def decompose_face(
    face: FaceAtInfinity, polytopes: Sequence[NewtonPolytope]
) -> tuple[tuple[Exponent, ...], ...]:
    """Split a face F of P = P_1 + ... + P_p into its unique summand faces.

    Uses the face's witness direction q: the i-th component face is the
    set of generators of P_i minimizing q.  The result is checked
    exactly, without building a hull: F must lie on the hyperplane
    where q attains its minimum over P, every vertex of F must be a sum
    of component-face points, and every such sum must lie in aff(F).
    That suffices: each sum is a point of P on the minimizing hyperplane,
    so a sum inside aff(F) lies in P ∩ aff(F) = F (F is a face of P);
    the sums then span a polytope inside F that contains every vertex of
    F, which is F itself.
    """
    q = face.witness_normal
    parts = [min_face(p, q) for p in polytopes]
    total = sum(_dot(q, part[0]) for part in parts)
    for kappa in face.support_points:
        if _dot(q, kappa) != total:
            raise DecompositionError(
                "witness normal does not support the face on the summed polytope"
            )
    sums = {
        tuple(sum(c) for c in zip(*combo))
        for combo in itertools.product(*parts)
    }
    frame = _AffineFrame(face.support_points)
    if not sums.issuperset(face.vertices) or not all(map(frame.spans, sums)):
        raise DecompositionError("component faces do not sum back to the face")
    return tuple(parts)


# -- whole-system geometry ---------------------------------------------------------


@dataclass(frozen=True)
class SystemGeometry:
    """Per-component polytopes plus the summed polytope and its faces."""

    polytopes: tuple[NewtonPolytope, ...]
    convenience: tuple[ConvenienceReport, ...]
    sum_polytope: NewtonPolytope
    faces: tuple[FaceAtInfinity, ...]

    @property
    def convenient(self) -> bool:
        return all(c.convenient for c in self.convenience)


def analyze_system(
    system: PolySystem, face_cap: int = DEFAULT_FACE_CAP
) -> SystemGeometry:
    """Polytopes, convenience, Minkowski sum, and decomposed faces at infinity."""
    for name, f in zip(system.names, system.polys):
        if f.is_zero:
            raise ZeroPolynomialError(
                f"component {name!r} is identically zero; its Newton polyhedron is empty"
            )
    polytopes = tuple(newton_polytope(f, face_cap) for f in system.polys)
    convenience = tuple(is_convenient(f) for f in system.polys)
    sum_polytope = minkowski_sum(polytopes, face_cap)
    faces = tuple(
        replace(face, decomposition=decompose_face(face, polytopes))
        for face in faces_at_infinity(sum_polytope)
    )
    return SystemGeometry(polytopes, convenience, sum_polytope, faces)


def face_to_json(face: FaceAtInfinity) -> dict:
    """JSON fragment for one face (exact values as rational strings)."""
    payload = {
        "dim": face.dim,
        "support": [list(p) for p in face.support_points],
        "normal": [rational_str(v) for v in face.witness_normal],
        "value": rational_str(face.value),
    }
    if face.decomposition is not None:
        payload["decomposition"] = [
            [list(p) for p in part] for part in face.decomposition
        ]
    return payload

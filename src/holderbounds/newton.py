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

Every face quantity comes from the facet table: each facet's normal,
offset and tight mask (bit i set when generator i lies on the facet),
checked once against every generator when the polytope is built.  A
generator is a vertex when the facets through it meet in it alone.  The
face lattice is graded, so it is walked down from the facets: the faces
of dimension d - 1 inside a face G of dimension d are the maximal proper
intersections of G with the facets, and every face gets its dimension
from its level.  A face's witness is the sum of its active facets'
normals (those through it), its value the sum of their offsets.  That
witness is least exactly on the face: for a generator u,
<sum of n_f, u> = sum of <n_f, u> >= sum of o_f, with equality exactly
on the common tight set, which must be the face's mask.  The lattice is
walked on first use (``all_proper_faces``, ``faces_at_infinity``) and
cached, so ``analyze_system`` walks only the summed polytope's, and
``FaceEnumerationError`` fires then, once the lattice passes the cap.
The summand faces come from the same table: a face's part in P_i is the
AND, over the face's active facets, of P_i's tight mask for each facet
normal.

All exact linear algebra is one fraction-free Gauss-Jordan elimination,
``_eliminate``.  Its pivot columns give ranks (the exact rank test of
``nondegen``) and the affine basis: the first point differences
outside the span of those before them.  Its free columns give
primitive integer null vectors: the equations of the affine hull,
which make hull membership a few integer dot products, and the facet
normals of the starting simplex.  A full-dimensional hull is built on
the points themselves, a lower-dimensional one on the integer points
y = B u, B the basis rows: u -> B u is one to one on the affine hull, so
a facet <w, y> >= c of the image is the facet <B^T w, u> >= c, and
B^T w lies in the span of B, where the primitive normal is unique.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import and_, mul
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


def _eliminate(rows) -> tuple[list[list], list[int]]:
    """Fraction-free Gauss-Jordan elimination; returns (rows, pivot columns).

    Each step replaces row by pivot * row - factor * pivot row, so integer
    rows stay integers; other values are made exact ``Fraction``s first.
    Row r ends with its pivot ``rows[r][pivots[r]]`` as the only nonzero
    entry of that column, and the rows past the rank are zero.  The pivot
    columns are the greedy choice: each is the first column outside the
    span of the columns before it.
    """
    a = [[v if isinstance(v, int) else Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(a[0]) if a else 0):
        top = len(pivots)
        if top == len(a):
            break
        pivot = next((r for r in range(top, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[top], a[pivot] = a[pivot], a[top]
        head = a[top][col]
        for r in range(len(a)):
            if r != top and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [head * v - factor * w for v, w in zip(a[r], a[top])]
        pivots.append(col)
    return a, pivots


def _null_space(rows, width: int) -> list[tuple[int, ...]]:
    """Primitive basis of {x : <row, x> = 0 for every row} of integer rows.

    One vector per non-pivot column f: x_f = lcm of the pivots, and each
    pivot row fixes its own pivot coordinate; the vector is then divided
    by its gcd.
    """
    a, pivots = _eliminate(rows)
    scale = lcm(*(row[col] for row, col in zip(a, pivots)))
    basis = []
    for free in sorted(set(range(width)).difference(pivots)):
        x = [0] * width
        x[free] = scale
        for row, col in zip(a, pivots):
            x[col] = -row[free] * scale // row[col]
        g = gcd(*x)
        basis.append(tuple(v // g for v in x))
    return basis


class _AffineFrame:
    """Affine hull of a point set: base point, integer basis, equations.

    ``simplex`` holds the indices of dim + 1 affinely independent points:
    the base point and the points whose differences form the basis, each
    the first difference outside the span of those before it.  The basis
    rows B are independent, so u -> B u is one to one on the hull.
    ``equations`` is a primitive integer basis of the normals of the hull.
    """

    def __init__(self, points: Sequence[Exponent]):
        self.base = points[0]
        diffs = [tuple(a - b for a, b in zip(u, self.base)) for u in points[1:]]
        pivots = _eliminate(zip(*diffs))[1]
        self.simplex = [0] + [c + 1 for c in pivots]
        self.basis = [diffs[c] for c in pivots]
        self.dim = len(self.basis)
        self.equations = [
            (e, _dot(e, self.base)) for e in _null_space(self.basis, len(self.base))
        ]

    def spans(self, point: Sequence) -> bool:
        q = _exact(point, len(self.base))
        return all(_dot(e, q) == offset for e, offset in self.equations)


# -- hull and face machinery ------------------------------------------------------


def _hull_coord_facets(coords: list[tuple[int, ...]], k: int, simplex: Sequence[int]):
    """Facets of the full-dimensional conv(coords) in Z^k, by double description.

    A facet ``<w, y> >= c`` is an extreme ray h = (w, -c) of the cone
    {h : <h, (y, 1)> >= 0 for every point y}.  The rays start as the
    facets of the simplex on the k + 1 affinely independent points
    ``simplex``, each the null vector of the other k points' rows; the
    other points are then added one at a time
    (Fukuda & Prodon, "Double description method revisited", 1996).  A
    point keeps the rays on its non-negative side and joins each pair of
    rays on opposite sides that are adjacent: their common tight set has
    at least k - 1 points and no third ray is tight on all of it.
    Returns (coordinate normal, equality mask) pairs.
    """
    rows = [(*y, 1) for y in coords]
    rays = []
    for j in simplex:
        (h,) = _null_space([rows[i] for i in simplex if i != j], k + 1)
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


def _exact(point: Sequence, n: int) -> list:
    """``point`` with its non-integer entries as ``Fraction``s; it must have n."""
    if len(point) != n:
        raise PolynomialError("ambient dimension mismatch")
    return [a if isinstance(a, int) else Fraction(a) for a in point]


def _least_mask(points: Sequence[Exponent], q: Sequence) -> int:
    """Bit mask of the points where <q, point> is least."""
    values = [_dot(q, u) for u in points]
    low = min(values)
    return sum(1 << i for i, v in enumerate(values) if v == low)


@dataclass(frozen=True)
class PolytopeFace:
    support: tuple[Exponent, ...]
    witness: tuple[int, ...]
    value: int
    dim: int


@dataclass(frozen=True)
class NewtonPolytope:
    """Convex hull of a monomial support together with the origin.

    ``_tight`` holds each facet's tight mask, aligned with ``facets``: bit
    i is set when ``points[i]`` lies on the facet.  The face lattice is
    walked from this table on first use, under ``_face_cap``.
    """

    points: tuple[Exponent, ...]
    vertices: tuple[Exponent, ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]
    dim: int
    nvars: int
    _frame: _AffineFrame = field(repr=False, compare=False)
    _tight: tuple[int, ...] = field(repr=False, compare=False)
    _face_cap: int = field(repr=False, compare=False)

    @cached_property
    def _lattice(self) -> tuple[tuple[PolytopeFace, int, tuple[int, ...]], ...]:
        return _enumerate_faces(self)

    def contains(self, point: Sequence) -> bool:
        """Exact membership test for a rational point."""
        q = _exact(point, self.nvars)
        return self._frame.spans(q) and all(
            _dot(normal, q) >= offset for normal, offset in self.facets
        )


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
            _tight=(),
            _face_cap=face_cap,
        )

    if k == len(frame.base):
        # Full-dimensional: the points are their own coordinates.
        coord_facets = _hull_coord_facets(pts, k, frame.simplex)
        normals = [w for w, _ in coord_facets]
    else:
        # Flat: the hull of y = B u has P's facets and tight masks, B being
        # one to one on aff(P), and its facet <w, y> >= c is <B^T w, u> >= c.
        coords = [[_dot(b, u) for b in frame.basis] for u in pts]
        coord_facets = _hull_coord_facets(coords, k, frame.simplex)
        normals = [[_dot(w, c) for c in zip(*frame.basis)] for w, _ in coord_facets]
    # Made primitive, a normal is its facet's unique one in the hull's span.
    normals = [tuple(v // gcd(*n) for v in n) for n in normals]
    # Each normal must be least exactly on its facet's tight points.
    if any(_least_mask(pts, n) != t for n, (_, t) in zip(normals, coord_facets)):
        raise RuntimeError("facet table mismatch; exact arithmetic invariant broken")
    # A facet's offset is its normal's value on any tight point.  Canonical
    # order, independent of the order the hull inserted points.
    facets = sorted(
        (normal, _dot(normal, pts[(tight & -tight).bit_length() - 1]), tight)
        for normal, (_, tight) in zip(normals, coord_facets)
    )

    # A point is a vertex when the facets through it meet in it alone.
    meets = [-1] * len(pts)
    for _, _, tight in facets:
        for i in range(len(pts)):
            if tight >> i & 1:
                meets[i] &= tight
    return NewtonPolytope(
        points=tuple(pts),
        vertices=tuple(p for i, p in enumerate(pts) if meets[i] == 1 << i),
        facets=tuple((n, o) for n, o, _ in facets),
        dim=k,
        nvars=nvars,
        _frame=frame,
        _tight=tuple(tight for _, _, tight in facets),
        _face_cap=face_cap,
    )


def _bits(mask: int, points: Sequence[Exponent]) -> tuple[Exponent, ...]:
    """The points whose bits are set in ``mask``, in index order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(points[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def _enumerate_faces(
    polytope: NewtonPolytope,
) -> tuple[tuple[PolytopeFace, int, tuple[int, ...]], ...]:
    """Proper faces, walked down the face lattice from the facets.

    The facets are the faces of dimension k - 1.  The faces of a face G
    are its intersections with the facets, so the faces of dimension
    d - 1 are the maximal proper nonempty masks G & t over the faces G of
    dimension d and the facet tight masks t; the walk needs no rank.  A
    face's witness is the sum of its active facets' normals (those whose
    tight mask contains the face): it is least, at the sum of their
    offsets, exactly on the AND of their tight masks, which must be the
    face itself.  Every mask the walk reaches passes that check by
    construction, and the faces of dimension 0 must be the singletons of
    the vertices found when the polytope was built: a vertex whose facets
    meet in more than itself is not cut exactly by its witness, and the
    walk never reaches its singleton.  Raises ``FaceEnumerationError``
    past the polytope's face cap.  Returns (face, mask, active facets)
    triples, the active facets as indices into ``facets``.
    """
    tights = polytope._tight
    if not tights:
        return ()
    cap = polytope._face_cap
    levels = [set(tights)]
    count = len(levels[0])
    while count <= cap and len(levels) < polytope.dim:
        below = set()
        for face in levels[-1]:
            # A cut contained in a larger cut is no facet of the face.
            cuts = sorted({face & t for t in tights} - {face, 0}, key=int.bit_count, reverse=True)
            kept: list[int] = []
            for cut in cuts:
                if all(cut & g != cut for g in kept):
                    kept.append(cut)
            below.update(kept)
        count += len(below)
        levels.append(below)
    if count > cap:
        raise FaceEnumerationError(f"more than {cap} faces; raise the cap to proceed")
    pts = polytope.points
    if levels[-1] != {1 << pts.index(v) for v in polytope.vertices}:
        raise RuntimeError("witness normal does not cut its face exactly")

    table = [(j, n, o, t) for j, ((n, o), t) in enumerate(zip(polytope.facets, tights))]
    proper = []
    for dim, level in enumerate(reversed(levels)):
        for mask in level:
            active = [f for f in table if mask & f[3] == mask]
            if reduce(and_, (f[3] for f in active), -1) != mask:
                raise RuntimeError("witness normal does not cut its face exactly")
            face = PolytopeFace(
                support=_bits(mask, pts),
                witness=tuple(map(sum, zip(*(f[1] for f in active)))),
                value=sum(f[2] for f in active),
                dim=dim,
            )
            proper.append((face, mask, tuple(f[0] for f in active)))
    # Supports are in graded-lex order, as the points are.
    proper.sort(key=lambda entry: (entry[0].dim, entry[0].support))
    return tuple(proper)


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
    q = _exact(q, polytope.nvars)
    return min(_dot(q, p) for p in polytope.points)


def min_face(polytope: NewtonPolytope, q: Sequence) -> tuple[Exponent, ...]:
    """Generator points of the face of P selected by the direction q."""
    q = _exact(q, polytope.nvars)
    return _bits(_least_mask(polytope.points, q), polytope.points)


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
    return tuple(face for face, _, _ in polytope._lattice)


def _lattice_at_infinity(polytope: NewtonPolytope):
    """(face, vertices, active facets) of each proper face avoiding the origin."""
    pts = polytope.points
    origin = (0,) * polytope.nvars
    origin_bit = 1 if pts[0] == origin else 0  # graded-lex order puts it first
    vertex_bits = sum(1 << pts.index(v) for v in polytope.vertices)
    for face, mask, active in polytope._lattice:
        if not mask & origin_bit:
            yield face, _bits(mask & vertex_bits, pts), active


def faces_at_infinity(polytope: NewtonPolytope) -> tuple[FaceAtInfinity, ...]:
    """All faces of the polytope that do not contain the origin.

    Output is deduplicated by support set and ordered by dimension then
    graded-lex support, so it is deterministic.
    """
    return tuple(
        FaceAtInfinity(face.support, vertices, face.witness, face.value, face.dim)
        for face, vertices, _ in _lattice_at_infinity(polytope)
    )


def _check_summands(
    q: Sequence[int],
    support: Sequence[Exponent],
    vertices: Sequence[Exponent],
    parts: Sequence[Sequence[Exponent]],
) -> None:
    """Raise ``DecompositionError`` unless ``parts`` sum to the face ``support``.

    ``q`` is the face's witness.  The check is exact and builds no hull:
    the face must lie on the hyperplane where q attains its minimum over
    P, every vertex of the face must be a sum of part points, and every
    such sum must lie in the face's affine hull.  That suffices: each
    sum is a point of P on the minimizing hyperplane, so a sum inside
    aff(F) lies in P ∩ aff(F) = F (F is a face of P); the sums then span
    a polytope inside F that contains every vertex of F, which is F
    itself.
    """
    total = sum(_dot(q, part[0]) for part in parts)
    for kappa in support:
        if _dot(q, kappa) != total:
            raise DecompositionError(
                "witness normal does not support the face on the summed polytope"
            )
    sums = {
        tuple(sum(c) for c in zip(*combo))
        for combo in itertools.product(*parts)
    }
    # A support point of F lies in aff(F); only the other sums need a frame.
    outside = sums.difference(support)
    if not sums.issuperset(vertices) or (
        outside and not all(map(_AffineFrame(support).spans, outside))
    ):
        raise DecompositionError("component faces do not sum back to the face")


def decompose_face(
    face: FaceAtInfinity, polytopes: Sequence[NewtonPolytope]
) -> tuple[tuple[Exponent, ...], ...]:
    """Split a face F of P = P_1 + ... + P_p into its unique summand faces.

    Uses the face's witness direction q: the i-th component face is the
    set of generators of P_i minimizing q.  The result passes the exact
    check of ``_check_summands``.  ``analyze_system`` finds the same
    parts from the facet table instead, for every face at once.
    """
    q = face.witness_normal
    parts = tuple(min_face(p, q) for p in polytopes)
    _check_summands(q, face.support_points, face.vertices, parts)
    return parts


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
    """Polytopes, convenience, Minkowski sum, and decomposed faces at infinity.

    A face's summand faces come from the facet table, not from a search
    per face: for each facet normal n_t of the sum, P_i's tight mask (the
    generators where n_t is least on P_i) is computed once, and the part
    in P_i of a face is the AND of those masks over the face's active
    facets.  That is ``min_face(P_i, q)`` for the witness q, the sum of
    the active normals: every vertex of the face is a sum of component
    vertices that each minimize every active normal, so the AND is
    nonempty, and on it q attains the sum of the least values.  Each
    face passes the exact check ``decompose_face`` runs.
    """
    for name, f in zip(system.names, system.polys):
        if f.is_zero:
            raise ZeroPolynomialError(
                f"component {name!r} is identically zero; its Newton polyhedron is empty"
            )
    polytopes = tuple(newton_polytope(f, face_cap) for f in system.polys)
    convenience = tuple(is_convenient(f) for f in system.polys)
    sum_polytope = minkowski_sum(polytopes, face_cap)
    tables = [
        (P.points, [_least_mask(P.points, normal) for normal, _ in sum_polytope.facets])
        for P in polytopes
    ]
    faces = []
    for face, vertices, active in _lattice_at_infinity(sum_polytope):
        parts = [
            _bits(reduce(and_, (masks[j] for j in active)), points) for points, masks in tables
        ]
        _check_summands(face.witness, face.support, vertices, parts)
        faces.append(
            FaceAtInfinity(
                face.support, vertices, face.witness, face.value, face.dim, tuple(parts)
            )
        )
    return SystemGeometry(polytopes, convenience, sum_polytope, tuple(faces))


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

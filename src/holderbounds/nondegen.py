"""Certification of non-degeneracy at infinity.

For each face of the summed Newton polyhedron the rank-test matrix is
the p x (n+p) polynomial matrix whose row i holds the torus-weighted
partials ``x_j * d f_i_face / d x_j`` followed by the principal part
``f_i_face`` in column n+i (zeros elsewhere).  The map is degenerate at
infinity exactly when some face admits a point with all coordinates
nonzero at which this matrix drops rank.

Rank deficiency is searched numerically through the sum of squared
maximal minors, normalised by per-row monomial gauges to remove the
quasi-homogeneous scale freedom.  By Cauchy-Binet that sum equals
det(M M^T), which is evaluated as the product of the squared residual
norms that modified Gram-Schmidt leaves on the p rows: one p-step loop
instead of C(n+p, p) determinants, and not ``det(M @ M.T)``, whose
squared condition number leaves roundoff near 1e-13 (some of it
negative) where Gram-Schmidt gives about 1e-29 at exactly
rank-deficient points.

The search is coordinate-major: points are the columns of an (n, m)
array and a matrix row is an (n + p, m) array, so each per-point dot
product or norm over n + p (or n) entries is a few multiply-adds of
m-vectors, where a point-major ``sum(axis=1)`` over a row that short is
slow.  ``_row_sum`` groups those adds as numpy groups a sum along a
contiguous row, and every other step is elementwise, so each objective,
projection and descent step has the bits the point-major layout gave.
Every array pass counts at the batch sizes of the search (a few hundred
to a few thousand points), so each evaluation gathers every row's
monomials from one power ladder, and the descent's face masks last as
long as its live set.

Each face is sampled from its own random stream, in one stage per
``tau_axis`` floor, one face and stage at a time.  Then one batched
coordinate descent runs the best samples of every stage of every face
together, each row under its own face and stage floor, and a row leaves
the batch once it sits at its fixed point.  One evaluator serves every
face: per row index, one compiled map over the union of the faces'
supports with a 0/1 mask per face.  A row's value and trajectory do not
depend on the rows or faces beside it, so this finds what one descent per
face and stage would, with a fraction of the per-call numpy overhead;
``certify_face`` is the one-face case of the same search.

Faces of dimension 0 and 1 are first decided in closed form (Sturm
counts as in Basu, Pollack and Roy, *Algorithms in Real Algebraic
Geometry*, ch. 2).  On a vertex each principal part is a monomial
c_i x^{kappa_i} and the normalised objective is the constant
prod c_i^2 det(I_p + K K^T), K with rows kappa_i, at least prod c_i^2.
On an edge with primitive direction v the objective depends on t = x^v
alone, as G(t) / H(|t|)^2 with G = det(R R^T) in Q[t] and H the product
of the row gauges' unit-coefficient sums (see ``_edge_polynomials``).
The rank drops on the torus exactly where G has a real root t != 0, and a
Sturm count of G and of G(-t) on (0, inf) rules that out.  Then the
minimum is the least of G's limits at 0 and infinity and of G / H^2 at
its critical points, the positive roots of G'H - 2GH', in ``Fraction``s.
A face decided so is "nondegenerate_probable" with ``method`` "exact"
and no samples, whatever its minimum.  Every other face (dimension 2 or
more, a vanishing principal part or a real root of G) goes to the search
under its own index, so it draws the stream and gets the certificate it
would alone.

A reported "degenerate" verdict comes with a witness point; when the
witness rounds to a nearby rational point at which the matrix drops rank
in exact arithmetic the verdict is exact, otherwise it is numerical with
the achieved objective.  A "nondegenerate_probable" verdict from the
search is evidence, not proof: sampling plus local descent, never a
positivity certificate.  An exact one rests on an exact Sturm count; its
minimum is rounded to a float, inf past the float range and 0.0 below
it.  A searched face whose every sample's objective overflowed is
"inconclusive" with reason "overflow".
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Sequence

import numpy as np

from .evaluator import ValueOverflowError, _CompiledMap, _einsum
from .newton import FaceAtInfinity, SystemGeometry, _eliminate, analyze_system
from .polysys import Exponent, Polynomial, PolySystem, principal_part, rational_str


class MissingDecompositionError(ValueError):
    """The face carries no summand decomposition."""


@dataclass(frozen=True)
class MDeltaMatrix:
    """Exact rank-test matrix attached to one face at infinity."""

    entries: tuple[tuple[Polynomial, ...], ...]
    face: FaceAtInfinity
    weights: tuple[int, ...]
    weighted_degrees: tuple[int, ...]
    n: int
    p: int


def build_m_delta(system: PolySystem, face: FaceAtInfinity) -> MDeltaMatrix:
    """Assemble the rank-test matrix for ``face`` (needs a decomposition)."""
    if face.decomposition is None:
        raise MissingDecompositionError(
            "face has no summand decomposition; run analyze_system first"
        )
    if len(face.decomposition) != system.p:
        raise MissingDecompositionError(
            "decomposition length does not match the system"
        )
    n, p = system.n, system.p
    q = face.witness_normal
    rows = []
    degrees = []
    for i, (f, delta) in enumerate(zip(system.polys, face.decomposition)):
        fd = principal_part(f, delta)
        degrees.append(sum(a * b for a, b in zip(q, delta[0])))
        row = [fd.euler_term(j) for j in range(n)]
        row.extend(
            fd if t == i else Polynomial.zero(n) for t in range(p)
        )
        rows.append(tuple(row))
    return MDeltaMatrix(
        entries=tuple(rows),
        face=face,
        weights=tuple(q),
        weighted_degrees=tuple(degrees),
        n=n,
        p=p,
    )


def euler_defects(matrix: MDeltaMatrix) -> tuple[Polynomial, ...]:
    """Per row: sum_j q_j (x_j df/dx_j) - d_i f, identically zero by
    quasi-homogeneity of the principal parts."""
    out = []
    for i, row in enumerate(matrix.entries):
        acc = Polynomial.zero(matrix.n)
        for j in range(matrix.n):
            acc = acc + matrix.weights[j] * row[j]
        acc = acc - matrix.weighted_degrees[i] * row[matrix.n + i]
        out.append(acc)
    return tuple(out)


# Points per rank-test evaluation; a larger batch is evaluated in chunks,
# which changes no bit, since every point is evaluated on its own.
_BATCH_ROWS = 8192


class _RankTest:
    """Vectorised float evaluation of the matrices of several faces.

    Row i of every face's matrix lives on the support of f_i's principal
    part on that face, a sub-sum of f_i.  So row i is one compiled map
    over the union of those supports: its n + p entries, the Euler terms
    x_j * d f_i / d x_j, then f_i in column n + i and zero elsewhere.  A
    0/1 mask per face keeps that face's monomials.  A masked monomial
    adds an exact zero to sums taken in support order, so a face's
    entries and gauges have the same bits as on its own support,
    whichever faces share the evaluator or the batch.  Points are the
    columns of an (n, m) coordinate array and carry the index of their
    face.

    An evaluation gathers row i's monomials, rows ``_bounds[i]:_bounds[i + 1]``
    of one table, from one power ladder, and masks them by ``select``'s columns.
    """

    def __init__(self, matrices: Sequence[MDeltaMatrix]):
        self.n, self.p = matrices[0].n, matrices[0].p
        # parts[face][i] is the principal part of f_i on the face.
        parts = [[m.entries[i][self.n + i] for i in range(self.p)] for m in matrices]
        unions = [
            Polynomial({k: c for face in parts for k, c in face[i].terms.items()}, self.n)
            for i in range(self.p)
        ]
        zero = Polynomial.zero(self.n)
        self.rows = [
            _CompiledMap(
                [union.euler_term(j) for j in range(self.n)]
                + [union if t == i else zero for t in range(self.p)],
                self.n,
            )
            for i, union in enumerate(unions)
        ]
        self._monomials = _CompiledMap(unions, self.n)
        slot = {kappa: k for k, kappa in enumerate(map(tuple, self._monomials.exps.tolist()))}
        supports = [[tuple(kappa) for kappa in row.exps.tolist()] for row in self.rows]
        self._bounds = np.cumsum([0] + [len(support) for support in supports]).tolist()
        self._flat = self._monomials._flat[:, [slot[kappa] for support in supports for kappa in support]]
        # _mask[k, face] is 1.0 where gathered monomial k is on the face.
        mask = [[float(k in face[i].terms) for face in parts] for i, s in enumerate(supports) for k in s]
        self._mask = np.array(mask).reshape(self._flat.shape[1], len(parts))
        # A vanishing principal part forces rank < p outright.
        self.zero_row = np.array([any(not part.terms for part in face) for face in parts])

    def select(self, faces) -> tuple[np.ndarray, np.ndarray | None]:
        """The mask columns and zero-row flags (None if none is set) of ``faces``."""
        faces = np.atleast_1d(faces)
        zero = self.zero_row[faces]
        return np.take(self._mask, faces, axis=1), zero if zero.any() else None

    def _evaluate(self, X: np.ndarray, mask: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """The rows of the matrices at the points X, each (n + p, m), and
        the squared product of the row gauges.

        The gauge g_i(x) = sum over supp(f_i_face) of |x^kappa| bounds
        every entry of row i up to a constant, so every maximal minor is
        bounded by a constant times prod_i g_i; dividing the objective by
        prod_i g_i^2 removes per-row scale.  On a monomial row the ratio is
        exactly invariant under all coordinate scalings, so sliding toward
        a coordinate hyperplane (which never leaves the full-rank locus)
        cannot masquerade as degeneracy.
        """
        table = self._monomials.table(X, self._flat)
        table *= mask
        magnitude = np.abs(table)
        # The gauge adds its monomials one after another, so that a masked
        # zero never regroups the sum: np.add.reduce does over the first
        # axis of more than one point (see ``_ordered_sum``).
        gauge = np.add.reduce if X.shape[1] > 1 else _ordered_sum
        rows = []
        scale = 1.0
        for row, lo, hi in zip(self.rows, self._bounds, self._bounds[1:]):
            rows.append(_einsum("km,kj->jm", table[lo:hi], row._weights))
            scale = scale * gauge(magnitude[lo:hi]) ** 2
        return rows, scale

    def matrices(self, X: np.ndarray, faces=0) -> np.ndarray:
        """The (p, n + p, m) matrices at the points X."""
        return np.stack(self._evaluate(np.asarray(X, dtype=float), self.select(faces)[0])[0])

    def raw_objective(self, X: np.ndarray, faces=0) -> np.ndarray:
        return _gram_determinant(self._evaluate(np.asarray(X, dtype=float), self.select(faces)[0])[0])

    def normalized(self, X: np.ndarray, faces=0, masks=None) -> np.ndarray:
        """Minor objective divided by the squared product of row gauges.

        X holds one point per column; ``faces`` is one face index for
        every point, or one per point, or ``masks`` is ``select(faces)``.
        """
        X = np.asarray(X, dtype=float)
        mask, zero = self.select(faces) if masks is None else masks
        if zero is not None and zero.all():
            # Faces with a vanishing principal part read 0 at every point.
            return np.zeros(X.shape[1])
        out = np.empty(X.shape[1])
        for start in range(0, X.shape[1], _BATCH_ROWS):
            cols = slice(start, start + _BATCH_ROWS)
            rows, scale = self._evaluate(X[:, cols], mask[:, cols] if mask.shape[1] > 1 else mask)
            det = _gram_determinant(rows)
            if zero is not None:
                det, scale = np.where(zero[cols], 0.0, det), np.where(zero[cols], 1.0, scale)
            np.divide(det, scale, out=out[cols])
        return out


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis, 0.0 plus one term after another.

    ``np.add.reduce`` over the first axis of a C-contiguous array adds
    that way when each term holds two or more values; over single values,
    or along the smallest stride, it adds pairwise.
    """
    if terms.flags.c_contiguous and math.prod(terms.shape[1:]) > 1:
        return np.add.reduce(terms, axis=0)
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total += term
    return total


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis, with the bits ``np.sum`` gives along a
    contiguous last axis: the sum of k terms at each point, as vector adds.

    numpy adds a row's pairwise sum to 0.0.  Fewer than 8 terms it adds
    one after another.  From 8 to 128 it keeps 8 accumulators (term t goes
    to accumulator t mod 8 up to the last full block of 8), combines them
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and adds the rest
    one at a time; past 128 it adds the pairwise sums of the two halves,
    split at half the terms rounded down to a multiple of 8.
    """
    k = terms.shape[0]
    if k < 8:
        return _ordered_sum(terms)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _row_sum(terms[:half]) + _row_sum(terms[half:])
    stop = k - k % 8
    r = terms[:8].copy()
    for block in range(8, stop, 8):
        r += terms[block : block + 8]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for term in terms[stop:]:
        total += term
    # 0.0 + total: only -0.0 changes, to 0.0.
    return total + 0.0


def _gram_determinant(rows: Sequence[np.ndarray]) -> np.ndarray:
    """det(M M^T) per point, as the product of squared Gram-Schmidt residuals.

    ``rows`` are the p rows of the matrices, each an (n + p, m) array,
    which it overwrites.  Every dot product and norm over the n + p
    columns is a ``_row_sum`` of m-vectors.  Each row is reduced in place
    against the unit residuals before it, through one product buffer; a
    zero residual's unit vector is zero.
    """
    p = len(rows)
    product = np.empty(rows[0].shape)
    # Below 8 terms _row_sum is _ordered_sum: np.add.reduce over more than one point.
    total = np.add.reduce if product.shape[0] < 8 and product.shape[1] > 1 else _row_sum
    for i, v in enumerate(rows):
        for q in rows[:i]:
            d = total(np.multiply(v, q, out=product))
            v -= np.multiply(d, q, out=product)
        norm2 = total(np.multiply(v, v, out=product))
        det = norm2 if i == 0 else det * norm2
        if i < p - 1:
            # v becomes its unit residual.
            norm = np.sqrt(norm2)
            positive = norm > 0
            if positive.all():
                v /= norm
            else:
                np.divide(v, np.where(positive, norm, 1.0), out=v)
                v[:, ~positive] = 0.0
    return det


def minor_norm_objective(matrix: MDeltaMatrix, x: Sequence[float]) -> float:
    """Sum over all p x p minors of minor(x)^2; zero iff the rank drops at x."""
    return float(_RankTest((matrix,)).raw_objective(np.asarray(x, dtype=float)[:, None])[0])


def normalized_minor_objective(matrix: MDeltaMatrix, x: Sequence[float]) -> float:
    """Scale-free minor objective: raw objective over squared row gauges."""
    return float(_RankTest((matrix,)).normalized(np.asarray(x, dtype=float)[:, None])[0])


# -- search ------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyConfig:
    samples: int = 4096
    tau_zero: float = 1e-12
    tau_axis_schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3)
    # A numerical witness only counts as degenerate when it sits this far
    # from every coordinate hyperplane; objective dips pinned against the
    # tau_axis floor are ambiguous and reported inconclusive instead.
    witness_floor: float = 0.05
    multistarts: int = 16
    descent_iters: int = 200
    seed: int = 42

    def __post_init__(self):
        if not self.tau_axis_schedule:
            raise ValueError("tau_axis_schedule needs at least one floor")
        if not all(0 < tau < 1 for tau in self.tau_axis_schedule):
            raise ValueError(
                f"tau_axis_schedule floors must lie in (0, 1), got {self.tau_axis_schedule}"
            )
        if not (math.isfinite(self.tau_zero) and self.tau_zero > 0):
            raise ValueError(f"tau_zero must be finite and positive, got {self.tau_zero}")
        # NaN would turn every numerical witness inconclusive, and a
        # negative floor would call every one interior.
        if not 0 <= self.witness_floor < 1:
            raise ValueError(f"witness_floor must be finite and in [0, 1), got {self.witness_floor}")
        for name in ("samples", "multistarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.descent_iters < 0:
            raise ValueError(f"descent_iters must be non-negative, got {self.descent_iters}")


@dataclass(frozen=True)
class FaceCertificate:
    face_index: int
    support: tuple[Exponent, ...]
    status: str
    objective_min: float
    witness: tuple[float, ...] | None
    witness_exact: tuple[str, ...] | None
    samples: int
    seed: int
    # "exact" when decided in closed form, "search" when sampled and descended.
    method: str = "search"
    # Why an inconclusive face is inconclusive: "axis_floor", "objective_band"
    # or "overflow" (every sampled objective overflowed).
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "face": self.face_index,
            "status": self.status,
            "method": self.method,
            "reason": self.reason,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_exact": list(self.witness_exact)
            if self.witness_exact is not None
            else None,
            # JSON has no inf: a minimum past the float range is null.
            "objective_min": self.objective_min if math.isfinite(self.objective_min) else None,
            "samples": self.samples,
            "seed": self.seed,
            "support": [list(p) for p in self.support],
        }


@dataclass(frozen=True)
class NondegVerdict:
    status: str
    faces: tuple[FaceCertificate, ...]
    convenient: bool
    missing_axes: tuple[tuple[int, ...], ...]
    seed: int

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "convenient": self.convenient,
            "missing_axes": [list(m) for m in self.missing_axes],
            "seed": self.seed,
            "faces": [f.to_json() for f in self.faces],
        }


def _project_torus(Y: np.ndarray, tau_axis: float | np.ndarray) -> np.ndarray:
    """Points pushed off the coordinate hyperplanes to ``tau_axis``, with
    their norms clipped into [0.5, 2]; Y[j] holds coordinate j of every
    point, in an array of any shape."""
    return _shell(_off_axes(Y, tau_axis), tau_axis)


def _off_axes(Y: np.ndarray, tau_axis) -> np.ndarray:
    """sign(y) max(|y|, tau_axis) for every coordinate y, where -0.0 counts
    as positive: max(y, tau_axis) or min(y, -tau_axis)."""
    return np.where(Y >= 0, np.maximum(Y, tau_axis), np.minimum(Y, -tau_axis))


def _shell(Y: np.ndarray, tau_axis) -> np.ndarray:
    """Points already off the hyperplanes with their norms clipped into
    [0.5, 2], and pushed off again where that rescaling brought a
    coordinate under the floor.

    A point whose norm is at most 2 is scaled by 1 or more, so it stays
    off the hyperplanes, and only the others are pushed again.
    """
    norms = np.sqrt(_row_sum(Y * Y))
    # A NaN norm is not inside, and is pushed too.
    inside = norms <= 2.0
    if inside.all() and (norms >= 0.5).all():
        return Y  # every factor is exactly 1
    # np.clip(norms, 0.5, 2.0), without its wrapper's microseconds per call.
    Y = Y * (np.minimum(np.maximum(norms, 0.5), 2.0) / norms)
    if not inside.all():
        far = ~inside
        Y[:, far] = _off_axes(Y[:, far], np.broadcast_to(tau_axis, far.shape)[far])
    return Y


def _descend(comp: _RankTest, starts: np.ndarray, tau_axis, iters: int, faces=0):
    """Batch adaptive-step coordinate descent with an axis-avoidance floor.

    ``starts`` holds one point per row, ``tau_axis`` is a scalar or a
    per-row column of shape (rows, 1), and ``faces`` a face index or one
    per row; the points come back one per row.  Every row descends on its
    own: its trajectory does not depend on which rows share the batch.
    Each iteration proposes, for every live row, a step up and a step
    down along each coordinate, projects them and moves to the best
    proposal if it improves.  A row leaves the live set at a fixed point:
    at 0, which no objective improves on, or failing to improve with its
    step at the 1e-12 floor.  The descent ends when no row is live or
    after ``iters`` iterations.

    The live rows' state, their faces' masks and the slots of their moves
    are rebuilt only when a row leaves.  A live point is already off the
    hyperplanes, so a proposal needs only its moved coordinate pushed off.
    """
    floor = np.broadcast_to(tau_axis, (starts.shape[0], 1))[:, 0]
    faces = np.broadcast_to(faces, starts.shape[:1])
    X = _project_torus(np.ascontiguousarray(starts, dtype=float).T, floor)
    vals = comp.normalized(X, faces)
    n = comp.n
    axes, up_down = np.arange(n)[:, None], np.array([1.0, -1.0])[:, None, None]
    # No objective is negative, so a row at 0 (or NaN) can never improve.
    live = np.flatnonzero(vals > 0)
    x, val, step, tau = X[:, live], vals[live], np.full(live.size, 0.25), floor[live]
    first = np.zeros(0)
    for _ in range(iters):
        if live.size == 0:
            break
        if first.size != live.size:
            # A new live set.  Column first[r] + 2j + s of the proposals is
            # proposal 2j + s of live row r; its coordinate j is entry slots[s, j, r].
            first = 2 * n * np.arange(live.size)
            slots = np.arange(2)[:, None, None] + (2 * n * live.size + 2) * axes + first
            masks = comp.select(np.repeat(faces[live], 2 * n))
        # Proposal 2j (2j + 1) of a live row moves its coordinate j up
        # (down) by its step.
        proposals = x.repeat(2 * n, axis=1)
        np.put(proposals, slots, _off_axes(x + step * up_down, tau))
        proposals = _shell(proposals.reshape(n, live.size, 2 * n), tau[:, None]).reshape(n, -1)
        cand = comp.normalized(proposals, masks=masks)
        # An objective is never -0.0, so this is the row minimum but for
        # the payload of a NaN, which never improves.
        pick = first + cand.reshape(live.size, 2 * n).argmin(axis=1)
        best = cand.take(pick)
        improved = best < val
        x = np.where(improved, proposals.take(pick, axis=1), x)
        val = np.where(improved, best, val)
        stay = (improved | (step > 1e-12)) & (val > 0)
        step = np.maximum(step * np.where(improved, 1.4, 0.6), 1e-12)
        if not stay.all():
            X[:, live], vals[live] = x, val
            live = live[stay]
            x, val, step, tau = x[:, stay], val[stay], step[stay], tau[stay]
    X[:, live], vals[live] = x, val
    return X.T, vals


def exact_rank_deficient(matrix: MDeltaMatrix, point: Sequence[Fraction]) -> bool:
    """Exact-rational check that the matrix drops rank at ``point``."""
    rows = [[e.evaluate(point) for e in row] for row in matrix.entries]
    return len(_eliminate(rows)[1]) < matrix.p


def _try_exact_witness(matrix: MDeltaMatrix, x: np.ndarray):
    for den in (1, 2, 4, 8, 10, 100, 1000, 10**4):
        cand = tuple(Fraction(float(v)).limit_denominator(den) for v in x)
        if any(c == 0 for c in cand):
            continue
        if exact_rank_deficient(matrix, cand):
            return cand
    return None


# -- closed form on vertices and edges ---------------------------------------------
#
# A polynomial in one variable t is the list of its coefficients, constant
# term first; the empty list is zero.


def _padd(a: list, b: list) -> list:
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]


def _pmul(a: list, b: list) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pdot(a: list[list], b: list[list]) -> list:
    """Sum of the products of two rows of polynomials, entry by entry."""
    out = []
    for x, y in zip(a, b):
        out = _padd(out, _pmul(x, y))
    return out


def _pderiv(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def _ptrim(a: list) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _pdet(rows: list[list[list]]) -> list:
    """Determinant of a square matrix of polynomials: Laplace expansion
    along each row in turn, keeping every minor of the rows so far by its
    column set, so p rows cost p 2^(p-1) products rather than p!."""
    minors = {(): [1]}
    for row in rows:
        wider = {}
        for cols, minor in minors.items():
            for c, entry in enumerate(row):
                if c not in cols and entry:
                    # Column c sits after the columns of ``cols`` below it.
                    term = _pmul(entry, minor)
                    if sum(d > c for d in cols) % 2:
                        term = [-v for v in term]
                    key = tuple(sorted(cols + (c,)))
                    wider[key] = _padd(wider.get(key, []), term)
        minors = wider
    return _ptrim(minors.get(tuple(range(len(rows))), []))


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with |lc(b)|^k a = q b + r and deg r < deg b, in integers:
    positive multiples of the quotient and remainder of a by b."""
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    m, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) >= len(b):
        f = sign * r[-1]
        q = [m * c for c in q]
        q[len(r) - len(b)] += f
        r = [m * c for c in r]
        for k, c in enumerate(b, len(r) - len(b)):
            r[k] -= f * c
        r.pop()
    return q, _ptrim(r)


class _Sturm:
    """Sturm sequence of a nonzero polynomial with exact coefficients, for
    counting and isolating its distinct roots on (0, inf).

    The coefficients are scaled to integers and a factor t^k is divided
    out, so 0 is not a root.  The sequence is P, P', -rem(P, P'), ...,
    each remainder a positive multiple of the true one over its content,
    which keeps every sign.  With V(t) its sign changes at t, P has
    V(a) - V(b) distinct roots in (a, b) when neither a nor b is a root
    of P, whether or not P is square-free (Basu, Pollack and Roy,
    *Algorithms in Real Algebraic Geometry*, ch. 2).
    """

    def __init__(self, poly: list):
        p = _ptrim(poly)
        while p[0] == 0:
            p = p[1:]
        scale = math.lcm(*(Fraction(c).denominator for c in p))
        p = [int(c * scale) for c in p]
        self.seq, r = [p], _pderiv(p)
        while r:
            content = math.gcd(*r)
            self.seq.append([c // content for c in r])
            r = [-c for c in _pseudo_divmod(self.seq[-2], self.seq[-1])[1]]
        # Cauchy's bound: every root has |t| < 1 + max |a_k| / |a_deg| <= bound.
        self.bound = 2 + max(map(abs, p[:-1]), default=0) // abs(p[-1])

    @staticmethod
    def sign(q: list[int], t: Fraction | None = None) -> int:
        """The sign of q at t, from q(t) den(t)^deg q in integers, or at
        +inf when t is None."""
        value = q[-1]
        if t is not None:
            power = 1
            for c in reversed(q[:-1]):
                power *= t.denominator
                value = value * t.numerator + c * power
        return (value > 0) - (value < 0)

    def changes(self, t: Fraction | None = None) -> int:
        """Sign changes of the sequence at t, or at +inf when t is None."""
        signs = [v for v in (self.sign(q, t) for q in self.seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def positive_count(self) -> int:
        return self.changes(Fraction(0)) - self.changes()

    def positive_roots(self) -> list[float]:
        """The distinct roots on (0, inf), to double precision.

        Intervals are halved at rational points that are not roots until
        each holds one root.  There the square-free part P / gcd(P, P')
        (the sequence ends in that gcd) changes sign, and is bisected in
        floats.
        """
        free = _pseudo_divmod(self.seq[0], self.seq[-1])[0]
        top = max(map(abs, free))
        coeffs = [c / top for c in reversed(free)]
        roots = []
        low, high = Fraction(0), Fraction(self.bound)
        stack = [(low, self.changes(low), high, self.changes(high))]
        while stack:
            a, va, b, vb = stack.pop()
            if va - vb == 1:
                lo, hi, above = float(a), float(b), self.sign(free, b)
                while lo < (mid := (lo + hi) / 2) < hi:
                    value = 0.0
                    for c in coeffs:
                        value = value * mid + c
                    lo, hi = (lo, mid) if (value > 0) == (above > 0) else (mid, hi)
                roots.append(mid)
            elif va - vb > 1:
                mid = (a + b) / 2
                while self.sign(free, mid) == 0:
                    mid = (a + mid) / 2
                vm = self.changes(mid)
                stack += [(a, va, mid, vm), (mid, vm, b, vb)]
        return roots


def _edge_polynomials(matrix: MDeltaMatrix):
    """(G, H, v) on a face of dimension 0 or 1 whose principal parts are
    all nonzero; None on any other face.

    On an edge with primitive direction v, f_i_face = x^{a_i} g_i(t) with
    t = x^v and g_i(0) != 0, so row i of the matrix is x^{a_i} times
    R_i = [a_i g_i + v t g_i' | g_i e_i], and every gauge is |x^{a_i}|
    times sum over supp(g_i) of |t|^s.  The objective is then
    G(t) / H(|t|)^2 with G = det(R R^T) and H the product of those sums.
    On a vertex every g_i is a constant c_i and v plays no part:
    G = prod c_i^2 det(I_p + K K^T), with the vertex exponents as rows of K.
    """
    n, p, face = matrix.n, matrix.p, matrix.face
    parts = [matrix.entries[i][n + i] for i in range(p)]
    if face.dim > 1 or not all(part.terms for part in parts):
        return None
    v = (0,) * n
    if face.dim == 1:
        step = [b - a for a, b in zip(*face.vertices)]
        v = tuple(c // math.gcd(*step) for c in step)
    # On a vertex each part is one monomial, at height 0.
    norm2 = sum(c * c for c in v) or 1
    rows = []
    H = [1]
    for i, part in enumerate(parts):
        height = {kappa: sum(a * b for a, b in zip(kappa, v)) for kappa in part.terms}
        base = min(height, key=height.get)
        g = [0] * ((max(height.values()) - height[base]) // norm2 + 1)
        for kappa, c in part.terms.items():
            # Integer arithmetic is several times faster than Fraction's.
            g[(height[kappa] - height[base]) // norm2] = c.numerator if c.denominator == 1 else c
        row = [[a * c + vj * k * c for k, c in enumerate(g)] for a, vj in zip(base, v)]
        rows.append(row + [g if t == i else [] for t in range(p)])
        H = _pmul(H, [int(c != 0) for c in g])
    return _pdet([[_pdot(r, s) for s in rows] for r in rows]), H, v


def _closed_form(matrix: MDeltaMatrix) -> Fraction | None:
    """The exact minimum of the objective G / H^2 on a face of dimension 0
    or 1 where it has no zero on the torus, else None (left to the search):
    the least of its limits G[0] and G[-1] at t -> 0 and inf and of
    G(+-u) / H(u)^2 at each root u > 0 of G'H - 2GH', G(-t) standing for
    G(t) at -u.  Each u is read exactly from its double; the objective is
    flat there, so a root error of d moves the value by O(d^2).
    """
    data = _edge_polynomials(matrix)
    if data is None:
        return None
    G, H, _ = data
    # A primitive v has an odd entry, so t = x^v takes both signs.
    mirrored = [-c if k % 2 else c for k, c in enumerate(G)]
    if _Sturm(G).positive_count() or _Sturm(mirrored).positive_count():
        return None
    # H has unit constant and leading coefficients, and deg G = 2 deg H:
    # as t -> 0 or inf the matrix tends to that of an end vertex of the
    # edge, which has full rank.
    minimum = min(G[0], G[-1])
    for branch in (G, mirrored):
        crit = _ptrim(_padd(_pmul(_pderiv(branch), H), [-2 * c for c in _pmul(branch, _pderiv(H))]))
        # On a vertex G and H are constants and crit is zero.
        for u in _Sturm(crit).positive_roots() if crit else ():
            # A subnormal or zero double holds too few bits of the root.
            if u < sys.float_info.min:
                raise ValueOverflowError("a face's critical point lies below the floating-point range")
            u = Fraction(u)
            minimum = min(minimum, _horner(branch, u) / _horner(H, u) ** 2)
    return minimum


def _horner(poly: list, t: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(poly):
        value = value * t + c
    return value


def _certify_faces(
    matrices: Sequence[MDeltaMatrix], indices: Sequence[int], cfg: CertifyConfig
) -> list[FaceCertificate]:
    """Search the torus for rank deficiency of several face matrices at once.

    Sampling covers every sign orthant of the unit sphere (rank patterns
    are orthant-sensitive over the reals) with a shrinking floor on
    ``min_j |x_j|``; each stage's best samples seed local descent under
    that stage's floor.  Samples start on the unit sphere and the descent
    keeps every point's norm in [0.5, 2] (``_project_torus``).  The torus
    action of a face scales coordinate j by t^(v_j) and leaves those with
    v_j = 0 fixed, so an orbit need not meet that shell: a minimum whose
    orbit stays outside it is missed, and the search reports a larger
    objective.

    Each face draws from its own stream, ``SeedSequence(seed,
    spawn_key=(index,))``, and its samples are evaluated one stage at a
    time.  Then one descent runs every face's starts together, each row
    with its face and its stage's floor.  Rows are independent, so every
    face gets the certificate it gets when certified alone.
    """
    if not matrices:
        return []
    comp = _RankTest(matrices)
    n = comp.n
    orthants = list(itertools.product((1.0, -1.0), repeat=n))
    per_orthant = max(1, ceil(cfg.samples / len(orthants)))
    # The sign of every sample's coordinates, orthant after orthant.
    signs = np.repeat(np.array(orthants).T, per_orthant, axis=1)
    schedule = cfg.tau_axis_schedule

    sample_best = []
    starts = []
    for face, index in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))
        for tau_axis in schedule:
            # One draw for every orthant: the stream fills it point by
            # point, as one draw per orthant would.
            g = np.abs(rng.standard_normal((signs.shape[1], n)).T, order="C") + 1e-12
            X = np.maximum(g / np.sqrt(_row_sum(g * g)), tau_axis) * signs
            vals = comp.normalized(X, face)
            arg = int(vals.argmin())
            sample_best.append((X[:, arg].copy(), vals[arg]))
            starts.append(X[:, np.argsort(vals)[: cfg.multistarts]].T)

    # One descent over every face's and stage's starts.
    counts = [len(block) for block in starts]
    floors = np.repeat(np.tile(schedule, len(matrices)), counts)[:, None]
    faces = np.repeat(np.repeat(np.arange(len(matrices)), len(schedule)), counts)
    refined_x, refined_vals = _descend(comp, np.vstack(starts), floors, cfg.descent_iters, faces)
    bounds = np.cumsum(counts)[:-1]
    stages = list(zip(sample_best, np.split(refined_x, bounds), np.split(refined_vals, bounds)))

    samples = len(schedule) * signs.shape[1]
    certificates = []
    for face, (matrix, index) in enumerate(zip(matrices, indices)):
        # Stage by stage, the sample best and then the refined best, with
        # strict comparisons, so that ties keep the earlier point.
        best_val = np.inf
        best_x = None
        for (x, value), rx, rv in stages[face * len(schedule) : (face + 1) * len(schedule)]:
            arg = int(rv.argmin())
            for point, val in ((x, value), (rx[arg], rv[arg])):
                if val < best_val:
                    best_val, best_x = float(val), point
        certificates.append(_certificate(matrix, index, best_val, best_x, samples, cfg))
    return certificates


def _certificate(
    matrix: MDeltaMatrix, index: int, best_val: float, best_x, samples: int, cfg: CertifyConfig
) -> FaceCertificate:
    witness = None
    witness_exact = None
    reason = None
    if best_val <= cfg.tau_zero:
        exact = _try_exact_witness(matrix, best_x)
        interior = float(np.min(np.abs(best_x))) >= cfg.witness_floor
        if exact is not None or interior:
            status = "degenerate"
            witness = tuple(float(v) for v in best_x)
            if exact is not None:
                witness_exact = tuple(rational_str(c) for c in exact)
        else:
            status = "inconclusive"
            reason = "axis_floor"
    elif best_val <= 10 * cfg.tau_zero:
        status = "inconclusive"
        reason = "objective_band"
    elif best_val == np.inf:
        # No sample gave a finite objective, so there is no evidence.
        status = "inconclusive"
        reason = "overflow"
    else:
        status = "nondegenerate_probable"
    return FaceCertificate(
        face_index=index,
        support=matrix.face.support_points,
        status=status,
        objective_min=best_val,
        witness=witness,
        witness_exact=witness_exact,
        samples=samples,
        seed=cfg.seed,
        reason=reason,
    )


def _certify(
    matrices: Sequence[MDeltaMatrix], indices: Sequence[int], cfg: CertifyConfig
) -> list[FaceCertificate]:
    """Decide faces of dimension 0 and 1 in closed form, search the rest.

    A face decided in closed form is ``nondegenerate_probable`` with no
    samples, whatever its minimum, since a Sturm count proved that the rank
    never drops on it; ``tau_zero`` plays no part.  Every other face goes
    to ``_certify_faces`` under its own index, so it draws its own stream
    and gets the certificate it gets when searched alone.

    numpy's overflow, division and invalid-value warnings are off for the
    search, so an objective that overflows reads inf or NaN without a
    warning.  An exact minimum past the float range is reported as inf,
    one below it as 0.0; a critical point below it, or a root bound above
    it, raises ``ValueOverflowError``.
    """
    try:
        minima = {k: low for k, m in enumerate(matrices) if (low := _closed_form(m)) is not None}
    except OverflowError:
        message = "a face's closed-form objective lies outside the floating-point range"
        raise ValueOverflowError(message) from None
    certificates = {}
    for k, minimum in minima.items():
        try:
            reported = float(minimum)
        except OverflowError:
            reported = math.inf
        certificates[k] = FaceCertificate(
            face_index=indices[k],
            support=matrices[k].face.support_points,
            status="nondegenerate_probable",
            objective_min=reported,
            witness=None,
            witness_exact=None,
            samples=0,
            seed=cfg.seed,
            method="exact",
        )
    rest = [k for k in range(len(matrices)) if k not in certificates]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        searched = _certify_faces([matrices[k] for k in rest], [indices[k] for k in rest], cfg)
    certificates.update(zip(rest, searched))
    return [certificates[k] for k in range(len(matrices))]


def certify_face(
    matrix: MDeltaMatrix, cfg: CertifyConfig = CertifyConfig(), face_index: int = 0
) -> FaceCertificate:
    """Certify one face matrix: the one-face case of ``certify_system``."""
    return _certify((matrix,), (face_index,), cfg)[0]


def certify_system(
    system: PolySystem,
    cfg: CertifyConfig = CertifyConfig(),
    geometry: SystemGeometry | None = None,
) -> NondegVerdict:
    """Certify every face at infinity of the summed Newton polyhedron.

    Convenience failures are reported but do not stop the per-face
    search.  The overall verdict is degenerate as soon as one face is,
    and nondegenerate_probable only when every face is.
    """
    if geometry is None:
        geometry = analyze_system(system)
    matrices = [build_m_delta(system, face) for face in geometry.faces]
    faces = tuple(_certify(matrices, range(len(matrices)), cfg))

    if any(f.status == "degenerate" for f in faces):
        status = "degenerate"
    elif any(f.status == "inconclusive" for f in faces):
        status = "inconclusive"
    else:
        status = "nondegenerate_probable"
    return NondegVerdict(
        status=status,
        faces=faces,
        convenient=geometry.convenient,
        missing_axes=tuple(c.missing_axes for c in geometry.convenience),
        seed=cfg.seed,
    )

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
norms that modified Gram-Schmidt leaves on the p rows: one p-step loop,
vectorised over the batch, instead of C(n+p, p) determinants.
``np.linalg.det(M @ M.T)`` is not used: forming M M^T squares the
condition number, so at exactly rank-deficient points it returns
roundoff near 1e-13, some of it negative, where the minors and
Gram-Schmidt give about 1e-29.  Batched QR keeps the precision but ran
1.7 to 2.7 times slower than Gram-Schmidt at batches of 96 to 4096.

A reported "degenerate" verdict comes with a witness point; when the
witness rounds to a nearby rational point at which the matrix drops rank
in exact arithmetic the verdict is exact, otherwise it is numerical with
the achieved objective.  A "nondegenerate_probable" verdict is evidence,
not proof: the search is sampling plus local descent, never a
positivity certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Sequence

import numpy as np

from .newton import FaceAtInfinity, SystemGeometry, _row_reduce, analyze_system
from .polysys import Exponent, Polynomial, PolySystem, _CompiledMap, principal_part, rational_str


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


class _CompiledMDelta:
    """Vectorised float evaluation of the matrix and its minor objective.

    Every entry of row i lives on supp(f_i_face), so row i is one
    compiled map over its nonzero entries: the Euler terms
    x_j * d f_i_face / d x_j followed by f_i_face, all evaluated from one
    monomial table over the sorted support.
    """

    def __init__(self, matrix: MDeltaMatrix):
        self.n = matrix.n
        self.p = matrix.p
        self.rows = [
            _CompiledMap(row[: self.n] + (row[self.n + i],), self.n)
            for i, row in enumerate(matrix.entries)
        ]
        self.zero_row = any(row.exps.shape[0] == 0 for row in self.rows)

    def _evaluate(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Matrices at X and the squared product of the row gauges.

        The gauge g_i(x) = sum over supp(f_i_face) of |x^kappa| bounds every
        entry of row i up to a constant, so every maximal minor is bounded
        by a constant times prod_i g_i; dividing the objective by
        prod_i g_i^2 removes per-row scale.  On a monomial row the ratio is
        exactly invariant under all coordinate scalings, so sliding toward
        a coordinate hyperplane (which never leaves the full-rank locus)
        cannot masquerade as degeneracy.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = self.n
        mats = np.zeros((X.shape[0], self.p, n + self.p))
        scale = np.ones(X.shape[0])
        for i, row in enumerate(self.rows):
            table = row.table(X)
            values = table @ row.coeffs
            mats[:, i, :n] = values[:, :n]
            mats[:, i, n + i] = values[:, n]
            scale *= np.abs(table).sum(axis=1) ** 2
        return mats, scale

    def matrices(self, X: np.ndarray) -> np.ndarray:
        return self._evaluate(X)[0]

    def raw_objective(self, X: np.ndarray) -> np.ndarray:
        return _gram_determinant(self.matrices(X))

    def normalized(self, X: np.ndarray) -> np.ndarray:
        """Minor objective divided by the squared product of row gauges."""
        mats, scale = self._evaluate(X)
        if self.zero_row:
            # A vanishing principal part forces rank < p outright.
            return np.zeros(mats.shape[0])
        return _gram_determinant(mats) / scale


def _gram_determinant(mats: np.ndarray) -> np.ndarray:
    """det(M M^T) per matrix, as the product of squared Gram-Schmidt residuals."""
    det = np.ones(mats.shape[0])
    basis = []
    for i in range(mats.shape[1]):
        v = mats[:, i, :].copy()
        for q in basis:
            v -= (v * q).sum(axis=1, keepdims=True) * q
        norm2 = (v * v).sum(axis=1)
        det *= norm2
        norm = np.sqrt(norm2)[:, None]
        basis.append(np.divide(v, norm, out=np.zeros_like(v), where=norm > 0))
    return det


def minor_norm_objective(matrix: MDeltaMatrix, x: Sequence[float]) -> float:
    """Sum over all p x p minors of minor(x)^2; zero iff the rank drops at x."""
    return float(_CompiledMDelta(matrix).raw_objective(np.asarray(x, dtype=float))[0])


def normalized_minor_objective(matrix: MDeltaMatrix, x: Sequence[float]) -> float:
    """Scale-free minor objective: raw objective over squared row gauges."""
    return float(_CompiledMDelta(matrix).normalized(np.asarray(x, dtype=float))[0])


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

    def to_json(self) -> dict:
        return {
            "face": self.face_index,
            "status": self.status,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_exact": list(self.witness_exact)
            if self.witness_exact is not None
            else None,
            "objective_min": self.objective_min,
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


def _project_torus(Y: np.ndarray, tau_axis: float) -> np.ndarray:
    sign = np.where(Y >= 0, 1.0, -1.0)
    Y = sign * np.maximum(np.abs(Y), tau_axis)
    norms = np.linalg.norm(Y, axis=-1, keepdims=True)
    Y = Y * (np.clip(norms, 0.5, 2.0) / norms)
    sign = np.where(Y >= 0, 1.0, -1.0)
    return sign * np.maximum(np.abs(Y), tau_axis)


def _descend(comp: _CompiledMDelta, starts: np.ndarray, tau_axis: float, iters: int):
    """Batch adaptive-step coordinate descent with an axis-avoidance floor."""
    X = _project_torus(starts.copy(), tau_axis)
    vals = comp.normalized(X)
    steps = np.full(X.shape[0], 0.25)
    n = comp.n
    for _ in range(iters):
        batch, _ = X.shape
        proposals = np.repeat(X[:, None, :], 2 * n, axis=1)
        for j in range(n):
            proposals[:, 2 * j, j] += steps
            proposals[:, 2 * j + 1, j] -= steps
        proposals = _project_torus(proposals, tau_axis)
        cand = comp.normalized(proposals.reshape(-1, n)).reshape(batch, 2 * n)
        best = cand.min(axis=1)
        arg = cand.argmin(axis=1)
        improved = best < vals
        if not improved.any() and (steps == 1e-12).all():
            break  # a fixed point: every later iteration repeats these proposals
        X[improved] = proposals[improved, arg[improved]]
        vals = np.where(improved, best, vals)
        steps = np.where(improved, steps * 1.4, steps * 0.6)
        steps = np.maximum(steps, 1e-12)
    return X, vals


def exact_rank_deficient(matrix: MDeltaMatrix, point: Sequence[Fraction]) -> bool:
    """Exact-rational check that the matrix drops rank at ``point``."""
    rows = [[e.evaluate(point) for e in row] for row in matrix.entries]
    return len(_row_reduce(rows)[1]) < matrix.p


def _try_exact_witness(matrix: MDeltaMatrix, x: np.ndarray):
    for den in (1, 2, 4, 8, 10, 100, 1000, 10**4):
        cand = tuple(Fraction(float(v)).limit_denominator(den) for v in x)
        if any(c == 0 for c in cand):
            continue
        if exact_rank_deficient(matrix, cand):
            return cand
    return None


def certify_face(
    matrix: MDeltaMatrix, cfg: CertifyConfig = CertifyConfig(), face_index: int = 0
) -> FaceCertificate:
    """Search the torus for rank deficiency of one face matrix.

    Sampling covers every sign orthant of the unit sphere (rank patterns
    are orthant-sensitive over the reals) with a shrinking floor on
    ``min_j |x_j|``; the best samples seed local descent.  Scaling along
    the quasi-homogeneous torus action only rescales the objective, so
    restricting to ~unit vectors loses nothing.
    """
    comp = _CompiledMDelta(matrix)
    n = comp.n
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(face_index,)))
    orthants = list(itertools.product((1.0, -1.0), repeat=n))
    per_orthant = max(1, ceil(cfg.samples / len(orthants)))

    best_val = np.inf
    best_x = None
    samples_used = 0
    for tau_axis in cfg.tau_axis_schedule:
        blocks = []
        for sigma in orthants:
            g = np.abs(rng.standard_normal((per_orthant, n))) + 1e-12
            u = g / np.linalg.norm(g, axis=1, keepdims=True)
            u = np.maximum(u, tau_axis)
            blocks.append(u * np.asarray(sigma))
        X = np.vstack(blocks)
        vals = comp.normalized(X)
        samples_used += X.shape[0]
        stage_best = int(vals.argmin())
        if vals[stage_best] < best_val:
            best_val = float(vals[stage_best])
            best_x = X[stage_best].copy()

        order = np.argsort(vals)[: cfg.multistarts]
        refined_x, refined_vals = _descend(comp, X[order], tau_axis, cfg.descent_iters)
        arg = int(refined_vals.argmin())
        if refined_vals[arg] < best_val:
            best_val = float(refined_vals[arg])
            best_x = refined_x[arg].copy()

    witness = None
    witness_exact = None
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
    elif best_val <= 10 * cfg.tau_zero:
        status = "inconclusive"
    else:
        status = "nondegenerate_probable"
    return FaceCertificate(
        face_index=face_index,
        support=matrix.face.support_points,
        status=status,
        objective_min=best_val,
        witness=witness,
        witness_exact=witness_exact,
        samples=samples_used,
        seed=cfg.seed,
    )


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
    faces = tuple(
        certify_face(build_m_delta(system, face), cfg, face_index=index)
        for index, face in enumerate(geometry.faces)
    )

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

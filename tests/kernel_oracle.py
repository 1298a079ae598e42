"""Reference for ``nondegen``'s rank-test kernel: the kernel before it was
tuned for fewer numpy passes.

``RankTest`` is ``nondegen._RankTest`` as it was: one monomial table per
matrix row, each built from its own power ladder, masked by a fancy
gather of a (monomials, faces) mask, and a gauge summed monomial by
monomial.  ``_gram_determinant`` runs Gram-Schmidt on dense (n + p, m)
rows, allocating each product and basis vector, the last one included.
``_project_torus`` fixes each coordinate's sign twice with ``np.where``,
and ``_descend`` gathers the live rows' points, floors and faces anew on
every iteration.  ``_row_sum`` adds k terms as vector adds, one after
another for k < 8.  The tuned kernel must give this one bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from holderbounds.evaluator import _CompiledMap
from holderbounds.nondegen import _BATCH_ROWS, MDeltaMatrix
from holderbounds.polysys import Polynomial


class RankTest:
    """Vectorised float evaluation of the matrices of several faces.

    Row i of every face's matrix is one compiled map over the union of
    the faces' supports of f_i's principal part, and a 0/1 mask per face
    keeps that face's monomials.  Points are the columns of an (n, m)
    coordinate array and carry the index of their face.
    """

    def __init__(self, matrices: Sequence[MDeltaMatrix]):
        self.n, self.p = matrices[0].n, matrices[0].p
        parts = [[m.entries[i][self.n + i] for i in range(self.p)] for m in matrices]
        self.rows = []
        # masks[i][k, face] is 1.0 where monomial k of row i is on the face.
        self.masks = []
        for i in range(self.p):
            union = Polynomial({k: c for face in parts for k, c in face[i].terms.items()}, self.n)
            row = _CompiledMap([union.euler_term(j) for j in range(self.n)] + [union], self.n)
            support = [tuple(kappa) for kappa in row.exps.tolist()]
            self.rows.append(row)
            mask = [[float(k in face[i].terms) for face in parts] for k in support]
            self.masks.append(np.array(mask).reshape(len(support), len(parts)))
        self.zero_row = np.array([any(not part.terms for part in face) for face in parts])

    def _evaluate(self, X: np.ndarray, faces) -> tuple[list[np.ndarray], np.ndarray]:
        """The (n + 1, m) block of each row and the squared product of the
        row gauges."""
        rows = []
        scale = np.ones(X.shape[1])
        for row, mask in zip(self.rows, self.masks):
            table = row.table(X)
            table *= mask[:, np.atleast_1d(faces)]
            rows.append(row.contract(table).T)
            scale *= _gauge(table) ** 2
        return rows, scale

    def normalized(self, X: np.ndarray, faces=0) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[1])
        for start in range(0, X.shape[1], _BATCH_ROWS):
            cols = slice(start, start + _BATCH_ROWS)
            chunk = faces[cols] if np.ndim(faces) else faces
            rows, scale = self._evaluate(X[:, cols], chunk)
            det = _gram_determinant(rows, self.n)
            zero = self.zero_row[chunk]
            out[cols] = np.divide(det, scale, out=np.zeros_like(det), where=~zero)
        return out


def _gauge(table: np.ndarray) -> np.ndarray:
    """Sum of |x^kappa| over a monomial-major table, one monomial after another."""
    gauge = np.zeros(table.shape[1])
    for monomial in np.abs(table):
        gauge += monomial
    return gauge


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis, with the bits ``np.sum`` gives along a
    contiguous last axis: one term after another below 8 terms, numpy's
    eight accumulators from 8 to 128, halves past 128."""
    k = terms.shape[0]
    if k < 8:
        total = np.zeros(terms.shape[1:])
        for term in terms:
            total += term
        return total
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
    return total + 0.0


def _dense_row(row: np.ndarray, i: int, n: int, p: int) -> np.ndarray:
    v = np.zeros((n + p, row.shape[1]))
    v[:n] = row[:n]
    v[n + i] = row[n]
    return v


def _gram_determinant(rows: Sequence[np.ndarray], n: int) -> np.ndarray:
    """det(M M^T) per point, as the product of squared Gram-Schmidt residuals."""
    det = np.ones(rows[0].shape[1])
    basis = []
    for i, row in enumerate(rows):
        v = _dense_row(row, i, n, len(rows))
        for q in basis:
            v -= _row_sum(v * q) * q
        norm2 = _row_sum(v * v)
        det *= norm2
        norm = np.sqrt(norm2)
        basis.append(np.divide(v, norm, out=np.zeros_like(v), where=norm > 0))
    return det


def _project_torus(Y: np.ndarray, tau_axis: float | np.ndarray) -> np.ndarray:
    """Points pushed off the coordinate hyperplanes to ``tau_axis``, with
    their norms clipped into [0.5, 2]; Y[j] holds coordinate j."""
    sign = np.where(Y >= 0, 1.0, -1.0)
    Y = sign * np.maximum(np.abs(Y), tau_axis)
    norms = np.sqrt(_row_sum(Y * Y))
    Y = Y * (np.clip(norms, 0.5, 2.0) / norms)
    sign = np.where(Y >= 0, 1.0, -1.0)
    return sign * np.maximum(np.abs(Y), tau_axis)


def _descend(comp, starts: np.ndarray, tau_axis, iters: int, faces=0):
    """Batch adaptive-step coordinate descent with an axis-avoidance floor;
    one point per row of ``starts``, which come back one per row."""
    floor = np.broadcast_to(tau_axis, (starts.shape[0], 1))[:, 0]
    faces = np.broadcast_to(faces, starts.shape[:1])
    X = _project_torus(np.ascontiguousarray(starts, dtype=float).T, floor)
    vals = comp.normalized(X, faces)
    steps = np.full(X.shape[1], 0.25)
    live = np.arange(X.shape[1])
    n = comp.n
    axes = np.arange(n)
    for _ in range(iters):
        step = steps[live]
        proposals = np.repeat(X[:, live], 2 * n, axis=1).reshape(n, live.size, 2 * n)
        proposals[axes, :, 2 * axes] += step
        proposals[axes, :, 2 * axes + 1] -= step
        proposals = _project_torus(proposals, floor[live][:, None])
        cand = comp.normalized(proposals.reshape(n, -1), np.repeat(faces[live], 2 * n))
        cand = cand.reshape(live.size, 2 * n)
        best = cand.min(axis=1)
        improved = best < vals[live]
        moved = live[improved]
        X[:, moved] = proposals[:, improved, cand.argmin(axis=1)[improved]]
        vals[moved] = best[improved]
        steps[live] = np.maximum(np.where(improved, step * 1.4, step * 0.6), 1e-12)
        live = live[improved | (step > 1e-12)]
        if live.size == 0:
            break
    return X.T, vals

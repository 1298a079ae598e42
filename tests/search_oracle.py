"""Reference for ``nondegen``'s rank-test search before its fixed costs
left the loop.

``table`` is ``evaluator._CompiledMap.table`` as it was: each variable's
rungs fetched by a two-index fancy gather of the (rungs, n, m) ladder.
``RankTest`` is ``nondegen._RankTest`` as it was: one table of the union
of every row's monomials, gathered again per row (``_take``), masked by
a fresh gather of the face mask on every evaluation, and summed through
``_ordered_sum``; ``_gram_determinant`` sums through ``_row_sum`` at
every size.  ``_shell`` always rescales, and ``_descend`` rebuilds its
proposal faces' masks and scatters its moved coordinates by fancy
indexing on every iteration, keeping a row at 0 until its step reaches
the floor.  The search must give this one bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from holderbounds.evaluator import _CompiledMap, _rung_closure
from holderbounds.nondegen import (
    _BATCH_ROWS,
    MDeltaMatrix,
    _off_axes,
    _ordered_sum,
    _row_sum,
)
from holderbounds.polysys import Polynomial


def table(cmap: _CompiledMap, X) -> np.ndarray:
    """x^kappa for every kappa of ``cmap``'s support (rows) and every
    point (columns) of coordinates X of shape (n, m)."""
    slots = np.searchsorted(_rung_closure(cmap.exps), cmap.exps)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != cmap.nvars:
        raise ValueError(
            f"coordinates of shape {X.shape} for a {cmap.nvars}-variable system"
        )
    ladder = np.empty((len(cmap._rungs) + 2, cmap.nvars, X.shape[1]))
    ladder[0] = 1.0
    ladder[1] = X
    for k, lo, hi in cmap._rungs:
        np.multiply(ladder[lo], ladder[hi], out=ladder[k])
    out = ladder[slots[:, 0], 0]
    for j in range(1, cmap.nvars):
        out *= ladder[slots[:, j], j]
    return out


class RankTest:
    """Vectorised float evaluation of the matrices of several faces: one
    monomial table of every row's union per evaluation, gathered per row
    and masked by the columns of ``_mask`` that the points' faces pick."""

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
        self._take = np.array([slot[kappa] for support in supports for kappa in support], dtype=np.intp)
        # _mask[k, face] is 1.0 where gathered monomial k is on the face.
        mask = [[float(k in face[i].terms) for face in parts] for i, s in enumerate(supports) for k in s]
        self._mask = np.array(mask).reshape(len(self._take), len(parts))
        # A vanishing principal part forces rank < p outright.
        self.zero_row = np.array([any(not part.terms for part in face) for face in parts])

    def _evaluate(self, X: np.ndarray, faces) -> tuple[list[np.ndarray], np.ndarray]:
        """The rows of the matrices at the points X, each (n + p, m), and
        the squared product of the row gauges."""
        table_ = np.take(table(self._monomials, X), self._take, axis=0)
        table_ *= np.take(self._mask, np.atleast_1d(faces), axis=1)
        magnitude = np.abs(table_)
        rows = []
        scale = 1.0
        for row, lo, hi in zip(self.rows, self._bounds, self._bounds[1:]):
            # contract views einsum's (n + p, m) output point-major; .T undoes that view.
            rows.append(row.contract(table_[lo:hi]).T)
            scale = scale * _ordered_sum(magnitude[lo:hi]) ** 2
        return rows, scale

    def matrices(self, X: np.ndarray, faces=0) -> np.ndarray:
        """The (p, n + p, m) matrices at the points X."""
        return np.stack(self._evaluate(np.asarray(X, dtype=float), faces)[0])

    def normalized(self, X: np.ndarray, faces=0) -> np.ndarray:
        """Minor objective divided by the squared product of row gauges;
        ``faces`` is one face index for every point, or one per point."""
        X = np.asarray(X, dtype=float)
        if np.ndim(faces) == 0 and self.zero_row[faces]:
            # A face with a vanishing principal part reads 0 at every point.
            return np.zeros(X.shape[1])
        out = np.empty(X.shape[1])
        for start in range(0, X.shape[1], _BATCH_ROWS):
            cols = slice(start, start + _BATCH_ROWS)
            chunk = faces[cols] if np.ndim(faces) else faces
            rows, scale = self._evaluate(X[:, cols], chunk)
            det = _gram_determinant(rows)
            zero = self.zero_row[chunk]
            if zero.any():
                det, scale = np.where(zero, 0.0, det), np.where(zero, 1.0, scale)
            np.divide(det, scale, out=out[cols])
        return out


def _gram_determinant(rows: Sequence[np.ndarray]) -> np.ndarray:
    """det(M M^T) per point, as the product of squared Gram-Schmidt
    residuals, every sum a ``_row_sum``; overwrites ``rows``."""
    p = len(rows)
    product = np.empty(rows[0].shape)
    for i, v in enumerate(rows):
        for q in rows[:i]:
            d = _row_sum(np.multiply(v, q, out=product))
            v -= np.multiply(d, q, out=product)
        norm2 = _row_sum(np.multiply(v, v, out=product))
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


def _project_torus(Y: np.ndarray, tau_axis) -> np.ndarray:
    """Points pushed off the coordinate hyperplanes to ``tau_axis``, with
    their norms clipped into [0.5, 2]."""
    return _shell(_off_axes(Y, tau_axis), tau_axis)


def _shell(Y: np.ndarray, tau_axis) -> np.ndarray:
    """Points already off the hyperplanes with their norms clipped into
    [0.5, 2], and pushed off again where that rescaling brought a
    coordinate under the floor."""
    norms = np.sqrt(_row_sum(Y * Y))
    # np.clip(norms, 0.5, 2.0), without its wrapper's microseconds per call.
    Y = Y * (np.minimum(np.maximum(norms, 0.5), 2.0) / norms)
    # A NaN norm is not inside, and is pushed too.
    inside = norms <= 2.0
    if not inside.all():
        far = ~inside
        Y[:, far] = _off_axes(Y[:, far], np.broadcast_to(tau_axis, far.shape)[far])
    return Y


def _descend(comp, starts: np.ndarray, tau_axis, iters: int, faces=0):
    """Batch adaptive-step coordinate descent with an axis-avoidance floor;
    one point per row of ``starts``, which come back one per row."""
    floor = np.broadcast_to(tau_axis, (starts.shape[0], 1))[:, 0]
    faces = np.broadcast_to(faces, starts.shape[:1])
    X = _project_torus(np.ascontiguousarray(starts, dtype=float).T, floor)
    vals = comp.normalized(X, faces)
    n = comp.n
    axes = np.arange(n)
    up_down = np.array([1.0, -1.0])[:, None, None]
    # No objective is negative, so a row at 0 (or NaN) can never improve.
    live = np.flatnonzero(vals > 0)
    x, val, step, tau = X[:, live], vals[live], np.full(live.size, 0.25), floor[live]
    # Column first[r] + 2j + s of the flattened proposals is proposal 2j + s of live row r.
    first, owner = 2 * n * np.arange(live.size), np.repeat(faces[live], 2 * n)
    for _ in range(iters):
        if live.size == 0:
            break
        # Proposal 2j (2j + 1) of a live row moves its coordinate j up
        # (down) by its step: column (row, proposal) of an (n, live, 2n) array.
        proposals = np.repeat(x, 2 * n, axis=1).reshape(n, live.size, 2 * n)
        moved = _off_axes(x + step * up_down, tau)
        proposals.reshape(n, live.size, n, 2)[axes, :, axes] = moved.transpose(1, 2, 0)
        proposals = _shell(proposals, tau[:, None]).reshape(n, -1)
        cand = comp.normalized(proposals, owner)
        # An objective is never -0.0, so this is the row minimum but for
        # the payload of a NaN, which never improves.
        pick = first + cand.reshape(live.size, 2 * n).argmin(axis=1)
        best = cand[pick]
        improved = best < val
        x = np.where(improved, proposals[:, pick], x)
        val = np.where(improved, best, val)
        stay = improved | (step > 1e-12)
        step = np.maximum(step * np.where(improved, 1.4, 0.6), 1e-12)
        if not stay.all():
            X[:, live], vals[live] = x, val
            live = live[stay]
            x, val, step, tau = x[:, stay], val[stay], step[stay], tau[stay]
            first, owner = 2 * n * np.arange(live.size), np.repeat(faces[live], 2 * n)
    X[:, live], vals[live] = x, val
    return X.T, vals

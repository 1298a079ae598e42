"""Reference for ``nondegen``'s coordinate-major kernel: the point-major one.

Before the rank-test search held its points as (n, m) coordinate arrays,
every array in it was point-major: points were the rows of an (m, n)
array, the matrices an (m, p, n + p) tensor filled row block by row
block, and every dot product and norm a ``sum(axis=1)`` over the n + p
(or n) entries of one point.  This module keeps that kernel:
``_gram_determinant``, ``_project_torus``, ``_descend``, an evaluator
``PointMajorRankTest`` whose ``_evaluate`` scatters into the tensor, and
``certify_system_point_major``, the whole lockstep search on them.  The
coordinate-major search must give it bit for bit.
"""

from __future__ import annotations

import itertools
from math import ceil

import numpy as np

from holderbounds.newton import analyze_system
from holderbounds.nondegen import (
    CertifyConfig,
    NondegVerdict,
    _certificate,
    build_m_delta,
)

from kernel_oracle import RankTest, _gauge


class PointMajorRankTest(RankTest):
    """``kernel_oracle.RankTest`` on points held one per row."""

    def _evaluate(self, X: np.ndarray, faces) -> tuple[np.ndarray, np.ndarray]:
        """Matrices (m, p, n + p) at the rows of X and the squared product
        of the row gauges."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = self.n
        mats = np.zeros((X.shape[0], self.p, n + self.p))
        scale = np.ones(X.shape[0])
        for i, (row, mask) in enumerate(zip(self.rows, self.masks)):
            table = row.table(X.T)
            table *= mask[:, np.atleast_1d(faces)]
            values = row.contract(table)
            mats[:, i, :n] = values[:, :n]
            mats[:, i, n + i] = values[:, n]
            scale *= _gauge(table) ** 2
        return mats, scale

    def matrices(self, X: np.ndarray, faces=0) -> np.ndarray:
        return self._evaluate(X, faces)[0]

    def normalized(self, X: np.ndarray, faces=0) -> np.ndarray:
        mats, scale = self._evaluate(X, faces)
        det = _gram_determinant(mats)
        zero = self.zero_row[faces]
        return np.divide(det, scale, out=np.zeros_like(det), where=~zero)


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


def _project_torus(Y: np.ndarray, tau_axis: float | np.ndarray) -> np.ndarray:
    sign = np.where(Y >= 0, 1.0, -1.0)
    Y = sign * np.maximum(np.abs(Y), tau_axis)
    norms = np.linalg.norm(Y, axis=-1, keepdims=True)
    Y = Y * (np.clip(norms, 0.5, 2.0) / norms)
    sign = np.where(Y >= 0, 1.0, -1.0)
    return sign * np.maximum(np.abs(Y), tau_axis)


def _descend(comp, starts: np.ndarray, tau_axis, iters: int, faces=0):
    """Batch adaptive-step coordinate descent with an axis-avoidance floor;
    ``comp.normalized`` takes points one per row."""
    floor = np.broadcast_to(tau_axis, (starts.shape[0], 1))
    faces = np.broadcast_to(faces, starts.shape[:1])
    X = _project_torus(starts, floor)
    vals = comp.normalized(X, faces)
    steps = np.full(X.shape[0], 0.25)
    live = np.arange(X.shape[0])
    n = comp.n
    for _ in range(iters):
        step = steps[live]
        proposals = np.repeat(X[live][:, None, :], 2 * n, axis=1)
        for j in range(n):
            proposals[:, 2 * j, j] += step
            proposals[:, 2 * j + 1, j] -= step
        proposals = _project_torus(proposals, floor[live][:, :, None])
        cand = comp.normalized(proposals.reshape(-1, n), np.repeat(faces[live], 2 * n))
        cand = cand.reshape(live.size, 2 * n)
        best = cand.min(axis=1)
        improved = best < vals[live]
        moved = live[improved]
        X[moved] = proposals[improved, cand.argmin(axis=1)[improved]]
        vals[moved] = best[improved]
        steps[live] = np.maximum(np.where(improved, step * 1.4, step * 0.6), 1e-12)
        live = live[improved | (step > 1e-12)]
        if live.size == 0:
            break
    return X, vals


def certify_system_point_major(system, cfg: CertifyConfig = CertifyConfig()) -> NondegVerdict:
    """``nondegen.certify_system`` with every array of the search point-major."""
    geometry = analyze_system(system)
    matrices = [build_m_delta(system, face) for face in geometry.faces]
    certificates = []
    if matrices:
        comp = PointMajorRankTest(matrices)
        n = comp.n
        orthants = list(itertools.product((1.0, -1.0), repeat=n))
        per_orthant = max(1, ceil(cfg.samples / len(orthants)))
        schedule = cfg.tau_axis_schedule
        sample_best = []
        starts = []
        for face in range(len(matrices)):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(face,)))
            for tau_axis in schedule:
                blocks = []
                for sigma in orthants:
                    g = np.abs(rng.standard_normal((per_orthant, n))) + 1e-12
                    u = g / np.linalg.norm(g, axis=1, keepdims=True)
                    u = np.maximum(u, tau_axis)
                    blocks.append(u * np.asarray(sigma))
                X = np.vstack(blocks)
                vals = comp.normalized(X, face)
                arg = int(vals.argmin())
                sample_best.append((X[arg].copy(), vals[arg]))
                starts.append(X[np.argsort(vals)[: cfg.multistarts]])

        counts = [len(block) for block in starts]
        floors = np.repeat(np.tile(schedule, len(matrices)), counts)[:, None]
        faces = np.repeat(np.repeat(np.arange(len(matrices)), len(schedule)), counts)
        refined_x, refined_vals = _descend(comp, np.vstack(starts), floors, cfg.descent_iters, faces)
        bounds = np.cumsum(counts)[:-1]
        stages = list(zip(sample_best, np.split(refined_x, bounds), np.split(refined_vals, bounds)))
        samples = len(schedule) * len(orthants) * per_orthant
        for face, matrix in enumerate(matrices):
            best_val = np.inf
            best_x = None
            for (x, value), rx, rv in stages[face * len(schedule) : (face + 1) * len(schedule)]:
                arg = int(rv.argmin())
                for point, val in ((x, value), (rx[arg], rv[arg])):
                    if val < best_val:
                        best_val, best_x = float(val), point
            certificates.append(_certificate(matrix, face, best_val, best_x, samples, cfg))

    statuses = {f.status for f in certificates}
    status = next(
        (s for s in ("degenerate", "inconclusive") if s in statuses), "nondegenerate_probable"
    )
    return NondegVerdict(
        status=status,
        faces=tuple(certificates),
        convenient=geometry.convenient,
        missing_axes=tuple(c.missing_axes for c in geometry.convenience),
        seed=cfg.seed,
    )

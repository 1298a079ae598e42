"""References for ``nondegen``'s lockstep search and for the power ladder.

``PerFaceMDelta`` is the rank-test evaluator ``nondegen`` had before one
evaluator served every face of a system: one compiled map per row over
that face's own support, with no masks.  It evaluates with the same
kernel (power-ladder table, einsum contraction, gauge summed monomial by
monomial), on points held one per row as ``layout_oracle`` keeps them, so
``certify_system_face_by_face``, which certifies one face after another
through it, must give ``certify_system`` bit for bit.

``pow_table`` is the monomial table ``evaluator._CompiledMap`` built before
the power ladder: numpy's float ``pow``, one call per entry.
"""

from __future__ import annotations

import itertools
from math import ceil

import numpy as np

from holderbounds.newton import analyze_system
from holderbounds.nondegen import (
    CertifyConfig,
    FaceCertificate,
    MDeltaMatrix,
    NondegVerdict,
    _certificate,
    build_m_delta,
)
from holderbounds.evaluator import _CompiledMap

from kernel_oracle import _gauge
from layout_oracle import _descend, _gram_determinant


def pow_table(exps: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x^kappa for every row x of X (rows) and every kappa of ``exps`` (columns)."""
    return (X[:, None, :] ** exps.astype(float)[None, :, :]).prod(axis=2)


class PerFaceMDelta:
    """Vectorised float evaluation of one face's matrix and its minor objective."""

    def __init__(self, matrix: MDeltaMatrix):
        self.n = matrix.n
        self.p = matrix.p
        self.rows = [
            _CompiledMap(row[: self.n] + (row[self.n + i],), self.n)
            for i, row in enumerate(matrix.entries)
        ]
        self.zero_row = any(row.exps.shape[0] == 0 for row in self.rows)

    def _evaluate(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = self.n
        mats = np.zeros((X.shape[0], self.p, n + self.p))
        scale = np.ones(X.shape[0])
        for i, row in enumerate(self.rows):
            table = row.table(X.T)
            values = row.contract(table)
            mats[:, i, :n] = values[:, :n]
            mats[:, i, n + i] = values[:, n]
            scale *= _gauge(table) ** 2
        return mats, scale

    def matrices(self, X: np.ndarray) -> np.ndarray:
        return self._evaluate(X)[0]

    def normalized(self, X: np.ndarray, faces=0) -> np.ndarray:
        """The objective at X; ``faces`` is accepted for ``_descend`` and ignored."""
        mats, scale = self._evaluate(X)
        if self.zero_row:
            return np.zeros(mats.shape[0])
        return _gram_determinant(mats) / scale


def _stage_samples(rng, n: int, per_orthant: int, tau_axis: float) -> np.ndarray:
    blocks = []
    for sigma in itertools.product((1.0, -1.0), repeat=n):
        g = np.abs(rng.standard_normal((per_orthant, n))) + 1e-12
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        u = np.maximum(u, tau_axis)
        blocks.append(u * np.asarray(sigma))
    return np.vstack(blocks)


def certify_face_alone(
    matrix: MDeltaMatrix, cfg: CertifyConfig = CertifyConfig(), face_index: int = 0
) -> FaceCertificate:
    """One face's search on its own evaluator: every stage's starts in one descent."""
    comp = PerFaceMDelta(matrix)
    n = comp.n
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(face_index,)))
    per_orthant = max(1, ceil(cfg.samples / 2**n))

    samples_used = 0
    sample_best = []
    starts = []
    for tau_axis in cfg.tau_axis_schedule:
        X = _stage_samples(rng, n, per_orthant, tau_axis)
        vals = comp.normalized(X)
        samples_used += X.shape[0]
        arg = int(vals.argmin())
        sample_best.append((X[arg].copy(), vals[arg]))
        starts.append(X[np.argsort(vals)[: cfg.multistarts]])

    counts = [len(block) for block in starts]
    floors = np.repeat(cfg.tau_axis_schedule, counts)[:, None]
    refined_x, refined_vals = _descend(comp, np.vstack(starts), floors, cfg.descent_iters)
    bounds = np.cumsum(counts)[:-1]

    best_val = np.inf
    best_x = None
    for (x, value), rx, rv in zip(
        sample_best, np.split(refined_x, bounds), np.split(refined_vals, bounds)
    ):
        arg = int(rv.argmin())
        for point, val in ((x, value), (rx[arg], rv[arg])):
            if val < best_val:
                best_val, best_x = float(val), point
    return _certificate(matrix, face_index, best_val, best_x, samples_used, cfg)


def certify_system_face_by_face(system, cfg: CertifyConfig = CertifyConfig()) -> NondegVerdict:
    """``certify_system`` with one ``certify_face_alone`` call per face."""
    geometry = analyze_system(system)
    faces = tuple(
        certify_face_alone(build_m_delta(system, face), cfg, index)
        for index, face in enumerate(geometry.faces)
    )
    statuses = {f.status for f in faces}
    status = next(
        (s for s in ("degenerate", "inconclusive") if s in statuses), "nondegenerate_probable"
    )
    return NondegVerdict(
        status=status,
        faces=faces,
        convenient=geometry.convenient,
        missing_axes=tuple(c.missing_axes for c in geometry.convenience),
        seed=cfg.seed,
    )

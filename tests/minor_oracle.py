"""Reference evaluator for the rank-test objective: the minor loop.

This is the rank-test evaluator ``nondegen`` used before it moved
to the Gram-Schmidt determinant.  It evaluates every cell of the matrix
on its own and sums the squares of all C(n+p, p) maximal minors, so it
follows the definition of the objective with no identity in between.
Tests compare the compiled evaluator against it.
"""

from __future__ import annotations

import itertools

import numpy as np


class MinorLoopMDelta:
    """Vectorised float evaluation of the matrix and its minor objective."""

    def __init__(self, matrix):
        self.n = matrix.n
        self.p = matrix.p
        self.ncols = matrix.n + matrix.p
        self.cells = []
        for i, row in enumerate(matrix.entries):
            for j, poly in enumerate(row):
                if poly.terms:
                    exps = np.array(sorted(poly.terms), dtype=np.int64)
                    coeffs = np.array(
                        [float(poly.terms[tuple(e)]) for e in exps], dtype=float
                    )
                    self.cells.append((i, j, exps, coeffs))
        self.row_gauges = []
        self.zero_row = False
        for i, row in enumerate(matrix.entries):
            principal = row[matrix.n + i]
            if not principal.terms:
                self.zero_row = True
                self.row_gauges.append(None)
            else:
                self.row_gauges.append(
                    np.array(sorted(principal.terms), dtype=np.int64)
                )
        self.combos = list(itertools.combinations(range(self.ncols), self.p))

    def matrices(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((X.shape[0], self.p, self.ncols))
        for i, j, exps, coeffs in self.cells:
            powers = X[:, None, :] ** exps[None, :, :]
            out[:, i, j] = powers.prod(axis=2) @ coeffs
        return out

    def raw_objective(self, X: np.ndarray) -> np.ndarray:
        mats = self.matrices(X)
        raw = np.zeros(mats.shape[0])
        for combo in self.combos:
            raw += np.linalg.det(mats[:, :, combo]) ** 2
        return raw

    def normalized(self, X: np.ndarray) -> np.ndarray:
        """Minor objective divided by the squared product of row gauges."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        raw = self.raw_objective(X)
        if self.zero_row:
            return np.zeros_like(raw)
        scale = np.ones_like(raw)
        absX = np.abs(X)
        for exps in self.row_gauges:
            powers = absX[:, None, :] ** exps[None, :, :]
            scale *= powers.prod(axis=2).sum(axis=1) ** 2
        return raw / scale

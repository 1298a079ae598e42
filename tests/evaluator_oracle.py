"""Reference float evaluator for a polynomial system: one table per polynomial.

This is the evaluator ``verify._CompiledSystem`` used before it moved to
one compiled map over the union support of the components and their
partials.  It compiles every component and every partial derivative on
its own support (p * (n + 1) exponent arrays) and evaluates each one
separately.  Tests compare the compiled map against it.
"""

from __future__ import annotations

import numpy as np


class PerPolynomialSystem:
    """Batched float evaluation of components and their gradients."""

    def __init__(self, system):
        self.system = system
        self.n = system.n
        self.p = system.p
        self._values = [self._compile(f.terms) for f in system.polys]
        self._grads = [
            [self._compile(f.partial(j).terms) for j in range(self.n)]
            for f in system.polys
        ]

    @staticmethod
    def _compile(terms):
        if not terms:
            return None
        exps = np.array(sorted(terms), dtype=np.int64)
        coeffs = np.array([float(terms[tuple(e)]) for e in exps])
        return exps, coeffs

    def _eval(self, compiled, X):
        if compiled is None:
            return np.zeros(X.shape[0])
        exps, coeffs = compiled
        return (X[:, None, :] ** exps[None, :, :]).prod(axis=2) @ coeffs

    def _check(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n:
            raise ValueError(
                f"points of length {X.shape[1]} for a {self.n}-variable system"
            )
        return X

    def values(self, X) -> np.ndarray:
        X = self._check(X)
        return np.stack([self._eval(c, X) for c in self._values], axis=1)

    def grads(self, X) -> np.ndarray:
        X = self._check(X)
        out = np.zeros((X.shape[0], self.p, self.n))
        for i in range(self.p):
            for j in range(self.n):
                out[:, i, j] = self._eval(self._grads[i][j], X)
        return out

    def values_one(self, x) -> np.ndarray:
        return self.values(np.asarray(x, dtype=float)[None, :])[0]

    def grads_one(self, x) -> np.ndarray:
        return self.grads(np.asarray(x, dtype=float)[None, :])[0]

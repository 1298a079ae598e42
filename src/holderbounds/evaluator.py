"""The compiled float evaluator: several polynomials at many points.

One compiled map holds several polynomials over the sorted union of their
supports, an integer exponent matrix plus a float coefficient matrix with
one column per polynomial, so one monomial table serves every column.
``nondegen`` evaluates its rank-test rows through it and ``verify`` its
components and their partials.  It is the float side of the polynomial
layer, kept apart so that ``polysys`` and ``newton`` import no numpy.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from .polysys import Polynomial

try:
    # The C routine behind ``np.einsum``: the same sums, without the
    # Python wrapper's microsecond per call.
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # another numpy layout
    _einsum = np.einsum


class ValueOverflowError(ValueError):
    """The system's values, or its coefficients, overflow floating point."""


class _CompiledMap:
    """Float evaluation of several polynomials over one sorted union support.

    Row k of ``exps`` is the k-th monomial of the union and ``coeffs[k, i]``
    its coefficient in polynomial i (0.0 where i lacks it).

    Monomials come from per-variable integer-power ladders, with no
    ``pow``: x^0 = 1, x^1 = x and x^e = x^(e//2) * x^(e - e//2), and
    x^kappa multiplies its variables' rungs in variable order.  So the
    bits of x^kappa depend on kappa and x alone, never on the rest of the
    support or of the batch.  (numpy's float ``pow`` costs about 70 ns an
    entry on negative bases; a multiply costs about 1 ns.)  The ladder
    holds only the rungs the support reaches by that rule, about
    2 log2(e) of them for a top exponent e, not one per exponent up to e.
    """

    def __init__(self, polys: Sequence[Polynomial], nvars: int):
        support = sorted(set().union(*(f.terms for f in polys)))
        self.nvars = nvars
        self.exps = np.array(support, dtype=np.int64).reshape(len(support), nvars)
        try:
            coeffs = np.array([[float(f.terms.get(e, 0)) for f in polys] for e in support])
        except OverflowError:
            raise ValueOverflowError("a coefficient lies outside the floating-point range") from None
        self._set_coeffs(coeffs.reshape(-1, len(polys)))
        # Slot k of the ladder holds x^powers[k]; powers increase, so the
        # two lower rungs whose product is rung e come before it.
        powers = _rung_closure(self.exps)
        slot = {e: k for k, e in enumerate(powers)}
        self._rungs = [(slot[e], slot[e // 2], slot[e - e // 2]) for e in powers[2:]]
        # _flat[j, k] is the row of x_j^kappa_j, for monomial k, in the
        # ladder flattened to (rungs * n, m).
        self._flat = (np.searchsorted(powers, self.exps) * nvars + np.arange(nvars)).T.copy()

    def _set_coeffs(self, coeffs: np.ndarray) -> None:
        self.coeffs = coeffs
        # einsum adds in support order over two or more columns; over one
        # it may take a SIMD loop whose partial sums depend on the layout,
        # so a lone polynomial is contracted beside a zero column.
        self._weights = coeffs if coeffs.shape[1] > 1 else np.hstack([coeffs, 0 * coeffs])

    def _points(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.nvars:
            raise ValueError(
                f"points of length {X.shape[-1]} for a {self.nvars}-variable system"
            )
        return X

    def table(self, X, flat=None) -> np.ndarray:
        """x^kappa for every kappa of the support (rows) and every point
        (columns), from coordinates X of shape (n, m) whose column i is
        point i: monomial-major, so each monomial is one contiguous row.
        A batch of points held one per row is passed as ``X.T``; ``flat``,
        columns of ``_flat``, picks the monomials."""
        flat = self._flat if flat is None else flat
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.nvars:
            raise ValueError(
                f"coordinates of shape {X.shape} for a {self.nvars}-variable system"
            )
        ladder = np.empty((len(self._rungs) + 2, self.nvars, X.shape[1]))
        ladder[0] = 1.0
        ladder[1] = X
        for k, lo, hi in self._rungs:
            np.multiply(ladder[lo], ladder[hi], out=ladder[k])
        ladder = ladder.reshape(len(ladder) * self.nvars, X.shape[1])
        out = ladder.take(flat[0], axis=0) if self.nvars else np.ones((flat.shape[1], X.shape[1]))
        for rows in flat[1:]:
            out *= ladder.take(rows, axis=0)
        return out

    def contract(self, table: np.ndarray) -> np.ndarray:
        """Every polynomial (columns) at every point (rows) from a table.

        ``einsum`` sums each entry over the monomials in support order,
        whatever else shares the call; a BLAS product does not (gemm's
        blocking depends on the batch, and a one-row product goes to
        gemv), so a point alone and the same point inside any batch would
        round differently.
        """
        return _einsum("km,kj->jm", table, self._weights)[: self.coeffs.shape[1]].T

    def split(self, stop: int) -> tuple["_CompiledMap", "_CompiledMap"]:
        """Two maps over this support: polynomials [0, stop) and [stop, ...).

        Both read the same monomial table, so a caller that needs the
        second block only sometimes builds one table and contracts only
        the columns it needs.
        """
        head, tail = copy.copy(self), copy.copy(self)
        head._set_coeffs(np.ascontiguousarray(self.coeffs[:, :stop]))
        tail._set_coeffs(np.ascontiguousarray(self.coeffs[:, stop:]))
        return head, tail

    def __call__(self, X) -> np.ndarray:
        """Every polynomial (columns) at every row of X; one point is a
        batch of one row, with the same bits as in any other batch."""
        return self.contract(self.table(np.atleast_2d(self._points(X)).T))


def _rung_closure(exps: np.ndarray) -> list[int]:
    """0, 1 and every exponent in ``exps``, closed under e -> (e//2, e - e//2),
    in increasing order."""
    powers = {0, 1}
    todo = set(exps.ravel().tolist())
    while todo:
        e = todo.pop()
        if e not in powers:
            powers.add(e)
            todo.update((e // 2, e - e // 2))
    return sorted(powers)

"""The dense power ladder ``evaluator._CompiledMap`` had before it kept
only the rungs its support needs: one rung for every exponent from 2 up to
the top exponent, each at the slot named by its exponent.  Each rung is
the same product of the same two lower rungs, so the sparse ladder must
give the same bits."""

from __future__ import annotations

import numpy as np

from holderbounds.evaluator import _monomial_program


def dense_rungs(exps: np.ndarray) -> list[tuple[int, int, int]]:
    top = int(exps.max(initial=1))
    return [(e, e // 2, e - e // 2) for e in range(2, top + 1)]


def dense_table(exps: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x^kappa for every kappa of ``exps`` (rows) and every column of X."""
    rungs = dense_rungs(exps)
    ladder = np.empty((len(rungs) + 2, exps.shape[1], X.shape[1]))
    ladder[0] = 1.0
    ladder[1] = X
    for e, lo, hi in rungs:
        np.multiply(ladder[lo], ladder[hi], out=ladder[e])
    out = ladder[exps[:, 0], 0]
    for j in range(1, exps.shape[1]):
        out *= ladder[exps[:, j], j]
    return out


def dense_monomials(exps: np.ndarray):
    """The straight-line single-point program over every dense rung."""
    support = [tuple(kappa) for kappa in exps.tolist()]
    return _monomial_program(support, exps.shape[1], dense_rungs(exps))

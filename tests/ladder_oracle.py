"""Reference power ladders for ``evaluator._CompiledMap``.

The dense ladder is the one the map had before it kept only the rungs
its support needs: one rung for every exponent from 2 up to the top
exponent, each at the slot named by its exponent.  Each rung is the same
product of the same two lower rungs, so the sparse ladder must give the
same bits.

The single-point program is the map's old one-point evaluator, kept
here since single points go through the batched map: straight-line
Python over one point's coordinates, so every multiply rounds in Python
floats instead of numpy.  A point's batch row must equal its program's
row, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from holderbounds.evaluator import _rung_closure


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


def monomial_program(support: Sequence[tuple[int, ...]], nvars: int, rungs):
    """A function from one point's coordinates (a list of floats) to its
    monomials over ``support``, by the ladder rule of ``_CompiledMap``.

    It is straight-line Python generated once per map.  A factor
    x_j^0 = 1 is left out, which changes no bit of the product.
    """

    def rung(j: int, e: int) -> str:
        return f"x{j}" if e == 1 else f"x{j}_{e}"

    lines = ["".join(f"{rung(j, 1)}, " for j in range(nvars)) + "= x"]
    lines += [f"{rung(j, e)} = {rung(j, lo)} * {rung(j, hi)}" for j in range(nvars) for e, lo, hi in rungs]
    monomials = [
        " * ".join(rung(j, e) for j, e in enumerate(kappa) if e) or "1.0" for kappa in support
    ]
    lines.append(f"return [{', '.join(monomials)}]")
    namespace: dict = {}
    exec("def monomials(x):\n    " + "\n    ".join(lines), namespace)
    return namespace["monomials"]


def dense_monomials(exps: np.ndarray):
    """The straight-line single-point program over every dense rung."""
    support = [tuple(kappa) for kappa in exps.tolist()]
    return monomial_program(support, exps.shape[1], dense_rungs(exps))


def sparse_monomials(exps: np.ndarray):
    """The straight-line single-point program over the rungs the map holds."""
    support = [tuple(kappa) for kappa in exps.tolist()]
    rungs = [(e, e // 2, e - e // 2) for e in _rung_closure(exps)[2:]]
    return monomial_program(support, exps.shape[1], rungs)


def single_point(cmap):
    """All polynomials of ``cmap`` at one point (no batch axis), from the
    sparse program's monomials contracted as the map contracts a table."""
    monomials = sparse_monomials(cmap.exps)

    def at(x) -> np.ndarray:
        row = np.array(monomials(np.asarray(x, dtype=float).tolist()), dtype=float)
        return np.einsum("k,kj->j", row, cmap._weights)[: cmap.coeffs.shape[1]]

    return at

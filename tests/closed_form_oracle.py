"""The float closed form that ``nondegen._closed_form`` replaced.

It decided a vertex or edge by the same Sturm counts, then turned each
critical root u of the objective G / H^2 into a torus point on its orbit,
x = exp(log u v / |v|^2) with an odd coordinate flipped for t = -u, and
evaluated the float rank test there.  ``minimum`` is the value
``nondegen._certify`` took as the face's minimum: the least of those
values and of the exact limits rounded to a float.  The face went to the
search when that value was NaN or at most 10 ``tau_zero``.
"""

from __future__ import annotations

import math

import numpy as np

from holderbounds.evaluator import ValueOverflowError
from holderbounds.nondegen import (
    MDeltaMatrix,
    _edge_polynomials,
    _padd,
    _pderiv,
    _pmul,
    _ptrim,
    _RankTest,
    _Sturm,
)


def closed_form(matrix: MDeltaMatrix):
    """(limit, points) on a face of dimension 0 or 1 whose objective G / H^2
    has no zero on the torus, else None.

    ``limit`` is the least of the objective's limits at t -> 0 and
    t -> inf, exact, and ``points`` (one per column) are torus points on the
    orbits of its critical points: t = +u or -u, for each root u > 0 of
    G'H - 2GH' with G(t) or G(-t) in the place of G.
    """
    data = _edge_polynomials(matrix)
    if data is None:
        return None
    G, H, v = data
    mirrored = [-c if k % 2 else c for k, c in enumerate(G)]
    if _Sturm(G).positive_count() or _Sturm(mirrored).positive_count():
        return None
    limit = min(G[0], G[-1])
    norm2 = sum(c * c for c in v)
    odd = next((j for j, c in enumerate(v) if c % 2), None)
    points = []
    for sign, branch in ((1, G), (-1, mirrored)):
        crit = _ptrim(_padd(_pmul(_pderiv(branch), H), [-2 * c for c in _pmul(branch, _pderiv(H))]))
        for u in _Sturm(crit).positive_roots() if crit else ():
            if u == 0.0:
                raise ValueOverflowError("a face's critical point lies below the floating-point range")
            x = np.exp(math.log(u) * np.array(v) / norm2)
            x[odd] *= sign
            points.append(x)
    return limit, np.array(points, dtype=float).reshape(-1, matrix.n).T


def minimum(matrix: MDeltaMatrix) -> float | None:
    """The float minimum the closed form reported, or None where the face
    has a vanishing part, dimension 2 or more, or a real root of G."""
    form = closed_form(matrix)
    if form is None:
        return None
    limit, points = form
    try:
        reported = float(limit)
    except OverflowError:
        reported = math.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = _RankTest([matrix]).normalized(points, 0)
    return float(np.min(values, initial=reported))

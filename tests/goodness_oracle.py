"""Reference goodness probe: one scipy Nelder-Mead run per (ring, start).

This is ``verify.probe_goodness`` as it was before the searches ran in
lockstep.  Each ring's slopes come from ``_slope_from_data`` one sample
at a time, and each of the ring's best samples starts its own
``scipy.optimize.minimize(method="Nelder-Mead")`` over the sphere.  The
library runs every ring's starts in one batched Nelder-Mead
(``verify._nelder_mead``) and must return the same report, bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from holderbounds.polysys import PolySystem
from holderbounds.verify import (
    GoodnessReport,
    RingFloor,
    SamplePlan,
    _CompiledSystem,
    _slope_from_data,
)


def _ring_slopes(comp, X, p):
    """Slopes, the mask of positive samples, and the number of samples
    outside S (``fmax <= 0`` fails) whose slope is not finite."""
    values, grads = comp(X)
    fmax = values.max(axis=1)
    mask = fmax > 0
    slopes = np.full(X.shape[0], np.nan)
    overflowed = 0
    for i in range(len(X)):
        if mask[i]:
            slopes[i] = _slope_from_data(values[i], grads[i], p).value
        if not fmax[i] <= 0 and not np.isfinite(slopes[i]):
            overflowed += 1
    return slopes, mask, overflowed


def probe_goodness(
    system: PolySystem,
    plan: SamplePlan,
    refine_starts: int = 6,
    refine_iters: int = 400,
) -> GoodnessReport:
    """Minimum observed slope on spheres of growing radius.

    Reports, per radius, the smallest slope among positive-residual
    sample points, sharpened by derivative-free minimisation over the
    sphere from the best samples (thin slope valleys are far narrower
    than uniform sampling can resolve).  The trend across radii is a
    reported observation, never a proof of goodness at infinity.
    """
    if not plan.rings:
        raise ValueError("probe_goodness needs plan.rings")
    comp = _CompiledSystem(system)
    n, p = system.n, system.p
    floors = []
    for index, radius in enumerate(plan.rings):
        rng = np.random.default_rng(
            np.random.SeedSequence(plan.seed, spawn_key=(index,))
        )
        U = rng.standard_normal((plan.count, n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        X = radius * U
        slopes, mask, overflowed = _ring_slopes(comp, X, p)
        if not mask.any():
            floors.append(RingFloor(float(radius), None, 0, overflowed))
            continue
        floor = float(np.nanmin(slopes))

        def sphere_slope(u):
            norm = np.linalg.norm(u)
            if norm < 1e-9:
                return np.inf
            point = radius * u / norm
            values, jac = comp.one(point)
            if values.max() <= 0:
                return np.inf
            return _slope_from_data(values, jac, p).value

        order = np.argsort(np.where(np.isnan(slopes), np.inf, slopes))
        for start in order[:refine_starts]:
            res = optimize.minimize(
                sphere_slope,
                U[start],
                method="Nelder-Mead",
                options={"maxiter": refine_iters, "xatol": 1e-10, "fatol": 1e-12},
            )
            if np.isfinite(res.fun):
                floor = min(floor, float(res.fun))
        floors.append(RingFloor(float(radius), floor, int(mask.sum()), overflowed))

    valid = [r.floor for r in floors if r.floor is not None]
    if len(valid) < 2:
        trend = "n/a"
    elif valid[-1] <= 0.25 * valid[0]:
        trend = "decaying"
    else:
        trend = "consistent"
    return GoodnessReport(rings=tuple(floors), trend=trend, seed=plan.seed)

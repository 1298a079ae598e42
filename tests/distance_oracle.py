"""Reference distance oracle: one query at a time, one SLSQP projection per anchor.

This is ``verify.DistanceOracle.distance`` as it was before queries were
projected in lockstep.  Each query walks its anchors nearest first; each
anchor gets an SLSQP projection (penalty continuation when that ends
infeasible) and a Gauss-Newton polish by ``np.linalg.lstsq``; the walk
stops after ``stall_limit`` anchors in a row fail to tighten the bound,
and the query's own polish is tried last.  It shares the anchor pool
with the oracle under test, so a difference between the two comes from
the projection method alone.  ``_project_slsqp`` is the per-anchor
SLSQP projection the library's lockstep rows once fell back to; the
penalty continuation was only ever this oracle's.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from holderbounds.verify import DistanceOracle, DistanceResult

from conftest import at_point

PENALTY_SCHEDULE = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


class SequentialDistanceOracle(DistanceOracle):
    def _project_slsqp(self, x, start):
        def objective(a):
            d = a - x
            return float(d @ d), 2.0 * d

        # SLSQP asks for the values and then the Jacobian at the same
        # iterate; one compiled-map call serves both.
        last: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

        def at(a):
            key = a.tobytes()
            if key not in last:
                last.clear()
                last[key] = at_point(self.comp, a)
            return last[key]

        constraints = {
            "type": "ineq",
            "fun": lambda a: -at(a)[0],
            "jac": lambda a: -at(a)[1],
        }
        res = optimize.minimize(
            objective,
            start,
            jac=True,
            method="SLSQP",
            constraints=[constraints],
            options={"maxiter": 200, "ftol": 1e-14},
        )
        return res.x

    def _project_penalty(self, x, start):
        a = np.asarray(start, dtype=float).copy()
        for mu in PENALTY_SCHEDULE:

            def objective(v):
                d = v - x
                values, jac = at_point(self.comp, v)
                pos = np.maximum(values, 0.0)
                return float(d @ d + mu * (pos**2).sum()), 2.0 * d + 2.0 * mu * pos @ jac

            res = optimize.minimize(
                objective, a, jac=True, method="L-BFGS-B",
                options={"maxiter": 150},
            )
            a = res.x
        return a

    def _polish_one(self, x):
        """Gauss-Newton push onto the feasible side."""
        x = np.asarray(x, dtype=float).copy()
        for _ in range(self.cfg.polish_iters):
            values, jac = at_point(self.comp, x)
            active = values > self.cfg.tau_feas * 0.1
            if not active.any():
                break
            J, r = jac[active], values[active]
            if np.linalg.norm(J) < 1e-12:
                break
            step, *_ = np.linalg.lstsq(J, r, rcond=None)
            if not np.isfinite(step).all() or np.linalg.norm(step) > 1e3:
                break
            x = x - step
        return x

    def distance(self, x) -> DistanceResult:
        x = np.asarray(x, dtype=float)
        cfg = self.cfg
        values = at_point(self.comp, x)[0]
        if values.max() <= cfg.tau_feas:
            return DistanceResult(0.0, tuple(float(v) for v in x), float(values.max()))

        pool = self.feasible_pool()
        dists = np.linalg.norm(pool - x, axis=1)
        order = np.argsort(dists)
        best_d, best_a = float(dists.min()), pool[int(dists.argmin())]

        stalls = 0
        for rank in order[: cfg.multistarts]:
            anchor = pool[rank]
            candidate = self._polish_one(self._project_slsqp(x, anchor))
            violation = at_point(self.comp, candidate)[0].max()
            if violation > cfg.tau_feas:
                candidate = self._polish_one(self._project_penalty(x, anchor))
                violation = at_point(self.comp, candidate)[0].max()
            improved = False
            if violation <= cfg.tau_feas:
                d = float(np.linalg.norm(candidate - x))
                if d < best_d - 1e-12:
                    best_d, best_a = d, candidate
                    improved = True
            stalls = 0 if improved else stalls + 1
            if stalls >= cfg.stall_limit:
                break
        own = self._polish_one(x)
        d = float(np.linalg.norm(own - x))
        if d < best_d and at_point(self.comp, own)[0].max() <= cfg.tau_feas:
            best_d, best_a = d, own
        return DistanceResult(
            best_d,
            tuple(float(v) for v in best_a),
            float(at_point(self.comp, best_a)[0].max()),
        )

"""Reference distance oracle: one query at a time, one SLSQP projection per anchor.

This is ``verify.DistanceOracle.distance`` as it was before queries were
projected in lockstep.  Each query walks its anchors nearest first; each
anchor gets an SLSQP projection (penalty continuation when that ends
infeasible) and a Gauss-Newton polish by ``np.linalg.lstsq``; the walk
stops after ``stall_limit`` anchors in a row fail to tighten the bound,
and the query's own polish is tried last.  It shares the anchor pool and
the SLSQP and penalty projections with the oracle under test, so a
difference between the two comes from the projection method alone.
"""

from __future__ import annotations

import numpy as np

from holderbounds.verify import DistanceOracle, DistanceResult


class SequentialDistanceOracle(DistanceOracle):
    def _polish_one(self, x):
        """Gauss-Newton push onto the feasible side."""
        x = np.asarray(x, dtype=float).copy()
        for _ in range(self.cfg.polish_iters):
            values, jac = self.comp.one(x)
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
        values = self.comp.values_one(x)
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
            violation = self.comp.values_one(candidate).max()
            if violation > cfg.tau_feas:
                candidate = self._polish_one(self._project_penalty(x, anchor))
                violation = self.comp.values_one(candidate).max()
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
        if d < best_d and self.comp.values_one(own).max() <= cfg.tau_feas:
            best_d, best_a = d, own
        return DistanceResult(
            best_d,
            tuple(float(v) for v in best_a),
            float(self.comp.values_one(best_a).max()),
        )

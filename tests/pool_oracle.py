"""Reference anchor pool: one scipy L-BFGS-B run per infeasible start.

This is ``verify.DistanceOracle.feasible_pool`` as it was before the
starts descended together.  The starts are the same draws in the same
order; each infeasible start minimises the squared violation
``sum_i [f_i]_+^2`` by ``scipy.optimize.minimize(method="L-BFGS-B")``
(200 iterations), every start is then polished by the library's
``_polish``, and the feasible ones enter the pool in start order unless
within 1e-7 of an earlier anchor.  A start that is already feasible
skips the minimisation, so where every start is feasible the library's
pool must equal this one bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from holderbounds.verify import DistanceOracle, FeasibleSetEmptyError

from conftest import at_point


class LbfgsbPoolOracle(DistanceOracle):
    def _violation(self, x):
        """Squared positive part of f at x and its gradient."""
        values, jac = at_point(self.comp, x)
        pos = np.maximum(values, 0.0)
        return float((pos**2).sum()), 2.0 * pos @ jac

    def starts(self):
        """The draws the pool starts from, in start order, and their scores."""
        cfg = self.cfg
        n = self.system.n
        box = cfg.search_box or tuple((-5.0, 5.0) for _ in range(n))
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(101,)))
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        draws = rng.uniform(lo, hi, size=(cfg.grid_points, n))
        scores = (np.maximum(self.comp(draws)[0], 0.0) ** 2).sum(axis=1)
        order = np.argsort(scores)[: max(16, cfg.multistarts)]
        return draws[order], scores[order]

    def feasible_pool(self) -> np.ndarray:
        if self._pool is not None:
            return self._pool
        cfg = self.cfg
        found = []
        if cfg.known_feasible:
            known = self._polish(np.array(cfg.known_feasible, dtype=float))
            values = self.comp(known)[0].max(axis=1)
            found.extend(known[values <= cfg.tau_feas])
        for start, score in zip(*self.starts()):
            if score > 0:
                res = optimize.minimize(
                    self._violation,
                    start,
                    jac=True,
                    method="L-BFGS-B",
                    options={"maxiter": 200},
                )
                start = res.x
            point = self._polish(start[None])[0]
            if at_point(self.comp, point)[0].max() <= cfg.tau_feas:
                if not any(np.linalg.norm(point - q) < 1e-7 for q in found):
                    found.append(point)
            if len(found) >= cfg.multistarts:
                break
        if not found:
            raise FeasibleSetEmptyError(
                "no feasible point found within budget; S is possibly empty"
            )
        self._pool = np.array(found)
        return self._pool

"""Reference distance-oracle kernel: one map call per halving, one record per row.

This is ``verify.DistanceOracle``'s kernel as it was before the line
searches backtracked in blocks: the SQP line search of ``_lockstep`` and
the pool's damped Gauss-Newton ``_descend`` try t = 1, 1/2, 1/4, ... one
map call at a time; ``_qp_steps`` solves every active set, one
constraint or more, by LAPACK and takes the QP objective of every row;
``_hessian`` checks every row's eigenvalues; the walk in ``_distances``
takes one ``np.linalg.norm`` per row; and the pool's dedup compares one
anchor at a time.  The polish,
the compiled map and the batching are the library's.  The library must
match it bit for bit.

``failed_sqp_searches`` and ``failed_pool_searches`` count the rows
whose line search in ``_lockstep`` and in ``_descend`` found no passing
halving of the 40, so that tests can show they reach that path.
"""

from __future__ import annotations

import numpy as np

from holderbounds.evaluator import ValueOverflowError
from holderbounds.verify import (
    _MULTIPLIER_CAP,
    _POOL_ITERS,
    _SQP_ITERS,
    _STEP_FLOOR,
    DistanceOracle,
    DistanceResult,
    FeasibleSetEmptyError,
    _squared_violation,
)


class SqpOracle(DistanceOracle):
    failed_sqp_searches = 0
    failed_pool_searches = 0

    def _descend(self, X):
        """Damped Gauss-Newton descent of the squared violation from every row of X.

        Each row takes ``_gauss_newton_step``s of any length, each halved
        (at most 40 times) until it lowers ``_squared_violation``; a row
        stops when it has no step or no halving helps, or after
        ``_POOL_ITERS`` steps.  Rows never interact.
        """
        X = np.array(X, dtype=float)
        values, jac = self.comp(X)
        live = np.arange(X.shape[0])
        for _ in range(_POOL_ITERS):
            go, step = self._gauss_newton_step(values[live], jac[live])
            live, pending, t = live[go], np.arange(go.sum()), 1.0
            for _ in range(40):
                if pending.size == 0:
                    break
                rows = live[pending]
                trial = X[rows] - t * step[pending]
                trial_values, trial_jac = self.comp(trial)
                ok = _squared_violation(trial_values) < _squared_violation(values[rows])
                moved = rows[ok]
                X[moved], values[moved], jac[moved] = trial[ok], trial_values[ok], trial_jac[ok]
                pending, t = pending[~ok], 0.5 * t
            self.failed_pool_searches += pending.size
            live = np.delete(live, pending)
            if live.size == 0:
                break
        return X

    def feasible_pool(self) -> np.ndarray:
        """At most ``multistarts`` distinct feasible anchors.

        The starts are the ``max(16, multistarts)`` least infeasible of
        ``grid_points`` uniform draws in the search box, less those whose
        squared violation overflows.  The infeasible ones ``_descend``
        together; every start is then polished, and the feasible ones
        enter in start order unless within 1e-7 of an earlier anchor.
        """
        if self._pool is not None:
            return self._pool
        cfg = self.cfg
        n = self.system.n
        box = cfg.search_box or tuple((-5.0, 5.0) for _ in range(n))
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(101,)))
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        draws = rng.uniform(lo, hi, size=(cfg.grid_points, n))
        found = []
        if cfg.known_feasible:
            known = self._polish(np.array(cfg.known_feasible, dtype=float))
            values = self.comp(known)[0].max(axis=1)
            found.extend(known[values <= cfg.tau_feas])
        with np.errstate(over="ignore", invalid="ignore"):
            scores = _squared_violation(self.comp(draws)[0])
            picked = np.argsort(scores)[: max(16, cfg.multistarts)]
            picked = picked[scores[picked] < np.inf]
            starts, infeasible = draws[picked], scores[picked] > 0
            starts[infeasible] = self._descend(starts[infeasible])
            points = self._polish(starts)
            values = self.comp(points)[0].max(axis=1)
        for point, value in zip(points, values):
            if value <= cfg.tau_feas:
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

    def _qp_steps(self, g, f, J, H, gauge):
        """Solve min g.s + s'Hs/2 subject to f + J s <= 0, row by row.

        H is positive definite, so the QP's solution is the KKT point of
        one active set; every set of at most min(n, p) constraints is
        tried at once.  Past ``_QP_WIDTH`` the sets are drawn from each
        row's ``_qp_constraints`` constraints of largest value at its
        iterate only.  A set is valid when its Schur matrix J_A H^-1 J_A'
        is nonsingular, its multipliers are nonnegative and the step
        keeps every other linearised constraint, of all p; so a row whose
        drawn constraints miss the active ones finds no valid set.
        Returns the step and multipliers of the valid set with the least
        QP objective, and whether any set was valid.
        """
        rows, p, n = J.shape
        f_all, J_all = f, J
        if self._qp_constraints < p:
            drawn = np.argsort(-f, axis=1, kind="stable")[:, : self._qp_constraints]
            f, J = np.take_along_axis(f, drawn, 1), np.take_along_axis(J, drawn[:, :, None], 1)
        sol = np.linalg.solve(H, np.concatenate([g[:, :, None], J.transpose(0, 2, 1)], axis=2))
        w, W = sol[:, :, 0], sol[:, :, 1:]  # H^-1 g and H^-1 J'
        schur = np.einsum("rpj,rjq->rpq", J, W)
        rhs = f - np.einsum("rpj,rj->rp", J, w)
        count = 1 + sum(len(sets) for sets in self._active_sets)
        lam = np.zeros((rows, count, f.shape[1]))
        valid = np.ones((rows, count), dtype=bool)
        slot = 1  # slot 0 is the empty set
        for k, sets in enumerate(self._active_sets, start=1):
            # The Schur matrix scaled to a unit diagonal, so that a short
            # gradient alone neither counts as a dependent one nor costs
            # the solve its accuracy.
            M = schur[:, sets[:, :, None], sets[:, None, :]]
            diag = np.sqrt(np.abs(np.diagonal(M, axis1=-2, axis2=-1)))
            regular = (diag > 0).all(axis=-1)
            diag[~regular] = 1.0
            M = M / (diag[..., :, None] * diag[..., None, :])
            regular &= np.linalg.eigvalsh(M)[..., 0] > 1e-12
            M = np.where(regular[..., None, None], M, np.eye(k))
            sub = np.linalg.solve(M, (rhs[:, sets] / diag)[..., None])[..., 0] / diag
            slots = np.arange(slot, slot + len(sets))
            for column in range(k):
                lam[:, slots, sets[:, column]] = sub[..., column]
            valid[:, slots] = regular
            slot += len(sets)
        steps = -w[:, None, :] - np.einsum("rjq,rsq->rsj", W, lam)
        linear = f_all[:, None, :] + np.einsum("rpj,rsj->rsp", J_all, steps)
        # Tolerance of the linearised constraints: rounding in a step scales
        # with the unconstrained step w it corrects, even where the step is
        # tiny; where a gradient vanishes, the rounding of f and J (their
        # gauges) is all there is.
        size = np.linalg.norm(steps, axis=2) + np.linalg.norm(w, axis=1)[:, None]
        scale = np.abs(f_all)[:, None, :] + np.linalg.norm(J_all, axis=2)[:, None, :] * size[:, :, None]
        noise = gauge[0][:, None, :] + np.linalg.norm(gauge[1], axis=2)[:, None, :] * size[:, :, None]
        valid &= (linear <= 1e-12 * scale + 1e-15 * noise).all(axis=2)
        valid &= (lam >= -1e-10 * (1.0 + np.abs(lam).max(axis=2, keepdims=True))).all(axis=2)
        objective = np.einsum("rj,rsj->rs", g, steps) + 0.5 * np.einsum(
            "rsj,rsj->rs", steps, np.einsum("rjk,rsk->rsj", H, steps)
        )
        best = np.where(valid, objective, np.inf).argmin(axis=1)
        pick = np.arange(rows)
        lam = np.maximum(lam[pick, best], 0.0)
        if self._qp_constraints < p:
            drawn_lam, lam = lam, np.zeros((rows, p))
            np.put_along_axis(lam, drawn, drawn_lam, 1)
        return steps[pick, best], lam, valid.any(axis=1)

    @staticmethod
    def _hessian(mu, J, hess):
        """H = I + sum_i mu_i Hess f_i, made positive definite where needed.

        Where H is not, H + rho * sum_{mu_i > 0} grad f_i grad f_i' is
        tried for growing rho: on the constraints' tangent space it equals
        H, and on a correct active set the QP step does not change (the
        added term is constant there).  Where no rho works, H = I.
        """
        n = J.shape[2]
        H = np.eye(n) + np.einsum("rp,rpjk->rjk", mu, hess)
        Jmu = np.where(mu[:, :, None] > 0, J, 0.0)
        G = np.einsum("rpj,rpk->rjk", Jmu, Jmu)
        bad = np.flatnonzero(np.linalg.eigvalsh(H)[:, 0] <= 1e-8)
        base = np.linalg.norm(H[bad], axis=(1, 2)) / np.maximum(
            np.linalg.norm(G[bad], axis=(1, 2)), 1e-300
        )
        for rho in (1.0, 1e1, 1e2, 1e3, 1e4):
            if bad.size == 0:
                break
            trial = H[bad] + (rho * base)[:, None, None] * G[bad]
            fixed = np.linalg.eigvalsh(trial)[:, 0] > 1e-8
            H[bad[fixed]] = trial[fixed]
            bad, base = bad[~fixed], base[~fixed]
        H[bad] = np.eye(n)
        return H

    def _lockstep(self, X, A):
        """Project row i of X onto S by SQP from the anchor in row i of A.

        Each iteration evaluates f, J and the Hessians in one map call,
        takes the QP step with the Lagrangian Hessian of the previous
        multipliers (``_hessian``) and backtracks on the l1 merit
        |a - x|^2 / 2 + sum_i nu_i [f_i(a)]_+.  A row converges when its
        QP step is below the floor.  Returns the final points and whether
        each row converged; a row stops where it is when no active set is
        valid, when its multipliers pass the cap, when its line search
        fails short of the floor or when it reaches the iteration cap.
        """
        rows, n = X.shape
        A = np.array(A, dtype=float)
        mu = np.zeros((rows, self.system.p))
        nu = np.zeros((rows, self.system.p))
        converged = np.zeros(rows, dtype=bool)
        live = np.arange(rows)
        for _ in range(_SQP_ITERS):
            a, x = A[live], X[live]
            f, J, hess, gauge = self.comp.full(a)
            g = a - x
            H = self._hessian(mu[live], J, hess)
            s, lam, solved = self._qp_steps(g, f, J, H, gauge)
            gnorm = np.linalg.norm(g, axis=1)
            solved &= lam.max(axis=1, initial=0.0) <= _MULTIPLIER_CAP * (1.0 + gnorm)
            s[~solved] = 0.0
            # Powell's weights on 1.5 times the multipliers: the margin keeps
            # a correction step's decrease above rounding, and large weights
            # decay once the multipliers do (a weight stuck high rejects the
            # full step near the solution).
            weights = np.maximum(1.5 * lam, 0.5 * (nu[live] + 1.5 * lam)) + 1e-8
            nu[live] = weights
            excess = np.einsum("rp,rp->r", weights, np.maximum(f, 0.0))
            merit = 0.5 * gnorm**2 + excess
            slope = np.einsum("rj,rj->r", g, s) - excess
            t = np.ones(live.size)
            pending = np.flatnonzero(solved)
            for _ in range(40):
                if pending.size == 0:
                    break
                trial = a[pending] + t[pending, None] * s[pending]
                d = trial - x[pending]
                excess_t = np.einsum(
                    "rp,rp->r", weights[pending], np.maximum(self.comp(trial)[0], 0.0)
                )
                value = 0.5 * np.einsum("rj,rj->r", d, d) + excess_t
                ok = value <= merit[pending] + 1e-4 * t[pending] * slope[pending]
                t[pending[~ok]] *= 0.5
                pending = pending[~ok]
            self.failed_sqp_searches += pending.size
            t[pending] = 0.0
            A[live] = a + t[:, None] * s
            mu[live] = lam
            done = solved & (
                np.linalg.norm(s, axis=1) <= _STEP_FLOOR * (1.0 + np.linalg.norm(a, axis=1))
            )
            # A row whose line search failed short of its floor is stuck.
            solved[pending] = done[pending]
            converged[live[done]] = True
            live = live[solved & ~done]
            if live.size == 0:
                break
        return A, converged

    def _distances(self, X) -> list[DistanceResult]:
        cfg = self.cfg
        values = self.comp(X)[0].max(axis=1)
        # A NaN or +inf value leaves the residual, and so the query, unmeasurable.
        if not (values < np.inf).all():
            raise ValueOverflowError("the system's values overflow floating point at a queried point")
        out: list[DistanceResult | None] = [
            DistanceResult(0.0, tuple(float(v) for v in x), float(v)) if v <= cfg.tau_feas else None
            for x, v in zip(X, values)
        ]
        queries = np.flatnonzero(values > cfg.tau_feas)
        if queries.size == 0:
            return out
        pool = self.feasible_pool()
        Q = X[queries]
        dists = np.linalg.norm(pool[None, :, :] - Q[:, None, :], axis=2)
        order = np.argsort(dists, axis=1)[:, : cfg.multistarts]
        best_d = dists.min(axis=1)
        best_a = pool[dists.argmin(axis=1)]
        stalls = np.zeros(len(Q), dtype=int)
        walked = np.zeros(len(Q), dtype=int)
        ended = np.zeros(len(Q), dtype=bool)
        walking = list(range(len(Q))) if order.shape[1] else []
        # Rounds: project, for every query still walking, the anchors that
        # could end its walk, then advance the walks over the results.  A
        # converged row descends its merit from a feasible anchor, so the
        # first anchor's projection ends nearer than the anchor (the bound
        # so far) unless the anchor is already a local projection; it
        # improved on all 1,347 infeasible queries of the desk benchmark's
        # verify jobs at seeds 42 and 5.  So the first round takes one
        # anchor more and saves a round.
        while walking:
            rows = [
                (q, k)
                for q in walking
                for k in range(
                    walked[q],
                    min(
                        walked[q] + max(1, cfg.stall_limit - stalls[q]) + (walked[q] == 0),
                        order.shape[1],
                    ),
                )
            ]
            qs = np.array([q for q, _ in rows])
            anchors = pool[order[qs, [k for _, k in rows]]]
            points = self._polish(self._lockstep(Q[qs], anchors)[0])
            feasible = self.comp(points)[0].max(axis=1) <= cfg.tau_feas
            for row, (q, k) in enumerate(rows):
                if ended[q]:
                    continue
                improved = False
                if feasible[row]:
                    d = np.linalg.norm(points[row] - Q[q])
                    if d < best_d[q] - 1e-12:
                        best_d[q], best_a[q] = d, points[row]
                        improved = True
                stalls[q] = 0 if improved else stalls[q] + 1
                walked[q] = k + 1
                ended[q] = stalls[q] >= cfg.stall_limit or walked[q] == order.shape[1]
            walking = [q for q in walking if not ended[q]]
        own = self._polish(Q)
        own_d = np.linalg.norm(own - Q, axis=1)
        own_ok = (own_d < best_d) & (self.comp(own)[0].max(axis=1) <= cfg.tau_feas)
        best_d = np.where(own_ok, own_d, best_d)
        best_a[own_ok] = own[own_ok]
        violations = self.comp(best_a)[0].max(axis=1)
        for q, i in enumerate(queries):
            out[i] = DistanceResult(
                float(best_d[q]), tuple(float(v) for v in best_a[q]), float(violations[q])
            )
        return out

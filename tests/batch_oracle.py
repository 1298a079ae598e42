"""Reference batching of the distance oracle: 256-query chunks, every active set at once.

This is ``verify.DistanceOracle``'s projection as it was before a batch
was sized by a budget of floats: ``distances`` projects its queries in
chunks of ``CHUNK = 256``, ``_qp_steps`` builds the multipliers, steps
and tolerances of every QP active set in one (rows, sets, ...) array
each and picks among them after, and ``_lockstep`` and ``_distances``
keep every array of an iteration or a walk alive to its end.  The
compiled map, the pool, the polish and ``_hessian`` are the library's.
The library must match it bit for bit, the sign of zero included.
"""

from __future__ import annotations

import numpy as np

from holderbounds.evaluator import ValueOverflowError
from holderbounds.verify import (
    _MULTIPLIER_CAP,
    _SQP_ITERS,
    _STEP_FLOOR,
    DistanceOracle,
    DistanceResult,
    _backtrack,
    _quiet,
    _row_norms,
)

# Queries per lockstep batch.
CHUNK = 256


class ChunkedOracle(DistanceOracle):
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
            # A 1x1 matrix is its own eigenvalue, and its solve a division.
            least = M[..., 0, 0] if k == 1 else np.linalg.eigvalsh(M)[..., 0]
            regular &= least > 1e-12
            M = np.where(regular[..., None, None], M, np.eye(k))
            b = rhs[:, sets] / diag
            sub = (b / M[..., 0] if k == 1 else np.linalg.solve(M, b[..., None])[..., 0]) / diag
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
        # The QP objective decides only between valid sets: a row with one
        # (or none) takes its first.
        best = valid.argmax(axis=1)
        tied = np.flatnonzero(valid.sum(axis=1) > 1)
        step = steps[tied]
        objective = np.einsum("rj,rsj->rs", g[tied], step) + 0.5 * np.einsum(
            "rsj,rsj->rs", step, np.einsum("rjk,rsk->rsj", H[tied], step)
        )
        best[tied] = np.where(valid[tied], objective, np.inf).argmin(axis=1)
        pick = np.arange(rows)
        lam = np.maximum(lam[pick, best], 0.0)
        if self._qp_constraints < p:
            drawn_lam, lam = lam, np.zeros((rows, p))
            np.put_along_axis(lam, drawn, drawn_lam, 1)
        return steps[pick, best], lam, valid.any(axis=1)

    def _lockstep(self, X, A):
        """Project row i of X onto S by SQP from the anchor in row i of A.

        Each iteration evaluates f, J and the Hessians in one map call,
        takes the QP step with the Lagrangian Hessian of the previous
        multipliers (``_hessian``) and backtracks on the l1 merit
        |a - x|^2 / 2 + sum_i nu_i [f_i(a)]_+ by at most 40 halvings, in
        ``_backtrack``'s blocks.  A row converges when its
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
            searched = np.flatnonzero(solved)

            def trial(rows, t):
                rows = searched[rows]
                points = a[rows] + t[:, None] * s[rows]
                d = points - x[rows]
                excess_t = np.einsum(
                    "rp,rp->r", weights[rows], np.maximum(self.comp(points)[0], 0.0)
                )
                value = 0.5 * np.einsum("rj,rj->r", d, d) + excess_t
                return value <= merit[rows] + 1e-4 * t * slope[rows], ()

            t = np.ones(live.size)
            t[searched] = _backtrack(searched.size, trial)[0]
            failed = searched[t[searched] == 0]
            A[live] = a + t[:, None] * s
            mu[live] = lam
            done = solved & (
                np.linalg.norm(s, axis=1) <= _STEP_FLOOR * (1.0 + np.linalg.norm(a, axis=1))
            )
            # A row whose line search failed short of its floor is stuck.
            solved[failed] = done[failed]
            converged[live[done]] = True
            live = live[solved & ~done]
            if live.size == 0:
                break
        return A, converged

    @_quiet
    def distances(self, X) -> list[DistanceResult]:
        """Distance upper bounds for every row of X (see the class docstring)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("distances takes a 2-d array with one point per row")
        out: list[DistanceResult] = []
        for start in range(0, X.shape[0], CHUNK):
            out.extend(self._distances(X[start : start + CHUNK]))
        return out

    def _distances(self, X) -> list[DistanceResult]:
        cfg = self.cfg
        values = self.comp(X)[0].max(axis=1)
        # A NaN or +inf value leaves the residual, and so the query, unmeasurable.
        if not (values < np.inf).all():
            raise ValueOverflowError("the system's values overflow floating point at a queried point")
        out: list[DistanceResult | None] = [
            DistanceResult(0.0, tuple(x), v) if v <= cfg.tau_feas else None
            for x, v in zip(X.tolist(), values.tolist())
        ]
        queries = np.flatnonzero(values > cfg.tau_feas)
        if queries.size == 0:
            return out
        pool = self.feasible_pool()
        Q = X[queries]
        dists = np.linalg.norm(pool[None, :, :] - Q[:, None, :], axis=2)
        order = np.argsort(dists, axis=1)[:, : cfg.multistarts]
        width = order.shape[1]
        best_d = dists.min(axis=1).tolist()
        best_a = pool[dists.argmin(axis=1)]
        stalls = [0] * len(Q)
        walked = [0] * len(Q)
        ended = [False] * len(Q)
        walking = list(range(len(Q)))
        # Rounds: project, for every query still walking, the anchors that
        # could end its walk, then advance the walks over the results.  A
        # converged row descends its merit from a feasible anchor, so the
        # first anchor's projection ends nearer than the anchor (the bound
        # so far) unless the anchor is already a local projection.  So the
        # first round takes one anchor more and saves a round.
        while walking:
            rows = [
                (q, k)
                for q in walking
                for k in range(
                    walked[q],
                    min(walked[q] + max(1, cfg.stall_limit - stalls[q]) + (walked[q] == 0), width),
                )
            ]
            qs = np.array([q for q, _ in rows])
            anchors = pool[order[qs, [k for _, k in rows]]]
            points = self._polish(self._lockstep(Q[qs], anchors)[0])
            feasible = (self.comp(points)[0].max(axis=1) <= cfg.tau_feas).tolist()
            gaps = _row_norms(points - Q[qs]).tolist()
            nearest = {}  # query -> its row of this round that tightened its bound last
            for row, (q, k) in enumerate(rows):
                if ended[q]:
                    continue
                improved = feasible[row] and gaps[row] < best_d[q] - 1e-12
                if improved:
                    best_d[q] = gaps[row]
                    nearest[q] = row
                stalls[q] = 0 if improved else stalls[q] + 1
                walked[q] = k + 1
                ended[q] = stalls[q] >= cfg.stall_limit or walked[q] == width
            best_a[list(nearest)] = points[list(nearest.values())]
            walking = [q for q in walking if not ended[q]]
        own = self._polish(Q)
        own_d = np.linalg.norm(own - Q, axis=1)
        own_ok = (own_d < best_d) & (self.comp(own)[0].max(axis=1) <= cfg.tau_feas)
        best_d = np.where(own_ok, own_d, best_d)
        best_a[own_ok] = own[own_ok]
        violations = self.comp(best_a)[0].max(axis=1)
        records = zip(best_d.tolist(), best_a.tolist(), violations.tolist())
        for i, (d, a, v) in zip(queries.tolist(), records):
            out[i] = DistanceResult(d, tuple(a), v)
        return out

"""Empirical verification of Hölder-type global error bounds.

Given a polynomial inequality system with feasible set
``S = {x : f_i(x) <= 0 for all i}``, this module measures, sample by
sample, the residual ``[f(x)]_+ = max(0, max_i f_i(x))``, an upper bound
on the Euclidean distance ``d(x, S)``, and the nonsmooth slope of the
max function, then fits the best empirical constant ``c`` in

    c * d(x, S) <= [f(x)]_+^alpha + [f(x)]_+.

Distances to a semialgebraic set are NP-hard in general, so the oracle
is an upper-bound estimator: local projections from the nearest points
of a feasible anchor pool, plus the Gauss-Newton projection of the query
itself.  The pool comes from a feasibility grid: its least infeasible
draws descend together by damped Gauss-Newton steps on the squared
violation.  All queries are projected
together: each (query, anchor) pair is one row of a batched SQP
iteration with the exact Lagrangian Hessian, whose QP subproblems are
solved by enumerating active sets.  Rows where SQP fails (no valid active
set, multipliers blowing up where a constraint gradient vanishes on S,
or no convergence within the iteration cap) fall back to a per-anchor
SLSQP projection, as do all rows of a system with too many constraints
to enumerate their active sets; an anchor whose projection still ends
infeasible is dropped.  Each bound is a local projection: on a
nonconvex S the SQP descent can settle in a farther local minimum than
the SLSQP projection alone reached from the same anchor (SLSQP's early
steps can jump to another basin), and in a nearer one as often.  Upper
bounds make every fitted constant conservative in the safe direction
(ratios can only shrink).  Components, their partials and second
partials are evaluated together through one compiled map
(``evaluator._CompiledMap``), whose rows do not depend on the batch they
are evaluated in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .bounds import ExponentReport
from .evaluator import _CompiledMap
from .polysys import PolySystem, rational_str


class FeasibleSetEmptyError(RuntimeError):
    """No feasible point was found within the search budget."""


class ValueOverflowError(ValueError):
    """The system's values overflow floating point at a point."""


def _minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use: loading scipy
    costs more than half a second and tens of MB, which every run that
    never needs it would pay for nothing.  Only the distance oracle's SLSQP
    fallback calls it; the anchor pool and the lockstep projections run
    on numpy alone."""
    from scipy import optimize

    return optimize.minimize(*args, **kwargs)


# -- compiled float views ----------------------------------------------------------


class _CompiledSystem:
    """Values, Jacobian and second partials of a system from one compiled map.

    One support covers f_1..f_p, the partials d f_i / d x_j (row-major
    in i) and the second partials d^2 f_i / d x_j d x_k.  ``_map`` holds
    the columns of the values and partials, ``_hess`` those of the second
    partials; ``full`` contracts one monomial table with both, every
    other call with ``_map`` alone.
    """

    def __init__(self, system: PolySystem):
        self.n, self.p = system.n, system.p
        partials = [f.partial(j) for f in system.polys for j in range(self.n)]
        second = [g.partial(k) for g in partials for k in range(self.n)]
        whole = _CompiledMap(list(system.polys) + partials + second, self.n)
        self._map, self._hess = whole.split(self.p + self.p * self.n)
        self._gauge = np.abs(self._map.coeffs)

    def _split(self, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        jac = out[..., self.p :].reshape(out.shape[:-1] + (self.p, self.n))
        return out[..., : self.p], jac

    def __call__(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Values (m, p) and Jacobians (m, p, n) at the rows of X."""
        return self._split(self._map(X))

    def full(self, X):
        """Values, Jacobians, Hessians (m, p, n, n) and gauges at the rows of X.

        The gauges are the values and Jacobians of the polynomials with
        every term c x^kappa replaced by |c x^kappa|: the scale of the
        rounding error in each entry.
        """
        table = self._map.table(np.atleast_2d(X).T)
        hess = self._hess.contract(table).reshape(-1, self.p, self.n, self.n)
        gauge = self._split(np.einsum("km,kj->mj", np.abs(table), self._gauge))
        return self._split(self._map.contract(table)) + (hess, gauge)

    def one(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Values (p,) and Jacobian (p, n) at one point."""
        out = self._map.one(x)
        return out[: self.p], out[self.p :].reshape(self.p, self.n)

    def values_one(self, x) -> np.ndarray:
        return self._map.one(x)[: self.p]


def residual(system: PolySystem, x) -> float:
    """Constraint violation [f(x)]_+ = max(0, max_i f_i(x))."""
    return float(max(0.0, _CompiledSystem(system).values_one(x).max()))


# -- distance oracle ---------------------------------------------------------------

# Queries per lockstep batch: bounds the batch's memory whatever the
# number of queries.  Rows never interact, so it changes no result.
_CHUNK = 256
# Iteration cap of one lockstep SQP row; a row that reaches it falls back.
_SQP_ITERS = 60
# A row whose step is below this (times 1 + |a|) sits at its fixed point.
_STEP_FLOOR = 1e-12
# A row whose QP multipliers exceed this (times 1 + |a - x|) has lost the
# constraint qualification (a vanishing active gradient); it falls back.
_MULTIPLIER_CAP = 1e4
# Bound on (active sets + 1) * max(n, p): the floats a lockstep row holds
# per QP solve.  Their number grows combinatorially with p, so a system
# past it (p = 3 gives at most 8 * max(n, 3)) sends every row to the
# fallback, whose memory is linear in p.
_QP_WIDTH = 256
# Iteration cap of the anchor pool's Gauss-Newton descent.
_POOL_ITERS = 200


def _squared_violation(values: np.ndarray) -> np.ndarray:
    """sum_i [f_i]_+^2 for every row of values: inf or NaN where a value overflowed."""
    return (np.maximum(values, 0.0) ** 2).sum(axis=1)


@dataclass(frozen=True)
class DistanceConfig:
    """Budget of the distance oracle.

    ``multistarts`` caps both the anchor pool and the anchors one query
    walks, nearest first; the walk stops after ``stall_limit`` anchors in
    a row fail to tighten the bound.  ``polish_iters`` drives the
    Gauss-Newton polish, and a candidate counts only where every component
    is at most ``tau_feas``.
    """

    multistarts: int = 32
    tau_feas: float = 1e-9
    grid_points: int = 256
    search_box: tuple[tuple[float, float], ...] | None = None
    # Feasible points already known to the caller; polished into the pool.
    known_feasible: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0
    stall_limit: int = 3
    polish_iters: int = 12


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    certificate: tuple[float, ...]
    max_violation: float


class DistanceOracle:
    """Upper-bound estimator of the distance to {x : all f_i(x) <= 0}.

    A feasibility pre-pass collects a pool of (near-)feasible anchor
    points (``feasible_pool``: one batched Gauss-Newton descent of the
    squared violation from the least infeasible grid draws, then the
    polish).  ``distances`` projects every infeasible query from its
    nearest anchors in lockstep: each (query, anchor) pair is one row of
    a batched SQP iteration (``_lockstep``).  A row that finds no valid
    QP active set, whose multipliers blow up (the constraint
    qualification fails, as at S = {0} in sphere_cubic), whose line
    search stalls or that reaches the iteration cap falls back to the
    per-anchor SLSQP projection; so does a converged row whose point is
    not feasible, and so does every row where the QP would have too many
    active sets to enumerate (``_QP_WIDTH``).  An anchor whose fallback
    still ends infeasible gives no candidate.  Each query walks its
    anchors nearest first, as set out in ``DistanceConfig``; the rows are
    projected in rounds, each holding just the anchors that the walks
    still running can reach.  The query's own Gauss-Newton projection is
    tried last, since which basin a projection from an anchor lands in
    can turn on the last bits of a sum.  A candidate counts only if every
    component is below ``tau_feas`` at it.  More budget can only tighten
    the answer.  Rows never interact, so a query's result does not
    depend on the batch it is in: ``distance(x)`` is ``distances([x])[0]``.
    """

    def __init__(self, system: PolySystem, cfg: DistanceConfig | None = None):
        self.system = system
        self.cfg = cfg or DistanceConfig()
        self.comp = _CompiledSystem(system)
        self._pool: np.ndarray | None = None
        n, p = system.n, system.p
        # The nonempty active sets of the QP subproblems, one array per
        # size; None where there are too many to enumerate.
        sizes = range(1, min(n, p) + 1)
        count = 1 + sum(math.comb(p, k) for k in sizes)
        self._active_sets = (
            [np.array(list(itertools.combinations(range(p), k))) for k in sizes]
            if count * max(n, p) <= _QP_WIDTH
            else None
        )

    # feasibility ------------------------------------------------------------

    def _gauss_newton_step(self, values, jac):
        """Minimum-norm least-squares step on every row's components above
        ``tau_feas / 10``, for the rows that have one: some such component,
        and a Jacobian on them that does not vanish.  Returns the mask of
        those rows and their steps."""
        active = values > self.cfg.tau_feas * 0.1
        J = np.where(active[:, :, None], jac, 0.0)
        go = active.any(axis=1) & (np.sqrt((J * J).sum(axis=(1, 2))) >= 1e-12)
        r = np.where(active, values, 0.0)[go]
        return go, np.einsum("rjp,rp->rj", np.linalg.pinv(J[go]), r)

    def _polish(self, X):
        """Gauss-Newton push of every row of X onto the feasible side.

        Each row takes ``_gauss_newton_step``s and stops when it has none
        or when a step is not finite or exceeds 1e3.
        """
        X = np.array(X, dtype=float)
        live = np.arange(X.shape[0])
        for _ in range(self.cfg.polish_iters):
            go, step = self._gauss_newton_step(*self.comp(X[live]))
            live = live[go]
            if live.size == 0:
                break
            fine = np.isfinite(step).all(axis=1) & (np.linalg.norm(step, axis=1) <= 1e3)
            live = live[fine]
            X[live] -= step[fine]
        return X

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

    # projection -------------------------------------------------------------

    def _qp_steps(self, g, f, J, H, gauge):
        """Solve min g.s + s'Hs/2 subject to f + J s <= 0, row by row.

        H is positive definite, so the QP's solution is the KKT point of
        one active set; every set of at most min(n, p) constraints is
        tried at once.  A set is valid when its Schur matrix J_A H^-1 J_A'
        is nonsingular, its multipliers are nonnegative and the step
        keeps every other linearised constraint.  Returns the step and
        multipliers of the valid set with the least QP objective, and
        whether any set was valid.
        """
        rows, p, n = J.shape
        sol = np.linalg.solve(H, np.concatenate([g[:, :, None], J.transpose(0, 2, 1)], axis=2))
        w, W = sol[:, :, 0], sol[:, :, 1:]  # H^-1 g and H^-1 J'
        schur = np.einsum("rpj,rjq->rpq", J, W)
        rhs = f - np.einsum("rpj,rj->rp", J, w)
        count = 1 + sum(len(sets) for sets in self._active_sets)
        lam = np.zeros((rows, count, p))
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
        linear = f[:, None, :] + np.einsum("rpj,rsj->rsp", J, steps)
        # Tolerance of the linearised constraints: rounding in a step scales
        # with the unconstrained step w it corrects, even where the step is
        # tiny; where a gradient vanishes, the rounding of f and J (their
        # gauges) is all there is.
        size = np.linalg.norm(steps, axis=2) + np.linalg.norm(w, axis=1)[:, None]
        scale = np.abs(f)[:, None, :] + np.linalg.norm(J, axis=2)[:, None, :] * size[:, :, None]
        noise = gauge[0][:, None, :] + np.linalg.norm(gauge[1], axis=2)[:, None, :] * size[:, :, None]
        valid &= (linear <= 1e-12 * scale + 1e-15 * noise).all(axis=2)
        valid &= (lam >= -1e-10 * (1.0 + np.abs(lam).max(axis=2, keepdims=True))).all(axis=2)
        objective = np.einsum("rj,rsj->rs", g, steps) + 0.5 * np.einsum(
            "rsj,rsj->rs", steps, np.einsum("rjk,rsk->rsj", H, steps)
        )
        best = np.where(valid, objective, np.inf).argmin(axis=1)
        pick = np.arange(rows)
        return steps[pick, best], np.maximum(lam[pick, best], 0.0), valid.any(axis=1)

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
        each row converged; a row fails when no active set is valid, when
        its multipliers pass the cap, when its line search fails short of
        the floor or when it reaches the iteration cap.  Every row fails
        where the system has too many active sets to enumerate.
        """
        rows, n = X.shape
        A = np.array(A, dtype=float)
        if self._active_sets is None:
            return A, np.zeros(rows, dtype=bool)
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
                last[key] = self.comp.one(a)
            return last[key]

        constraints = {
            "type": "ineq",
            "fun": lambda a: -at(a)[0],
            "jac": lambda a: -at(a)[1],
        }
        res = _minimize(
            objective,
            start,
            jac=True,
            method="SLSQP",
            constraints=[constraints],
            options={"maxiter": 200, "ftol": 1e-14},
        )
        return res.x

    def _fallback(self, x, anchor):
        """Per-anchor SLSQP projection, polished; returns it with its violation."""
        candidate = self._polish(self._project_slsqp(x, anchor)[None])[0]
        return candidate, self.comp.values_one(candidate).max()

    def distance(self, x) -> DistanceResult:
        return self.distances(np.asarray(x, dtype=float)[None])[0]

    def distances(self, X) -> list[DistanceResult]:
        """Distance upper bounds for every row of X (see the class docstring)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("distances takes a 2-d array with one point per row")
        out: list[DistanceResult] = []
        for start in range(0, X.shape[0], _CHUNK):
            out.extend(self._distances(X[start : start + _CHUNK]))
        return out

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
        # anchor more and saves a round: 3.2 s instead of 5.0 s for those
        # queries one at a time.
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
            points, converged = self._lockstep(Q[qs], anchors)
            points = self._polish(points)
            feasible = converged & (self.comp(points)[0].max(axis=1) <= cfg.tau_feas)
            for row, (q, k) in enumerate(rows):
                if ended[q]:
                    continue
                candidate = points[row]
                if not feasible[row]:
                    candidate, violation = self._fallback(Q[q], anchors[row])
                    if violation > cfg.tau_feas:
                        candidate = None
                improved = False
                if candidate is not None:
                    d = np.linalg.norm(candidate - Q[q])
                    if d < best_d[q] - 1e-12:
                        best_d[q], best_a[q] = d, candidate
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


def distance_to_S(system: PolySystem, x, cfg: DistanceConfig | None = None) -> DistanceResult:
    """One-shot distance estimate; build a DistanceOracle to amortise."""
    return DistanceOracle(system, cfg).distance(x)


# -- nonsmooth slope ---------------------------------------------------------------


def _wolfe_min_norm(points: np.ndarray, tol: float = 1e-9):
    """Minimum-norm point of conv(rows) by corral maintenance.

    Support points enter one at a time; each corral is re-solved by
    affine minimisation and trimmed back to the simplex along the
    improving segment.  Finite and exact to ``tol`` for the small point
    counts used here.
    """
    m = points.shape[0]
    if m == 1:
        return points[0].copy(), np.array([1.0])
    norms2 = (points**2).sum(axis=1)
    S = [int(np.argmin(norms2))]
    lam = np.array([1.0])
    w = points[S[0]].copy()
    for _ in range(8 * m + 64):
        ww = float(w @ w)
        dots = points @ w
        j = int(np.argmin(dots))
        if dots[j] >= ww - tol * max(1.0, ww) or j in S:
            break
        S.append(j)
        lam = np.append(lam, 0.0)
        while True:
            A = points[S]
            k = len(S)
            K = np.zeros((k + 1, k + 1))
            K[:k, :k] = 2.0 * (A @ A.T)
            K[:k, k] = 1.0
            K[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            alpha = sol[:k]
            if alpha.min() >= -1e-12:
                lam = np.clip(alpha, 0.0, None)
                lam /= lam.sum()
                break
            shrink = np.inf
            for i in range(k):
                if alpha[i] < 1e-12 and lam[i] > alpha[i]:
                    shrink = min(shrink, lam[i] / (lam[i] - alpha[i]))
            if not np.isfinite(shrink):
                break
            lam = (1.0 - shrink) * lam + shrink * alpha
            keep = lam > 1e-12
            if keep.all():
                lam = np.clip(lam, 0.0, None)
                lam /= lam.sum()
                break
            S = [s for s, k_ in zip(S, keep) if k_]
            lam = lam[keep]
            lam /= lam.sum()
        w = lam @ points[S]
    full = np.zeros(m)
    for s, value in zip(S, lam):
        full[s] += value
    return w, full


@dataclass(frozen=True)
class SlopeResult:
    value: float
    multipliers: tuple[float, ...]
    active: tuple[int, ...]


def slope(system: PolySystem, x, tau_active: float | None = None) -> SlopeResult:
    """Nonsmooth slope of max_i f_i at x.

    Minimum norm over convex combinations of the active gradients; ties
    are resolved with a relative tolerance because exact float ties do
    not happen.
    """
    values, jac = _CompiledSystem(system).one(x)
    return _slope_from_data(values, jac, system.p, tau_active)


def _slope_from_data(values, grads, p, tau_active=None) -> SlopeResult:
    fmax = float(values.max())
    if tau_active is None:
        tau_active = 1e-8 * (1.0 + abs(fmax))
    active = [i for i in range(p) if fmax - values[i] <= tau_active]
    if not active:
        # Only a value that overflowed (a NaN, or inf - inf) leaves every
        # component inactive.
        raise ValueOverflowError("the system's values overflow floating point at the point")
    gm = np.asarray(grads)[active]
    if len(active) == 1:
        w = gm[0]
        lam = np.array([1.0])
    else:
        w, lam = _wolfe_min_norm(gm)
    multipliers = [0.0] * p
    for i, a in enumerate(active):
        multipliers[a] = float(lam[i])
    return SlopeResult(
        value=float(np.linalg.norm(w)),
        multipliers=tuple(multipliers),
        active=tuple(active),
    )


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of A, each bit-equal to ``np.linalg.norm``
    of the row alone: a stack of (1, n) @ (n, 1) products runs the same dot
    product as the vector norm, where ``einsum`` or ``(A * A).sum(axis=1)``
    sum in another order."""
    return np.sqrt(np.matmul(A[:, None, :], A[:, :, None]))[:, 0, 0]


def _active(values: np.ndarray) -> np.ndarray:
    """Per row, the components ``_slope_from_data`` counts active at its
    default tolerance; a row with none has values that overflowed."""
    fmax = values.max(axis=1)
    return fmax[:, None] - values <= (1e-8 * (1.0 + np.abs(fmax)))[:, None]


def _slopes(values: np.ndarray, grads: np.ndarray, p: int) -> np.ndarray:
    """``_slope_from_data(values[i], grads[i], p).value`` for every row, bit for bit.

    A row with one active component takes its gradient's norm in one
    batch; any other row goes through ``_slope_from_data``.
    """
    active = _active(values)
    out = _row_norms(grads[np.arange(len(values)), active.argmax(axis=1)])
    for i in np.flatnonzero(active.sum(axis=1) != 1):
        out[i] = _slope_from_data(values[i], grads[i], p).value
    return out


# -- sampling plans ----------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Box sampling plan with optional far-field rings."""

    box: tuple[tuple[float, float], ...]
    count: int = 2000
    rings: tuple[float, ...] | None = None
    seed: int = 42
    boundary_fraction: float = 0.25

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("box bounds must be finite")
            if lo > hi:
                raise ValueError("box intervals must satisfy lo <= hi")
        if self.rings is not None:
            radii = tuple(self.rings)
            if any(b <= a for a, b in zip(radii, radii[1:])) or any(
                not (math.isfinite(r) and r > 0) for r in radii
            ):
                raise ValueError("rings must be finite, positive and strictly increasing")


def _stratified_box_samples(rng, box, count):
    n = len(box)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    orthants = list(itertools.product((1, -1), repeat=n))
    quota, extra = divmod(count, len(orthants))
    out = []
    for idx, sigma in enumerate(orthants):
        take = quota + (1 if idx < extra else 0)
        if take == 0:
            continue
        slo = lo.copy()
        shi = hi.copy()
        for j, s in enumerate(sigma):
            if lo[j] < 0.0 < hi[j]:
                if s > 0:
                    slo[j] = 0.0
                else:
                    shi[j] = 0.0
        out.append(rng.uniform(slo, shi, size=(take, n)))
    return np.vstack(out)


def _boundary_biased_samples(rng, comp, base, anchors, count):
    """Bisect sample->anchor segments to land just outside {f <= 0}.

    The (sample, anchor) pairs are drawn first; the 40 bisection steps
    then run over every segment at once, one batch evaluation per step.
    """
    positive = base[comp(base)[0].max(axis=1) > 0]
    if not len(positive) or anchors is None or len(anchors) == 0:
        return np.empty((0, comp.n))
    pairs = [
        (int(rng.integers(len(positive))), int(rng.integers(len(anchors))))
        for _ in range(count)
    ]
    X = positive[[i for i, _ in pairs]]
    A = anchors[[j for _, j in pairs]]
    t_out, t_in = np.zeros((count, 1)), np.ones((count, 1))
    for _ in range(40):
        mid = 0.5 * (t_out + t_in)
        outside = comp((1 - mid) * X + mid * A)[0].max(axis=1, keepdims=True) > 0
        t_out = np.where(outside, mid, t_out)
        t_in = np.where(outside, t_in, mid)
    return (1 - t_out) * X + t_out * A


# -- goodness at infinity ----------------------------------------------------------


@dataclass(frozen=True)
class RingFloor:
    """One ring's slope floor.  ``overflowed`` counts the ring's samples
    outside S that have no finite slope: a value or a gradient overflowed."""

    radius: float
    floor: float | None
    positive_samples: int
    overflowed: int


@dataclass(frozen=True)
class GoodnessReport:
    rings: tuple[RingFloor, ...]
    trend: str
    seed: int

    def to_json(self) -> dict:
        return {
            "rings": [
                {
                    "R": r.radius,
                    "slope_floor": r.floor,
                    "positive_samples": r.positive_samples,
                    "overflowed": r.overflowed,
                }
                for r in self.rings
            ],
            "trend": self.trend,
            "seed": self.seed,
        }


def _ring_slopes(comp, X, p):
    """Slopes at the samples X (NaN where there is none), the mask of
    samples with finite positive values, and how many samples outside S
    have no finite slope because a value or a gradient overflowed."""
    values, grads = comp(X)
    fmax = values.max(axis=1)
    # A sample whose values overflowed has no slope.
    mask = (fmax > 0) & _active(values).any(axis=1)
    slopes = np.full(X.shape[0], np.nan)
    slopes[mask] = _slopes(values[mask], grads[mask], p)
    overflowed = ~(fmax <= 0) & ~np.isfinite(slopes)
    return slopes, mask, int(overflowed.sum())


def _sorted_simplices(sim, fsim):
    """Every row's simplex ordered by value, by the default ``np.argsort``."""
    ind = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def _nelder_mead(fun, X0, maxiter: int, xatol: float, fatol: float) -> np.ndarray:
    """Nelder-Mead from every row of X0 at once; returns each row's least value.

    Row by row this is scipy's ``_minimize_neldermead`` (non-adaptive,
    no bounds, ``maxfev`` unset), bit for bit: the initial simplex moves
    each nonzero coordinate by 5% and sets each zero one to 0.00025, the
    iteration count starts at 1, each iteration first tests ``xatol`` and
    ``fatol``, and the steps use scipy's coefficients (reflection 1,
    expansion 2, contraction and shrink 1/2) and its comparisons.  Ties
    between simplex values are broken by the default (unstable) argsort,
    sorted the same way scipy sorts them, twice for the initial simplex:
    a stable sort orders tied vertices differently and so changes the
    next centroid.  ``fun(points, rows)`` evaluates the points of the
    searches ``rows``; each iteration calls it once per phase (reflection,
    then the expansion or contraction, then the shrink) over the rows
    that reach that phase, and a row leaves once it has converged.
    """
    X0 = np.asarray(X0, dtype=float)
    m, N = X0.shape
    best = np.empty(m)
    if m == 0:
        return best
    sim = np.repeat(X0[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    sim[:, k + 1, k] = np.where(X0 != 0, (1 + 0.05) * X0, 0.00025)
    fsim = fun(sim.reshape(-1, N), np.repeat(np.arange(m), N + 1)).reshape(m, N + 1)
    sim, fsim = _sorted_simplices(*_sorted_simplices(sim, fsim))
    live = np.arange(m)
    for _ in range(1, maxiter):
        converged = (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol
        )
        if converged.any():
            best[live[converged]] = fsim[converged].min(axis=1)
            live, sim, fsim = live[~converged], sim[~converged], fsim[~converged]
            if live.size == 0:
                return best
        worst = sim[:, -1]
        xbar = np.add.reduce(sim[:, :-1], 1) / N
        xr = 2 * xbar - worst
        fxr = fun(xr, live)
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~accept & (fxr < fsim[:, -1])
        inside = ~expand & ~accept & ~outside
        trial = np.where(
            expand[:, None],
            3 * xbar - 2 * worst,
            np.where(outside[:, None], 1.5 * xbar - 0.5 * worst, 0.5 * xbar + 0.5 * worst),
        )
        ftrial = np.full(live.size, np.nan)
        if not accept.all():
            ftrial[~accept] = fun(trial[~accept], live[~accept])
        take = (
            (expand & (ftrial < fxr))
            | (outside & (ftrial <= fxr))
            | (inside & (ftrial < fsim[:, -1]))
        )
        shrink = (outside | inside) & ~take
        sim[~shrink, -1] = np.where(take[:, None], trial, xr)[~shrink]
        fsim[~shrink, -1] = np.where(take, ftrial, fxr)[~shrink]
        if shrink.any():
            s = sim[shrink]
            s[:, 1:] = s[:, :1] + 0.5 * (s[:, 1:] - s[:, :1])
            sim[shrink] = s
            fsim[shrink, 1:] = fun(
                s[:, 1:].reshape(-1, N), np.repeat(live[shrink], N)
            ).reshape(-1, N)
        sim, fsim = _sorted_simplices(sim, fsim)
    best[live] = fsim.min(axis=1)
    return best


def probe_goodness(
    system: PolySystem,
    plan: SamplePlan,
    refine_starts: int = 6,
    refine_iters: int = 400,
) -> GoodnessReport:
    """Minimum observed slope on spheres of growing radius.

    Reports, per radius, the smallest slope among positive-residual
    sample points, sharpened by derivative-free minimisation over the
    sphere from the ``refine_starts`` best samples (thin slope valleys
    are far narrower than uniform sampling can resolve).  Every ring's
    starts run in one lockstep Nelder-Mead search (``_nelder_mead``) of
    at most ``refine_iters`` iterations, each row bit-equal to scipy's
    Nelder-Mead from that start, ties between simplex values included:
    they are broken by numpy's default argsort, as scipy breaks them.
    The trend across radii is a reported observation, never a proof of
    goodness at infinity.
    """
    if not plan.rings:
        raise ValueError("probe_goodness needs plan.rings")
    if refine_starts < 0 or refine_iters < 0:
        raise ValueError("refine_starts and refine_iters must be nonnegative")
    comp = _CompiledSystem(system)
    n, p = system.n, system.p
    rings = []  # (sample floor, positive samples, overflowed samples) per ring
    starts, owners = [], []
    for index, radius in enumerate(plan.rings):
        rng = np.random.default_rng(
            np.random.SeedSequence(plan.seed, spawn_key=(index,))
        )
        U = rng.standard_normal((plan.count, n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        X = radius * U
        slopes, mask, overflowed = _ring_slopes(comp, X, p)
        if not mask.any():
            rings.append((None, 0, overflowed))
            continue
        # A gradient that overflowed gives a NaN slope.
        defined = slopes[mask & ~np.isnan(slopes)]
        floor = float(defined.min()) if defined.size else None
        rings.append((floor, int(mask.sum()), overflowed))
        best = np.argsort(np.where(np.isnan(slopes), np.inf, slopes))[:refine_starts]
        starts.extend(U[best])
        owners.extend([index] * len(best))
    owners = np.array(owners, dtype=int)
    row_radius = np.array(plan.rings, dtype=float)[owners]

    def sphere_slopes(points, rows):
        """The slope at each point's projection onto its search's ring, or
        inf where the point is near 0 or the residual is not positive."""
        out = np.full(len(points), np.inf)
        norm = _row_norms(points)
        ok = np.flatnonzero(~(norm < 1e-9))
        values, jac = comp(row_radius[rows[ok], None] * points[ok] / norm[ok, None])
        positive = ~(values.max(axis=1) <= 0) & _active(values).any(axis=1)
        out[ok[positive]] = _slopes(values[positive], jac[positive], p)
        return out

    X0 = np.array(starts).reshape(-1, n)
    found = _nelder_mead(sphere_slopes, X0, refine_iters, 1e-10, 1e-12)
    floors = []
    for index, (radius, (floor, positive, overflowed)) in enumerate(zip(plan.rings, rings)):
        for value in found[owners == index]:
            if np.isfinite(value):
                floor = float(value) if floor is None else min(floor, float(value))
        if floor is not None and not math.isfinite(floor):
            floor = None  # every slope on the ring overflowed
        floors.append(RingFloor(float(radius), floor, positive, overflowed))

    valid = [r.floor for r in floors if r.floor is not None]
    if len(valid) < 2:
        trend = "n/a"
    elif valid[-1] <= 0.25 * valid[0]:
        trend = "decaying"
    else:
        trend = "consistent"
    return GoodnessReport(rings=tuple(floors), trend=trend, seed=plan.seed)


# -- bound verification ------------------------------------------------------------


def _finite_or_none(value: float | None) -> float | None:
    """JSON has no inf or NaN: a value that overflowed is reported as null."""
    return value if value is not None and math.isfinite(value) else None


@dataclass(frozen=True)
class SampleRecord:
    x: tuple[float, ...]
    residual: float
    distance: float
    slope: float
    ratio: float | None


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[SampleRecord, ...]
    fitted_c: float | None
    alpha: Fraction
    violations: int
    tau_dist: float
    seed: int
    goodness: GoodnessReport | None = None

    def to_json(self) -> dict:
        payload = {
            "fitted_c": self.fitted_c,
            "alpha_used": rational_str(self.alpha),
            "violations": self.violations,
            "tau_dist": self.tau_dist,
            "seed": self.seed,
            "samples": [
                {
                    "x": list(r.x),
                    "residual": _finite_or_none(r.residual),
                    "distance": _finite_or_none(r.distance),
                    "slope": _finite_or_none(r.slope),
                    "ratio": _finite_or_none(r.ratio),
                }
                for r in self.records
            ],
        }
        if self.goodness is not None:
            payload["rings"] = self.goodness.to_json()["rings"]
        return payload

    def to_csv(self) -> str:
        lines = ["x;residual;distance;slope;ratio"]
        for r in self.records:
            xs = ",".join(repr(v) for v in r.x)
            ratio = "" if r.ratio is None else repr(r.ratio)
            lines.append(f"{xs};{r.residual!r};{r.distance!r};{r.slope!r};{ratio}")
        return "\n".join(lines) + "\n"


def verify_bound(
    system: PolySystem,
    report: ExponentReport,
    plan: SamplePlan,
    distance_fn: Callable[[np.ndarray], float] | None = None,
    dist_cfg: DistanceConfig | None = None,
    tau_dist: float = 1e-6,
    anchors: Sequence[Sequence[float]] | None = None,
) -> VerificationReport:
    """Sample the bound ratio ([f]_+^alpha + [f]_+) / d(x, S) over a plan.

    ``fitted_c`` is the smallest ratio over samples further than
    ``tau_dist`` from the feasible set; a non-finite or non-positive
    ratio there counts as a violation (with an upper-bound distance
    oracle that indicates an oracle bug, not a failure of the bound).
    ``distance_fn`` substitutes an exact distance when one is known.
    """
    comp = _CompiledSystem(system)
    oracle = None
    if distance_fn is None:
        cfg = dist_cfg or DistanceConfig(seed=plan.seed, search_box=plan.box)
        oracle = DistanceOracle(system, cfg)
        if anchors is None:
            anchors = oracle.feasible_pool()

    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    n_boundary = (
        int(plan.count * plan.boundary_fraction)
        if anchors is not None and len(anchors) > 0
        else 0
    )
    base = _stratified_box_samples(rng, plan.box, plan.count - n_boundary)
    if n_boundary:
        near = _boundary_biased_samples(
            rng, comp, base, np.asarray(anchors, dtype=float), n_boundary
        )
        X = np.vstack([base, near]) if near.size else base
    else:
        X = base

    alpha = float(report.alpha)
    values, grads = comp(X)
    if oracle is not None:
        distances = [r.distance for r in oracle.distances(X)]
    else:
        distances = [float(distance_fn(x)) for x in X]
    slopes = _slopes(values, grads, system.p)
    records = []
    violations = 0
    fitted = None
    for i in range(X.shape[0]):
        x = X[i]
        res = float(max(0.0, values[i].max()))
        dist = distances[i]
        if dist > tau_dist:
            numerator = res**alpha + res if res > 0 else 0.0
            ratio = numerator / dist
            if not np.isfinite(ratio) or ratio <= 0:
                violations += 1
            if np.isfinite(ratio) and (fitted is None or ratio < fitted):
                fitted = ratio
        else:
            ratio = None
        records.append(
            SampleRecord(
                x=tuple(float(v) for v in x),
                residual=res,
                distance=dist,
                slope=float(slopes[i]),
                ratio=ratio,
            )
        )

    goodness = None
    if plan.rings:
        goodness = probe_goodness(system, plan)
    return VerificationReport(
        records=tuple(records),
        fitted_c=fitted,
        alpha=report.alpha,
        violations=violations,
        tau_dist=tau_dist,
        seed=plan.seed,
        goodness=goodness,
    )

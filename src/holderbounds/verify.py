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
violation.  The queries are projected together, in batches of as many as
a budget of floats holds (``_BATCH_FLOATS``; the 500 queries of a demo
fit one): each (query, anchor) pair is one row of a batched SQP
iteration with the exact Lagrangian Hessian, whose QP subproblems are
solved by enumerating active sets, one size at a time.  A row's end
point, polished, is a candidate wherever every component is at most
``tau_feas`` there, whether or not the row converged.  Each bound is a
local projection: on a nonconvex S the descent can settle in a farther
local minimum than the nearest one, and where a constraint gradient
vanishes on S (the constraint qualification fails) a row can stall short
of it.  Upper bounds make every fitted constant conservative in the safe
direction (ratios can only shrink).  Components, their partials and
second partials are evaluated together through one compiled map
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
from .evaluator import ValueOverflowError, _CompiledMap
from .polysys import PolySystem, _require_variables, rational_str


class FeasibleSetEmptyError(RuntimeError):
    """No feasible point was found within the search budget."""


# Every public call runs with numpy's overflow and invalid-value warnings
# off: a value that overflows is reported once, as a ValueOverflowError
# or as a null in the output.
_quiet = np.errstate(over="ignore", invalid="ignore")


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


@_quiet
def residual(system: PolySystem, x) -> float:
    """Constraint violation [f(x)]_+ = max(0, max_i f_i(x)): inf where a
    value overflows to +inf, and a ValueOverflowError where one is NaN."""
    value = _CompiledSystem(system)(x)[0].max()
    if np.isnan(value):
        raise ValueOverflowError("the system's values overflow floating point at the point")
    return float(max(0.0, value))


# -- distance oracle ---------------------------------------------------------------

# Iteration cap of one lockstep SQP row; a row that reaches it stops there.
_SQP_ITERS = 60
# A row whose step is below this (times 1 + |a|) sits at its fixed point.
_STEP_FLOOR = 1e-12
# A row whose QP multipliers exceed this (times 1 + |a - x|) has lost the
# constraint qualification (a vanishing active gradient); it stops there.
_MULTIPLIER_CAP = 1e4
# Bound on (active sets + 1) * max(n, m): the floats a lockstep row holds
# per QP solve over m constraints.  Their number grows combinatorially
# with m (m = 3 gives at most 8 * max(n, 3)), so a row of a system past
# it enumerates only the most constraints that fit.
_QP_WIDTH = 256
# Floats per lockstep batch: bounds the batch's memory whatever the
# number of queries.  A query counts as the rows its first round can hold
# (stall_limit + 1) times a row's floats: its QP width, as _QP_WIDTH counts
# it, plus its values, Jacobian, Hessians, gauges, multipliers and merit
# weights.  So with the default stall_limit of 3, a system whose QP width
# is _QP_WIDTH gets at most 256 queries a batch.  Rows never interact, so
# the budget changes no result.
_BATCH_FLOATS = 256 * 4 * _QP_WIDTH
# Iteration cap of the anchor pool's Gauss-Newton descent.
_POOL_ITERS = 200
# The halvings k of a backtracking line search (t = 2^-k, k < 40), in the
# blocks tried together: most rows pass at k = 0 and nearly every other
# row that passes does so by k = 4, so the few rows left hold the 35
# trials of the last block.
_HALVINGS = ((0, 1), (1, 5), (5, 40))
# The most trials one map call of a block evaluates, so that the line
# search's tables stay bounded as _BATCH_FLOATS bounds the QP's arrays: a
# block multiplies its rows by up to 35.  A row's trial does not depend on
# the others in its call, so the calls change no result.
_TRIAL_POINTS = 2048


def _squared_violation(values: np.ndarray) -> np.ndarray:
    """sum_i [f_i]_+^2 for every row of values: inf or NaN where a value overflowed."""
    return (np.maximum(values, 0.0) ** 2).sum(axis=1)


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of A, each bit-equal to ``np.linalg.norm``
    of the row alone: a stack of (1, n) @ (n, 1) products runs the same dot
    product as the vector norm, where ``einsum`` or ``(A * A).sum(axis=1)``
    sum in another order."""
    return np.sqrt(np.matmul(A[:, None, :], A[:, :, None]))[:, 0, 0]


def _backtrack(count: int, trial):
    """Backtracking line search over t = 2^-k, k < 40, for ``count`` rows.

    ``trial(rows, t)`` tries row ``rows[i]`` at step size ``t[i]`` for
    every i and returns the mask of trials that pass and a tuple of
    per-trial arrays.  Each block of ``_HALVINGS`` tries every row still
    searching at all of its step sizes, in calls of at most
    ``_TRIAL_POINTS`` trials; a row's trial does not depend on the others
    in the call, so each row takes its first passing t, as a search that
    halves t one call at a time does.  Returns every row's t (0 where no
    halving passes), the rows that passed and, in that order, the arrays
    of their passing trials.
    """
    t = np.zeros(count)
    pending = np.arange(count)
    passed, kept = [pending[:0]], []
    for lo, hi in _HALVINGS:
        if pending.size == 0:
            break
        steps = np.ldexp(1.0, -np.arange(lo, hi))
        size = max(1, _TRIAL_POINTS // (hi - lo))
        searching, pending = pending, pending[:0]
        for start in range(0, searching.size, size):
            rows = searching[start : start + size]
            ok, data = trial(np.repeat(rows, hi - lo), np.tile(steps, rows.size))
            ok = ok.reshape(rows.size, hi - lo)
            hit = ok.any(axis=1)
            first = ok[hit].argmax(axis=1)
            t[rows[hit]] = steps[first]
            passed.append(rows[hit])
            kept.append(tuple(d[np.flatnonzero(hit) * (hi - lo) + first] for d in data))
            pending = np.concatenate([pending, rows[~hit]])
    return t, np.concatenate(passed), tuple(map(np.concatenate, zip(*kept)))


def _multipliers(schur: np.ndarray, rhs: np.ndarray, sets):
    """QP multipliers (rows, len(sets), m) of every active set in ``sets``
    (one row of constraint indices per set; None is the empty set alone),
    and whether each set's Schur matrix is regular."""
    rows, m = rhs.shape
    if sets is None:
        return np.zeros((rows, 1, m)), np.ones((rows, 1), dtype=bool)
    k = sets.shape[1]
    # The Schur matrix scaled to a unit diagonal, so that a short gradient
    # alone neither counts as a dependent one nor costs the solve its
    # accuracy.
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
    lam = np.zeros((rows, len(sets), m))
    for column in range(k):
        lam[:, np.arange(len(sets)), sets[:, column]] = sub[..., column]
    return lam, regular


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

    def __post_init__(self):
        for name in ("multistarts", "grid_points", "stall_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.polish_iters < 0:
            raise ValueError(f"polish_iters must be non-negative, got {self.polish_iters}")
        # A NaN tolerance would count no point feasible, and report S empty.
        if not (math.isfinite(self.tau_feas) and self.tau_feas > 0):
            raise ValueError(f"tau_feas must be finite and positive, got {self.tau_feas}")
        for name in ("search_box", "known_feasible"):
            if not all(map(math.isfinite, itertools.chain.from_iterable(getattr(self, name) or ()))):
                raise ValueError(f"{name} must be finite")
        if any(lo > hi for lo, hi in self.search_box or ()):
            raise ValueError("search_box intervals must satisfy lo <= hi")


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
    a batched SQP iteration (``_lockstep``).  Both descents backtrack in
    ``_backtrack``'s blocks of halvings.  A row stops where it is
    when it finds no valid QP active set, when its multipliers blow up
    (the constraint qualification fails, as at S = {0} in sphere_cubic),
    when its line search stalls or at the iteration cap.  Past
    ``_QP_WIDTH`` a row's QP draws its active sets from the constraints
    of largest value at its iterate.  Each query walks its anchors
    nearest first, as set out in ``DistanceConfig``; the rows are
    projected in rounds, each holding just the anchors that the walks
    still running can reach.  The query's own Gauss-Newton projection is
    tried last, since which basin a projection from an anchor lands in
    can turn on the last bits of a sum.  A point, polished, is a
    candidate only if every component is at most ``tau_feas`` at it.
    More budget can only tighten the answer.  ``distances`` projects
    its queries in batches of at most ``_BATCH_FLOATS`` floats, a query
    counting as the rows of its first round (``stall_limit + 1``) times
    ``_row_floats``, a row's QP width plus its values, Jacobian,
    Hessians, gauges, multipliers and merit weights.  Rows never
    interact, so a query's result does not depend on the batch it is
    in: ``distance(x)`` is ``distances([x])[0]``.
    """

    def __init__(self, system: PolySystem, cfg: DistanceConfig | None = None):
        self.system = system
        self.cfg = cfg or DistanceConfig()
        self.comp = _CompiledSystem(system)
        self._pool: np.ndarray | None = None
        n, p = system.n, system.p

        def width(m):
            return (1 + sum(math.comb(m, k) for k in range(1, min(n, m) + 1))) * max(n, m)

        # A row's QP enumerates the active sets of m constraints: all p
        # where they fit _QP_WIDTH, else the m of largest value at its
        # iterate.  The nonempty sets, one array per size.
        self._qp_constraints = next((m for m in range(p, 0, -1) if width(m) <= _QP_WIDTH), 1)
        self._active_sets = [
            np.array(list(itertools.combinations(range(self._qp_constraints), k)))
            for k in range(1, min(n, self._qp_constraints) + 1)
        ]
        # A row's floats in a batch: its QP width, then p values, p n Jacobian
        # and p n^2 Hessian entries, p (1 + n) gauges, p multipliers and p
        # merit weights.
        self._row_floats = width(self._qp_constraints) + p * (n * n + 2 * n + 4)

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
        (at most 40 times, in ``_backtrack``'s blocks) until it lowers
        ``_squared_violation``; a row stops when it has no step or no
        halving helps, or after ``_POOL_ITERS`` steps.  Rows never interact.
        """
        X = np.array(X, dtype=float)
        values, jac = self.comp(X)
        live = np.arange(X.shape[0])
        for _ in range(_POOL_ITERS):
            go, step = self._gauss_newton_step(values[live], jac[live])
            live = live[go]
            if live.size == 0:
                break
            current = _squared_violation(values[live])

            def trial(rows, t):
                points = X[live[rows]] - t[:, None] * step[rows]
                trial_values, trial_jac = self.comp(points)
                ok = _squared_violation(trial_values) < current[rows]
                return ok, (points, trial_values, trial_jac)

            t, passed, (points, trial_values, trial_jac) = _backtrack(live.size, trial)
            moved = live[passed]
            X[moved], values[moved], jac[moved] = points, trial_values, trial_jac
            live = live[t > 0]
        return X

    @_quiet
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
        scores = _squared_violation(self.comp(draws)[0])
        picked = np.argsort(scores)[: max(16, cfg.multistarts)]
        picked = picked[scores[picked] < np.inf]
        starts, infeasible = draws[picked], scores[picked] > 0
        starts[infeasible] = self._descend(starts[infeasible])
        points = self._polish(starts)
        values = self.comp(points)[0].max(axis=1)
        for point, value in zip(points, values.tolist()):
            if value <= cfg.tau_feas:
                if not found or not (_row_norms(point - np.array(found)) < 1e-7).any():
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
        tried.  Past ``_QP_WIDTH`` the sets are drawn from each row's
        ``_qp_constraints`` constraints of largest value at its iterate
        only.  A set is valid when its Schur matrix J_A H^-1 J_A' is
        nonsingular, its multipliers are nonnegative and the step keeps
        every other linearised constraint, of all p; so a row whose drawn
        constraints miss the active ones finds no valid set.  Returns the
        step and multipliers of the valid set with the least QP objective
        (the first of equals, NaN first, as ``argmin`` takes them; a row
        with one valid set takes it, and a row with none the empty set),
        and whether any set was valid.

        The sets are tried one size at a time, the empty set first, so a
        row holds the arrays of one size's sets at a time.  Each row keeps
        two running picks: its first valid set, and its least once it has
        two.  Only then are objectives taken: the first valid set's, then
        those of the sets that follow.
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
        # Tolerance of the linearised constraints: rounding in a step scales
        # with the unconstrained step w it corrects, even where the step is
        # tiny; where a gradient vanishes, the rounding of f and J (their
        # gauges) is all there is.
        w_size = np.linalg.norm(w, axis=1)[:, None]
        J_scale = np.linalg.norm(J_all, axis=2)[:, None, :]
        f_noise, J_noise = gauge[0][:, None, :], np.linalg.norm(gauge[1], axis=2)[:, None, :]
        count = np.zeros(rows, dtype=int)  # valid sets so far

        def keep_least(at, valid, steps, lam):
            """Rows ``at`` move their least pick to the first of their valid
            sets among ``steps`` that ``argmin`` puts before it: a smaller
            objective, or NaN.  A tie, or every value inf, keeps the pick."""
            objective = np.einsum("rj,rsj->rs", g[at], steps) + 0.5 * np.einsum(
                "rsj,rsj->rs", steps, np.einsum("rjk,rsk->rsj", H[at], steps)
            )
            value = np.where(valid, objective, np.inf)
            pick = np.arange(at.size), value.argmin(axis=1)
            take = np.argmin([least[at], value[pick]], axis=0) == 1
            least[at[take]] = value[pick][take]
            least_step[at[take]], least_lam[at[take]] = steps[pick][take], lam[pick][take]

        for sets in [None] + self._active_sets:
            lam, valid = _multipliers(schur, rhs, sets)
            steps = np.einsum("rjq,rsq->rsj", W, lam)
            np.subtract(-w[:, None, :], steps, out=steps)
            size = np.linalg.norm(steps, axis=2)
            size += w_size
            size = size[:, :, None]
            # 1e-12 (|f| + |J| size) + 1e-15 (gauge f + |gauge J| size), in place.
            tol = J_scale * size
            tol += np.abs(f_all)[:, None, :]
            tol *= 1e-12
            noise = J_noise * size
            noise += f_noise
            noise *= 1e-15
            tol += noise
            del size, noise
            linear = np.einsum("rpj,rsj->rsp", J_all, steps)
            np.add(f_all[:, None, :], linear, out=linear)
            valid &= (linear <= tol).all(axis=2)
            del linear, tol
            valid &= (lam >= -1e-10 * (1.0 + np.abs(lam).max(axis=2, keepdims=True))).all(axis=2)
            if sets is None:  # both picks start at the empty set
                first_step, first_lam = steps[:, 0], lam[:, 0]
                least = np.full(rows, np.inf)
                least_step, least_lam = first_step.copy(), first_lam.copy()
            found = valid.sum(axis=1)
            tied = np.flatnonzero((found > 0) & (count + found >= 2))
            second = tied[count[tied] == 1]  # rows whose first valid set came earlier
            if second.size:
                keep_least(second, True, first_step[second, None], first_lam[second, None])
            if tied.size:
                keep_least(tied, valid[tied], steps[tied], lam[tied])
            new = np.flatnonzero((count == 0) & (found > 0))
            at = valid[new].argmax(axis=1)
            first_step[new], first_lam[new] = steps[new, at], lam[new, at]
            count += found
            del lam, steps
        tied = (count >= 2)[:, None]
        lam = np.maximum(np.where(tied, least_lam, first_lam), 0.0)
        if self._qp_constraints < p:
            drawn_lam, lam = lam, np.zeros((rows, p))
            np.put_along_axis(lam, drawn, drawn_lam, 1)
        return np.where(tied, least_step, first_step), lam, count > 0

    @staticmethod
    def _hessian(mu, J, hess):
        """H = I + sum_i mu_i Hess f_i, made positive definite where needed.

        Where H is not, H + rho * sum_{mu_i > 0} grad f_i grad f_i' is
        tried for growing rho: on the constraints' tangent space it equals
        H, and on a correct active set the QP step does not change (the
        added term is constant there).  Where no rho works, H = I.  Only
        a row whose H is not exactly I is checked: a NaN in H (mu_i = 0
        times an overflowed Hessian) fails the check.
        """
        n = J.shape[2]
        H = np.eye(n) + np.einsum("rp,rpjk->rjk", mu, hess)
        check = np.flatnonzero((H != np.eye(n)).any(axis=(1, 2)))
        bad = check[np.linalg.eigvalsh(H[check])[:, 0] <= 1e-8]
        if bad.size == 0:
            return H
        Jmu = np.where(mu[bad, :, None] > 0, J[bad], 0.0)
        G = np.einsum("rpj,rpk->rjk", Jmu, Jmu)
        base = np.linalg.norm(H[bad], axis=(1, 2)) / np.maximum(
            np.linalg.norm(G, axis=(1, 2)), 1e-300
        )
        for rho in (1.0, 1e1, 1e2, 1e3, 1e4):
            trial = H[bad] + (rho * base)[:, None, None] * G
            fixed = np.linalg.eigvalsh(trial)[:, 0] > 1e-8
            H[bad[fixed]] = trial[fixed]
            bad, base, G = bad[~fixed], base[~fixed], G[~fixed]
            if bad.size == 0:
                return H
        H[bad] = np.eye(n)
        return H

    def _sqp_step(self, a, x, mu, nu):
        """The QP step of every row from its iterate a towards its query x.

        The QP takes the Lagrangian Hessian of the previous multipliers mu
        (``_hessian``).  Returns the step, the multipliers, whether the
        QP found a valid set with multipliers under the cap (the step is
        0 where it did not), the new merit weights (from the previous
        ones, nu), and the merit and its slope along the step at a.  Only
        these outlive the call, not f, J, the Hessians or the gauges.
        """
        f, J, hess, gauge = self.comp.full(a)
        g = a - x
        H = self._hessian(mu, J, hess)
        del hess
        s, lam, solved = self._qp_steps(g, f, J, H, gauge)
        gnorm = np.linalg.norm(g, axis=1)
        solved &= lam.max(axis=1, initial=0.0) <= _MULTIPLIER_CAP * (1.0 + gnorm)
        s[~solved] = 0.0
        # Powell's weights on 1.5 times the multipliers: the margin keeps a
        # correction step's decrease above rounding, and large weights decay
        # once the multipliers do (a weight stuck high rejects the full step
        # near the solution).
        weights = np.maximum(1.5 * lam, 0.5 * (nu + 1.5 * lam)) + 1e-8
        excess = np.einsum("rp,rp->r", weights, np.maximum(f, 0.0))
        merit = 0.5 * gnorm**2 + excess
        slope = np.einsum("rj,rj->r", g, s) - excess
        return s, lam, solved, weights, merit, slope

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
        A = np.array(A, dtype=float)
        converged = np.zeros(len(A), dtype=bool)
        # The live rows' indices, iterates, queries, multipliers and weights.
        live, a, x = np.arange(len(A)), A, X
        mu = nu = np.zeros((len(A), self.system.p))
        for _ in range(_SQP_ITERS):
            s, lam, solved, weights, merit, slope = self._sqp_step(a, x, mu, nu)
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
            done = solved & (
                np.linalg.norm(s, axis=1) <= _STEP_FLOOR * (1.0 + np.linalg.norm(a, axis=1))
            )
            # A row whose line search failed short of its floor is stuck.
            solved[failed] = done[failed]
            converged[live[done]] = True
            A[live] = a = a + t[:, None] * s
            keep = solved & ~done
            live, a, x, mu, nu = live[keep], a[keep], x[keep], lam[keep], weights[keep]
            if live.size == 0:
                break
        return A, converged

    def distance(self, x) -> DistanceResult:
        return self.distances(np.asarray(x, dtype=float)[None])[0]

    @_quiet
    def distances(self, X) -> list[DistanceResult]:
        """Distance upper bounds for every row of X (see the class docstring)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("distances takes a 2-d array with one point per row")
        if X.shape[1] != self.system.n:
            raise ValueError(f"points of length {X.shape[1]} for a {self.system.n}-variable system")
        batch = max(1, _BATCH_FLOATS // ((self.cfg.stall_limit + 1) * self._row_floats))
        out: list[DistanceResult] = []
        for start in range(0, X.shape[0], batch):
            out.extend(self._distances(X[start : start + batch]))
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
        order = np.argsort(dists, axis=1)[:, : cfg.multistarts].astype(np.int32)
        width = order.shape[1]
        best_d = dists.min(axis=1).tolist()
        best_a = pool[dists.argmin(axis=1)]
        del dists
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
            qs, ks = [], []  # the round's rows: query q from its k-th nearest anchor
            for q in walking:
                stop = min(walked[q] + max(1, cfg.stall_limit - stalls[q]) + (walked[q] == 0), width)
                qs += [q] * (stop - walked[q])
                ks += range(walked[q], stop)
            rows = np.array(qs)
            points = self._polish(self._lockstep(Q[rows], pool[order[rows, ks]])[0])
            feasible = (self.comp(points)[0].max(axis=1) <= cfg.tau_feas).tolist()
            gaps = _row_norms(points - Q[rows]).tolist()
            nearest = {}  # query -> its row of this round that tightened its bound last
            for row, (q, k) in enumerate(zip(qs, ks)):
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


def distance_to_S(system: PolySystem, x, cfg: DistanceConfig | None = None) -> DistanceResult:
    """One-shot distance estimate; build a DistanceOracle to amortise."""
    _require_variables(system, "distance to S")
    return DistanceOracle(system, cfg).distance(x)


# -- nonsmooth slope ---------------------------------------------------------------


def _wolfe_min_norm(points: np.ndarray):
    """Minimum-norm point of conv(rows) by corral maintenance.

    Support points enter one at a time; each corral is re-solved by
    affine minimisation and trimmed back to the simplex along the
    improving segment.  Finite and exact to a relative 1e-9 for the
    small point counts used here; a single point is its own minimum.
    """
    m = points.shape[0]
    norms2 = (points**2).sum(axis=1)
    S = [int(np.argmin(norms2))]
    lam = np.array([1.0])
    w = points[S[0]].copy()
    for _ in range(8 * m + 64):
        ww = float(w @ w)
        dots = points @ w
        j = int(np.argmin(dots))
        if dots[j] >= ww - 1e-9 * max(1.0, ww) or j in S:
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


@_quiet
def slope(system: PolySystem, x) -> SlopeResult:
    """Nonsmooth slope of max_i f_i at x.

    Minimum norm over convex combinations of the active gradients.
    Exact float ties do not happen, so component i is active when
    max_j f_j(x) - f_i(x) <= 1e-8 (1 + |max_j f_j(x)|).
    """
    _require_variables(system, "slope")
    values, jac = _CompiledSystem(system)(x)
    return _slope_from_data(values[0], jac[0], system.p)


def _slope_from_data(values, grads, p) -> SlopeResult:
    fmax = float(values.max())
    tau_active = 1e-8 * (1.0 + abs(fmax))
    active = [i for i in range(p) if fmax - values[i] <= tau_active]
    if not active:
        # Only a value that overflowed (a NaN, or inf - inf) leaves every
        # component inactive.
        raise ValueOverflowError("the system's values overflow floating point at the point")
    w, lam = _wolfe_min_norm(np.asarray(grads)[active])
    multipliers = [0.0] * p
    for i, a in enumerate(active):
        multipliers[a] = float(lam[i])
    return SlopeResult(
        value=float(np.linalg.norm(w)),
        multipliers=tuple(multipliers),
        active=tuple(active),
    )


def _active(values: np.ndarray, fmax: np.ndarray) -> np.ndarray:
    """Per row, the components ``_slope_from_data`` counts active, given
    the row maxima ``fmax``; a row with none has values that overflowed."""
    return fmax[:, None] - values <= (1e-8 * (1.0 + np.abs(fmax)))[:, None]


def _slopes(values: np.ndarray, grads: np.ndarray, p: int, active=None) -> np.ndarray:
    """``_slope_from_data(values[i], grads[i], p).value`` for every row, bit for bit.

    ``active`` is ``_active`` of the values, where the caller has it.  A
    row with one active component takes its gradient's norm in one
    batch; any other row goes through ``_slope_from_data``.
    """
    if active is None:
        active = _active(values, values.max(axis=1))
    out = _row_norms(grads[np.arange(len(values)), active.argmax(axis=1)])
    for i in np.flatnonzero(active.sum(axis=1) != 1):
        out[i] = _slope_from_data(values[i], grads[i], p).value
    return out


def _positive_slopes(values: np.ndarray, grads: np.ndarray, p: int):
    """The mask of rows with a positive residual and some active component
    (a row with none has values that overflowed), and their slopes."""
    fmax = values.max(axis=1)
    active = _active(values, fmax)
    mask = (fmax > 0) & active.any(axis=1)
    return mask, _slopes(values[mask], grads[mask], p, active[mask])


# -- sampling plans ----------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Box sampling plan with optional far-field rings.

    With a feasible anchor pool, ``count // 4`` of the ``count`` samples
    are bisected onto the boundary of S (``_boundary_biased_samples``);
    the rest are drawn from the box.
    """

    box: tuple[tuple[float, float], ...]
    count: int = 2000
    rings: tuple[float, ...] | None = None
    seed: int = 42

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
    """``count`` uniform draws from the box, spread evenly over the sign
    orthants (the first ``count % 2^n`` get one more), orthant by orthant.

    A coordinate whose interval straddles 0 keeps the orthant's sign; the
    others take their whole interval.  One draw over per-sample bounds
    fills the samples in the order one draw per orthant would.
    """
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    orthants = np.array(list(itertools.product((1, -1), repeat=len(box))))
    quota, extra = divmod(count, len(orthants))
    sigma = np.repeat(orthants, quota + (np.arange(len(orthants)) < extra), axis=0)
    straddle = (lo < 0.0) & (0.0 < hi)
    return rng.uniform(
        np.where(straddle & (sigma > 0), 0.0, lo), np.where(straddle & (sigma < 0), 0.0, hi)
    )


def _boundary_biased_samples(rng, comp, base, anchors, count):
    """Bisect sample->anchor segments to land just outside {f <= 0}.

    The (sample, anchor) pairs are drawn first, in one call that draws
    each pair's sample index and then its anchor index; the 40 bisection
    steps then run over every segment at once, one batch evaluation per
    step.
    """
    positive = base[comp(base)[0].max(axis=1) > 0]
    if not len(positive):
        return np.empty((0, comp.n))
    pairs = rng.integers([len(positive), len(anchors)], size=(count, 2))
    X, A = positive[pairs[:, 0]], anchors[pairs[:, 1]]
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
    mask, positive = _positive_slopes(values, grads, p)
    slopes = np.full(X.shape[0], np.nan)
    slopes[mask] = positive
    overflowed = ~(values.max(axis=1) <= 0) & ~np.isfinite(slopes)
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


@_quiet
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
        mask, slopes = _positive_slopes(
            *comp(row_radius[rows[ok], None] * points[ok] / norm[ok, None]), p
        )
        out[ok[mask]] = slopes
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

# The least distance bound at which a sample's ratio counts (``tau_dist``).
_TAU_DIST = 1e-6


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


@_quiet
def verify_bound(
    system: PolySystem,
    report: ExponentReport,
    plan: SamplePlan,
    distance_fn: Callable[[np.ndarray], float] | None = None,
    dist_cfg: DistanceConfig | None = None,
    anchors: Sequence[Sequence[float]] | None = None,
) -> VerificationReport:
    """Sample the bound ratio ([f]_+^alpha + [f]_+) / d(x, S) over a plan.

    ``fitted_c`` is the smallest ratio over samples further than
    ``tau_dist`` = 1e-6 from the feasible set, a constant the report
    records; a non-finite or non-positive ratio there counts as a
    violation (with an upper-bound distance oracle that indicates an
    oracle bug, not a failure of the bound).
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
    n_boundary = plan.count // 4 if anchors is not None and len(anchors) > 0 else 0
    X = _stratified_box_samples(rng, plan.box, plan.count - n_boundary)
    if n_boundary:
        anchors = np.asarray(anchors, dtype=float)
        X = np.vstack([X, _boundary_biased_samples(rng, comp, X, anchors, n_boundary)])

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
    for x, fmax, dist, sample_slope in zip(
        X.tolist(), values.max(axis=1).tolist(), distances, slopes.tolist()
    ):
        res = max(0.0, fmax)
        if dist > _TAU_DIST:
            numerator = res**alpha + res if res > 0 else 0.0
            ratio = numerator / dist
            if not math.isfinite(ratio) or ratio <= 0:
                violations += 1
            if math.isfinite(ratio) and (fitted is None or ratio < fitted):
                fitted = ratio
        else:
            ratio = None
        records.append(
            SampleRecord(x=tuple(x), residual=res, distance=dist, slope=sample_slope, ratio=ratio)
        )

    goodness = None
    if plan.rings:
        goodness = probe_goodness(system, plan)
    return VerificationReport(
        records=tuple(records),
        fitted_c=fitted,
        alpha=report.alpha,
        violations=violations,
        tau_dist=_TAU_DIST,
        seed=plan.seed,
        goodness=goodness,
    )

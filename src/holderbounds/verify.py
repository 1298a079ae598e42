"""Empirical verification of Hölder-type global error bounds.

Given a polynomial inequality system with feasible set
``S = {x : f_i(x) <= 0 for all i}``, this module measures, sample by
sample, the residual ``[f(x)]_+ = max(0, max_i f_i(x))``, an upper bound
on the Euclidean distance ``d(x, S)``, and the nonsmooth slope of the
max function, then fits the best empirical constant ``c`` in

    c * d(x, S) <= [f(x)]_+^alpha + [f(x)]_+.

Distances to a semialgebraic set are NP-hard in general, so the oracle
is an upper-bound estimator: multistart local projection seeded from a
feasibility grid, with a penalty-continuation fallback and a Gauss-Newton
feasibility polish, plus the Gauss-Newton projection of the query itself.
Upper bounds make every fitted constant conservative in the safe
direction (ratios can only shrink).  Components and their partials are
evaluated together through one compiled map (``polysys._CompiledMap``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from .bounds import ExponentReport
from .polysys import PolySystem, _CompiledMap, rational_str


class FeasibleSetEmptyError(RuntimeError):
    """No feasible point was found within the search budget."""


# -- compiled float views ----------------------------------------------------------


class _CompiledSystem:
    """Values and Jacobian of a system from one compiled map.

    The map's columns are f_1..f_p followed by the partials d f_i / d x_j
    (row-major in i), so both come from one monomial table in one pass.
    """

    def __init__(self, system: PolySystem):
        self.n, self.p = system.n, system.p
        partials = [f.partial(j) for f in system.polys for j in range(self.n)]
        self._map = _CompiledMap(list(system.polys) + partials, self.n)

    def _split(self, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        jac = out[..., self.p :].reshape(out.shape[:-1] + (self.p, self.n))
        return out[..., : self.p], jac

    def __call__(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Values (m, p) and Jacobians (m, p, n) at the rows of X."""
        return self._split(self._map(X))

    def one(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Values (p,) and Jacobian (p, n) at one point."""
        return self._split(self._map.one(x))

    def values_one(self, x) -> np.ndarray:
        return self.one(x)[0]


def residual(system: PolySystem, x) -> float:
    """Constraint violation [f(x)]_+ = max(0, max_i f_i(x))."""
    return float(max(0.0, _CompiledSystem(system).values_one(x).max()))


# -- distance oracle ---------------------------------------------------------------


@dataclass(frozen=True)
class DistanceConfig:
    multistarts: int = 32
    penalty_schedule: tuple[float, ...] = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
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
    points; each query runs local projections seeded from the anchors
    nearest the query, falling back to penalty continuation when the
    projector fails.  The query's own Gauss-Newton projection is tried
    too, since which basin a projection from an anchor lands in can turn
    on the last bits of a sum.  A candidate counts only if every
    component is below ``tau_feas`` at it.  More budget can only tighten
    the answer.
    """

    def __init__(self, system: PolySystem, cfg: DistanceConfig | None = None):
        self.system = system
        self.cfg = cfg or DistanceConfig()
        self.comp = _CompiledSystem(system)
        self._pool: np.ndarray | None = None

    # feasibility ------------------------------------------------------------

    def _violation(self, x):
        """Squared positive part of f at x and its gradient."""
        values, jac = self.comp.one(x)
        pos = np.maximum(values, 0.0)
        return float((pos**2).sum()), 2.0 * pos @ jac

    def _polish(self, x):
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

    def feasible_pool(self) -> np.ndarray:
        if self._pool is not None:
            return self._pool
        cfg = self.cfg
        n = self.system.n
        box = cfg.search_box or tuple((-5.0, 5.0) for _ in range(n))
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(101,)))
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        draws = rng.uniform(lo, hi, size=(cfg.grid_points, n))
        scores = (np.maximum(self.comp(draws)[0], 0.0) ** 2).sum(axis=1)
        order = np.argsort(scores)
        found = []
        for point in cfg.known_feasible or ():
            candidate = self._polish(np.asarray(point, dtype=float))
            if self.comp.values_one(candidate).max() <= cfg.tau_feas:
                found.append(candidate)
        for idx in order[: max(16, cfg.multistarts)]:
            start = draws[idx]
            if scores[idx] > 0:
                res = optimize.minimize(
                    self._violation,
                    start,
                    jac=True,
                    method="L-BFGS-B",
                    options={"maxiter": 200},
                )
                start = res.x
            point = self._polish(start)
            if self.comp.values_one(point).max() <= cfg.tau_feas:
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

    def _project_slsqp(self, x, start):
        def objective(a):
            d = a - x
            return float(d @ d), 2.0 * d

        constraints = {
            "type": "ineq",
            "fun": lambda a: -self.comp.values_one(a),
            "jac": lambda a: -self.comp.one(a)[1],
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
        for mu in self.cfg.penalty_schedule:

            def objective(v):
                d = v - x
                values, jac = self.comp.one(v)
                pos = np.maximum(values, 0.0)
                return float(d @ d + mu * (pos**2).sum()), 2.0 * d + 2.0 * mu * pos @ jac

            res = optimize.minimize(
                objective, a, jac=True, method="L-BFGS-B",
                options={"maxiter": 150},
            )
            a = res.x
        return a

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
            candidate = self._polish(self._project_slsqp(x, anchor))
            violation = self.comp.values_one(candidate).max()
            if violation > cfg.tau_feas:
                candidate = self._polish(self._project_penalty(x, anchor))
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
        own = self._polish(x)
        d = float(np.linalg.norm(own - x))
        if d < best_d and self.comp.values_one(own).max() <= cfg.tau_feas:
            best_d, best_a = d, own
        return DistanceResult(
            best_d,
            tuple(float(v) for v in best_a),
            float(self.comp.values_one(best_a).max()),
        )


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
            if lo > hi:
                raise ValueError("box intervals must satisfy lo <= hi")
        if self.rings is not None:
            radii = tuple(self.rings)
            if any(b <= a for a, b in zip(radii, radii[1:])) or any(
                r <= 0 for r in radii
            ):
                raise ValueError("rings must be positive and strictly increasing")


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
    """Bisect sample->anchor segments to land just outside {f <= 0}."""
    out = []
    positive = [x for x in base if comp.values_one(x).max() > 0]
    if not positive or anchors is None or len(anchors) == 0:
        return np.empty((0, comp.n))
    for _ in range(count):
        x = positive[int(rng.integers(len(positive)))]
        a = anchors[int(rng.integers(len(anchors)))]
        t_out, t_in = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (t_out + t_in)
            point = (1 - mid) * x + mid * a
            if comp.values_one(point).max() > 0:
                t_out = mid
            else:
                t_in = mid
        out.append((1 - t_out) * x + t_out * a)
    return np.array(out)


# -- goodness at infinity ----------------------------------------------------------


@dataclass(frozen=True)
class RingFloor:
    radius: float
    floor: float | None
    positive_samples: int


@dataclass(frozen=True)
class GoodnessReport:
    rings: tuple[RingFloor, ...]
    trend: str
    seed: int

    def to_json(self) -> dict:
        return {
            "rings": [
                {"R": r.radius, "slope_floor": r.floor, "positive_samples": r.positive_samples}
                for r in self.rings
            ],
            "trend": self.trend,
            "seed": self.seed,
        }


def _ring_slopes(comp, X, p):
    values, grads = comp(X)
    fmax = values.max(axis=1)
    mask = fmax > 0
    slopes = np.full(X.shape[0], np.nan)
    for i in np.flatnonzero(mask):
        slopes[i] = _slope_from_data(values[i], grads[i], p).value
    return slopes, mask


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
        slopes, mask = _ring_slopes(comp, X, p)
        if not mask.any():
            floors.append(RingFloor(float(radius), None, 0))
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
        floors.append(RingFloor(float(radius), floor, int(mask.sum())))

    valid = [r.floor for r in floors if r.floor is not None]
    if len(valid) < 2:
        trend = "n/a"
    elif valid[-1] <= 0.25 * valid[0]:
        trend = "decaying"
    else:
        trend = "consistent"
    return GoodnessReport(rings=tuple(floors), trend=trend, seed=plan.seed)


# -- bound verification ------------------------------------------------------------


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
                    "residual": r.residual,
                    "distance": r.distance,
                    "slope": r.slope,
                    "ratio": r.ratio,
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
        measure = lambda x: oracle.distance(x).distance
        if anchors is None:
            anchors = oracle.feasible_pool()
    else:
        measure = lambda x: float(distance_fn(np.asarray(x, dtype=float)))

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
    records = []
    violations = 0
    fitted = None
    for i in range(X.shape[0]):
        x = X[i]
        res = float(max(0.0, values[i].max()))
        dist = float(measure(x))
        slp = _slope_from_data(values[i], grads[i], system.p).value
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
                slope=slp,
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

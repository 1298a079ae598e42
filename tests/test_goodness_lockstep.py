"""The lockstep goodness probe against the scipy Nelder-Mead probe it replaced.

``goodness_oracle.probe_goodness`` runs one scipy Nelder-Mead search per
(ring, start) and takes slopes one sample at a time.
``verify.probe_goodness`` runs every start in one batched search
(``verify._nelder_mead``) and takes slopes in batches (``verify._slopes``).
The reports must be equal, floats compared with ``==``.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
from scipy import optimize

from holderbounds.polysys import parse_system
from holderbounds.verify import (
    SamplePlan,
    _CompiledSystem,
    _nelder_mead,
    _row_norms,
    _slope_from_data,
    _slopes,
    probe_goodness,
)

import goodness_oracle
from conftest import DEMO_SYSTEMS, at_point, random_convenient_system

SEEDS = (1, 7, 42)
# A ring near the origin (empty where f(0) < 0), two ordinary rings and one
# whose values overflow; then a ring with fewer samples than starts.
PLANS = ((60, (1e-3, 2.0, 1e120)), (3, (8.0,)))


def _systems():
    out = {path.stem: path.read_text() for path in DEMO_SYSTEMS}
    out["square"] = "f1 = x^2"
    out["valley"] = "f1 = x^2*y^2 - 2*x*y + 1 + y^2"  # (xy - 1)^2 + y^2
    return out


SYSTEMS = _systems()


def _system(name):
    if name.startswith("random"):
        rng = random.Random(int(name[len("random") :]))
        return random_convenient_system(rng, min_vars=1, max_vars=4, max_polys=3)
    return parse_system(SYSTEMS[name])


def _both(system, plan, **budget):
    """The two reports, or the two exceptions' types and messages."""
    out = []
    for probe in (probe_goodness, goodness_oracle.probe_goodness):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow at 1e120
            try:
                out.append(probe(system, plan, **budget))
            except ValueError as exc:
                out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("name", list(SYSTEMS) + [f"random{k}" for k in range(20)])
def test_probe_matches_scipy_oracle(name):
    system = _system(name)
    for seed in SEEDS:
        for count, rings in PLANS:
            plan = SamplePlan(box=((-1.0, 1.0),) * system.n, count=count, rings=rings, seed=seed)
            lockstep, oracle = _both(system, plan)
            assert lockstep == oracle, (name, seed, count)


def test_plans_cover_empty_short_and_overflowing_rings():
    def report(name, count, rings, seed=1):
        system = _system(name)
        plan = SamplePlan(box=((-1.0, 1.0),) * system.n, count=count, rings=rings, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return probe_goodness(system, plan)

    # f = x^2 + 2y^2 - 3 is negative on the ring of radius 1e-3.
    assert report("quadratic_bowl", *PLANS[0]).rings[0].positive_samples == 0
    assert 0 < report("half_disk", *PLANS[1]).rings[0].positive_samples < 6
    # At 1e120, z^3 overflows in sphere_cubic (no finite positive sample
    # is left), while half_disk's values stay finite and its floor is ~2e120.
    assert report("sphere_cubic", *PLANS[0]).rings[2].floor is None
    assert report("half_disk", *PLANS[0]).rings[2].floor > 1e120


@pytest.mark.parametrize(
    "starts, iters", [(0, 400), (6, 0), (6, 1), (6, 2), (40, 30), (100, 50)]
)
def test_refine_budget_edges_match_oracle(starts, iters):
    for name in ("half_disk", "valley", "random5"):
        system = _system(name)
        plan = SamplePlan(box=((-1.0, 1.0),) * system.n, count=30, rings=(2.0, 8.0), seed=7)
        lockstep, oracle = _both(system, plan, refine_starts=starts, refine_iters=iters)
        assert lockstep == oracle, name


# -- the batched Nelder-Mead against scipy, point by point ---------------------


def _rosenbrock(x):
    # Constant (every value tied) at n = 1.
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _terraces(x):
    # Piecewise constant: most simplices hold tied values.
    return float(np.floor(4.0 * float(x @ x)) / 4.0 + np.floor(2.0 * x[0]))


def _walled(x):
    # Infinite beyond a wall, so whole simplices tie at inf.
    return np.inf if x[0] > 0.3 else float(np.sum((x - 0.2) ** 2) + x[-1])


def _nan_walled(x):
    # NaN beyond a wall: numpy sorts NaN last, and an unstable argsort of
    # 17 or more values with NaN among them can reorder ties even when
    # they are already sorted, so scipy's second sort of the initial
    # simplex matters.
    return np.nan if x[0] > 0.3 else float(np.floor(2.0 * float(x @ x)))


def _assert_scipy_visits(f, X0, maxiters):
    """Each row of the batched search evaluates the points scipy evaluates
    from that start, in the same order, and ends at the same value."""
    visited = [[] for _ in X0]

    def batched(points, rows):
        for point, row in zip(points, rows):
            visited[row].append(point.tobytes())
        return np.array([f(point) for point in points])

    for maxiter in maxiters:
        for trail in visited:
            trail.clear()
        found = _nelder_mead(batched, X0, maxiter, 1e-10, 1e-12)
        for row, x0 in enumerate(X0):
            trail = []

            def scalar(x):
                trail.append(x.tobytes())
                return f(x)

            res = optimize.minimize(
                scalar,
                x0,
                method="Nelder-Mead",
                options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-12},
            )
            assert visited[row] == trail, (row, maxiter)
            assert found[row] == res.fun or (np.isnan(found[row]) and np.isnan(res.fun))


def _starts(n):
    rng = np.random.default_rng(n)
    X0 = rng.standard_normal((9, n))
    X0[rng.random(X0.shape) < 0.3] = 0.0  # zero coordinates take the 0.00025 step
    X0[0] = 0.0
    return X0


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf ties
@pytest.mark.parametrize("f", [_rosenbrock, _terraces, _walled])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nelder_mead_visits_the_points_scipy_visits(f, n):
    _assert_scipy_visits(f, _starts(n), (0, 1, 7, 200))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nelder_mead_sorts_ties_among_nan_as_scipy_does():
    _assert_scipy_visits(_nan_walled, _starts(16), (0, 20))


# -- batched slopes --------------------------------------------------------------


def test_row_norms_match_vector_norm():
    rng = np.random.default_rng(3)
    for n in range(1, 41):
        A = rng.standard_normal((500, n)) * 10.0 ** rng.integers(-8, 8, size=(500, 1))
        expected = np.array([np.linalg.norm(a) for a in A])
        assert _row_norms(A).tobytes() == expected.tobytes(), n


def _tied_rows(rng, m, p, n):
    """Values with exact ties, ties inside the active tolerance and near misses."""
    values = rng.standard_normal((m, p)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
    grads = rng.standard_normal((m, p, n))
    for i in range(m):
        top = values[i].max()
        for j in range(p):
            kind = rng.integers(4)
            if kind == 1:
                values[i, j] = top
            elif kind == 2:
                values[i, j] = top - 1e-9 * (1.0 + abs(top)) * rng.random()
            elif kind == 3:
                values[i, j] = top - 1e-7 * (1.0 + abs(top))
    grads[rng.random((m, p)) < 0.1] = 0.0  # a vanishing gradient
    return values, grads


def test_slopes_match_slope_from_data_row_by_row():
    rng = np.random.default_rng(11)
    ties = 0
    for p in range(1, 5):
        for n in range(1, 6):
            values, grads = _tied_rows(rng, 200, p, n)
            batch = _slopes(values, grads, p)
            for i in range(len(values)):
                one = _slope_from_data(values[i], grads[i], p)
                assert batch[i] == one.value, (p, n, i)
                ties += len(one.active) > 1
    assert ties > 500


def test_slopes_of_a_system_match_one_point_slopes():
    system = parse_system("f1 = x + y\nf2 = x^2 + y^2 - 1\nf3 = x - y")
    comp = _CompiledSystem(system)
    rng = np.random.default_rng(5)
    X = np.vstack([rng.uniform(-3, 3, (300, 2)), np.zeros((1, 2)), [[1.0, 0.0], [0.5, -0.5]]])
    values, grads = comp(X)
    batch = _slopes(values, grads, system.p)
    for i, x in enumerate(X):
        assert batch[i] == _slope_from_data(*at_point(comp, x), system.p).value


def test_slopes_raise_where_slope_from_data_raises():
    values = np.array([[1.0, np.nan], [2.0, 1.0]])
    grads = np.ones((2, 2, 3))
    with pytest.raises(ValueError):
        _slope_from_data(values[0], grads[0], 2)
    with pytest.raises(ValueError):
        _slopes(values, grads, 2)

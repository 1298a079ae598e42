from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from holderbounds.bounds import ExponentReport, holder_exponent
from holderbounds.polysys import Polynomial, PolySystem, parse_system
from holderbounds.verify import (
    DistanceConfig,
    DistanceOracle,
    FeasibleSetEmptyError,
    SamplePlan,
    distance_to_S,
    probe_goodness,
    residual,
    slope,
    verify_bound,
)

from conftest import DEMO_SYSTEMS, partition_system

BOX2 = ((-3.0, 3.0), (-3.0, 3.0))
LIGHT = DistanceConfig(multistarts=6, grid_points=128, search_box=BOX2)


def test_residual_examples(half_disk):
    assert residual(half_disk, (2.0, 0.0)) == pytest.approx(3.0)
    assert residual(half_disk, (0.0, 1.0)) == pytest.approx(1.0)
    assert residual(half_disk, (-0.5, -0.5)) == 0.0


def test_distance_half_disk_analytic(half_disk):
    oracle = DistanceOracle(half_disk, DistanceConfig(search_box=BOX2))
    # Projection hits the corner of the half disk.
    corner = np.sqrt(5.0 - 2.0 * np.sqrt(2.0))
    out = oracle.distance((2.0, 0.0))
    assert out.distance == pytest.approx(corner, abs=1e-6)
    assert out.max_violation <= oracle.cfg.tau_feas
    # Projection onto the dividing line, interior to the disk.
    out = oracle.distance((0.0, 1.0))
    assert out.distance == pytest.approx(np.sqrt(0.5), abs=1e-6)
    assert np.allclose(out.certificate, (-0.5, 0.5), atol=1e-6)
    # Feasible points are their own certificates.
    out = oracle.distance((-1.0, 0.0))
    assert out.distance == 0.0
    assert out.certificate == (-1.0, 0.0)


def test_distance_single_call_helper(half_disk):
    out = distance_to_S(half_disk, (2.0, 0.0), LIGHT)
    assert out.distance == pytest.approx(np.sqrt(5.0 - 2.0 * np.sqrt(2.0)), abs=1e-6)


def test_distance_zero_iff_feasible(half_disk):
    oracle = DistanceOracle(half_disk, LIGHT)
    rng = np.random.default_rng(3)
    for _ in range(60):
        x = rng.uniform(-3, 3, size=2)
        out = oracle.distance(x)
        assert (out.distance == 0.0) == (residual(half_disk, x) <= oracle.cfg.tau_feas)


def test_distance_monotone_in_budget(half_disk):
    rng = np.random.default_rng(9)
    points = rng.uniform(-3, 3, size=(12, 2))
    small = DistanceOracle(half_disk, replace(LIGHT, multistarts=2))
    large = DistanceOracle(half_disk, replace(LIGHT, multistarts=12))
    for x in points:
        assert large.distance(x).distance <= small.distance(x).distance + 1e-9


@pytest.mark.parametrize("path", DEMO_SYSTEMS, ids=lambda path: path.stem)
def test_distance_results_carry_feasible_certificates(path):
    # The oracle returns upper bounds only: every distance is the length
    # to a certificate at which no component exceeds tau_feas.
    system = parse_system(path.read_text())
    box = tuple((-3.0, 3.0) for _ in range(system.n))
    oracle = DistanceOracle(system, replace(LIGHT, search_box=box))
    for x in np.random.default_rng(5).uniform(-3, 3, size=(8, system.n)):
        out = oracle.distance(x)
        certificate = np.array(out.certificate)
        assert out.max_violation <= oracle.cfg.tau_feas
        assert max(f.evaluate(out.certificate) for f in system.polys) <= oracle.cfg.tau_feas
        assert out.distance == pytest.approx(np.linalg.norm(certificate - x), rel=1e-12, abs=0)


def test_distance_empty_feasible_set():
    system = parse_system("f1 = x^2 + 1")
    with pytest.raises(FeasibleSetEmptyError):
        distance_to_S(system, (0.0,), DistanceConfig(grid_points=64))


def test_system_without_variables():
    # A constant system is one point, R^0: its residual is its largest
    # value, and it has neither a slope nor a distance to S.
    system = parse_system("f1 = 1\nf2 = -2")
    assert residual(system, []) == 1.0
    assert residual(parse_system("f1 = -1"), ()) == 0.0
    with pytest.raises(ValueError, match="^the system has no variables, so it has no slope$"):
        slope(system, [])
    with pytest.raises(ValueError, match="^the system has no variables, so it has no distance to S$"):
        distance_to_S(system, [])


def test_slope_singleton_matches_gradient_norm():
    single = parse_system("f1 = x^2 + y^2 - 1")
    out = slope(single, (1.0, 0.0))
    assert out.value == 2.0
    assert out.multipliers == (1.0,)


def test_slope_singleton_in_pair(half_disk):
    out = slope(half_disk, (-2.0, 0.0))  # circle component dominates
    assert out.active == (1,)
    assert out.value == pytest.approx(4.0, abs=1e-12)


def test_slope_symmetric_cancellation():
    system = parse_system("f1 = x\nf2 = -x")
    out = slope(system, (0.0,))
    assert out.value == pytest.approx(0.0, abs=1e-12)
    assert out.multipliers == pytest.approx((0.5, 0.5))


def test_slope_orthogonal_gradients():
    system = parse_system("f1 = x\nf2 = y")
    out = slope(system, (0.0, 0.0))
    assert out.value == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-9)
    assert out.multipliers == pytest.approx((0.5, 0.5), abs=1e-6)


def test_slope_invariant_under_reorder_and_duplication():
    system = parse_system("f1 = x + y\nf2 = x - y")
    x = (0.0, 0.0)
    base = slope(system, x).value
    swapped = parse_system("f1 = x - y\nf2 = x + y")
    assert slope(swapped, x).value == pytest.approx(base, abs=1e-10)
    duplicated = parse_system("f1 = x + y\nf2 = x - y\nf3 = x + y")
    assert slope(duplicated, x).value == pytest.approx(base, abs=1e-10)


def _simplex_grid_values(G, center, radius, step):
    """Norm of lambda'G on a simplex grid patch (pure enumeration)."""
    k = G.shape[0]
    if k == 2:
        lo = 0.0 if center is None else max(0.0, center[0] - radius)
        hi = 1.0 if center is None else min(1.0, center[0] + radius)
        l1 = np.arange(lo, hi + step / 2, step)
        lam = np.stack([l1, 1.0 - l1], axis=1)
    else:
        if center is None:
            lo1, hi1, lo2, hi2 = 0.0, 1.0, 0.0, 1.0
        else:
            lo1, hi1 = max(0.0, center[0] - radius), min(1.0, center[0] + radius)
            lo2, hi2 = max(0.0, center[1] - radius), min(1.0, center[1] + radius)
        l1 = np.arange(lo1, hi1 + step / 2, step)
        l2 = np.arange(lo2, hi2 + step / 2, step)
        A, B = np.meshgrid(l1, l2, indexing="ij")
        mask = A + B <= 1.0 + 1e-12
        lam = np.stack([A[mask], B[mask], 1.0 - A[mask] - B[mask]], axis=1)
    norms = np.linalg.norm(lam @ G, axis=1)
    best = int(np.argmin(norms))
    return float(norms[best]), lam[best]


def _grid_min_norm(G):
    """Three-stage zooming enumeration, independent of the corral method."""
    k = G.shape[0]
    if k == 1:
        return float(np.linalg.norm(G[0])), float(np.linalg.norm(G[0]))
    coarse, lam = _simplex_grid_values(G, None, None, 1e-3)
    best, lam = _simplex_grid_values(G, lam, 2e-3, 1e-5)
    best, lam = _simplex_grid_values(G, lam, 2e-5, 1e-7)
    return best, coarse


def _random_tied_system(rng: random.Random):
    n = rng.randint(2, 4)
    p = rng.randint(1, min(3, n))
    x = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n))
    polys = []
    for _ in range(p):
        terms = {}
        for _ in range(rng.randint(2, 5)):
            kappa = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(kappa) > 3:
                continue
            terms[kappa] = Fraction(rng.randint(-3, 3))
        f = Polynomial(terms, n)
        f = f - f.evaluate(x)  # exact tie at x
        polys.append(f)
    return PolySystem.from_polynomials(polys), x


def test_slope_matches_bruteforce_grid():
    rng = random.Random(101)
    done = 0
    while done < 100:
        system, x = _random_tied_system(rng)
        xf = tuple(float(v) for v in x)
        out = slope(system, xf)
        assert out.active == tuple(range(system.p))
        from holderbounds.polysys import gradient

        G = np.array(
            [[float(g) for g in gradient(f, xf)] for f in system.polys]
        )
        refined, coarse = _grid_min_norm(G)
        assert out.value <= coarse + 1e-7
        assert out.value == pytest.approx(refined, abs=1e-5)
        done += 1


def test_probe_goodness_single_square():
    system = parse_system("f1 = x^2")
    plan = SamplePlan(box=((-1.0, 1.0),), count=200, rings=(10.0, 100.0), seed=3)
    report = probe_goodness(system, plan)
    assert report.rings[0].floor == pytest.approx(20.0, rel=1e-6)
    assert report.rings[1].floor == pytest.approx(200.0, rel=1e-6)
    assert report.trend == "consistent"


def test_probe_goodness_half_disk(half_disk):
    plan = SamplePlan(box=BOX2, count=400, rings=(10.0, 100.0, 1000.0), seed=5)
    report = probe_goodness(half_disk, plan)
    floors = [r.floor for r in report.rings]
    assert all(f is not None and f >= 1.4 for f in floors)
    assert report.trend == "consistent"


def test_probe_goodness_decaying_valley():
    system = parse_system("f1 = x^2*y^2 - 2*x*y + 1 + y^2")  # (xy-1)^2 + y^2
    plan = SamplePlan(box=BOX2, count=2000, rings=(10.0, 100.0, 1000.0), seed=7)
    report = probe_goodness(system, plan)
    floors = [r.floor for r in report.rings]
    assert report.trend == "decaying"
    assert floors[-1] < 0.25 * floors[0]


def test_probe_goodness_empty_ring():
    system = parse_system("f1 = -1*x^2 - 1")  # never positive
    plan = SamplePlan(box=((-1.0, 1.0),), count=50, rings=(10.0, 100.0), seed=1)
    report = probe_goodness(system, plan)
    assert all(r.floor is None for r in report.rings)
    assert report.trend == "n/a"


def test_probe_goodness_refine_budget_validation():
    system = parse_system("f1 = x^2")
    plan = SamplePlan(box=((-1.0, 1.0),), count=20, rings=(10.0, 100.0), seed=3)
    for budget in ({"refine_starts": -1}, {"refine_iters": -1}):
        with pytest.raises(ValueError):
            probe_goodness(system, plan, **budget)
    # No search leaves the sampled floors; zero iterations only evaluate
    # each start's initial simplex, which can only lower them.
    sampled = probe_goodness(system, plan, refine_starts=0)
    simplex = probe_goodness(system, plan, refine_iters=0)
    searched = probe_goodness(system, plan)
    for a, b, c in zip(sampled.rings, simplex.rings, searched.rings):
        assert a.positive_samples == b.positive_samples == c.positive_samples == 20
        assert a.floor >= b.floor >= c.floor
    assert searched.rings[0].floor == pytest.approx(20.0, rel=1e-6)


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(box=((1.0, -1.0),), count=10)
    with pytest.raises(ValueError):
        SamplePlan(box=((-1.0, 1.0),), count=0)
    with pytest.raises(ValueError):
        SamplePlan(box=((-1.0, 1.0),), count=10, rings=(5.0, 5.0))
    for box in (((math.nan, 1.0),), ((-math.inf, 1.0),), ((-1.0, math.inf),)):
        with pytest.raises(ValueError):
            SamplePlan(box=box, count=10)
    for rings in ((math.nan, 2.0), (2.0, math.inf)):
        with pytest.raises(ValueError):
            SamplePlan(box=((-1.0, 1.0),), count=10, rings=rings)


def test_verify_bound_half_disk(half_disk):
    report = holder_exponent(2, 2, 2)
    plan = SamplePlan(box=BOX2, count=300, seed=11)
    out = verify_bound(half_disk, report, plan, dist_cfg=LIGHT)
    assert out.fitted_c is not None and out.fitted_c > 0
    assert out.violations == 0
    ratios = [r.ratio for r in out.records if r.ratio is not None]
    assert out.fitted_c == min(ratios)
    # The subset minimum can only be larger: min over a superset shrinks.
    assert min(ratios[:100]) >= out.fitted_c


def test_verify_bound_half_disk_sharper_exponent(half_disk):
    # The same data also supports the square-root exponent.
    sharp = ExponentReport(
        d=2, n=2, p=2, H=4, alpha=Fraction(1, 2), beta=Fraction(1), notes=()
    )
    plan = SamplePlan(box=BOX2, count=200, seed=13)
    out = verify_bound(half_disk, sharp, plan, dist_cfg=LIGHT)
    assert out.fitted_c is not None and out.fitted_c > 0
    assert out.violations == 0


def test_verify_bound_partition_analytic_distance():
    system = partition_system((1, 1))
    report = holder_exponent(4, 2, 1)
    targets = np.array([[1.0, -1.0], [-1.0, 1.0]])

    def exact_distance(x):
        return float(np.min(np.linalg.norm(targets - x, axis=1)))

    plan = SamplePlan(box=BOX2, count=400, seed=17)
    out = verify_bound(
        system, report, plan, distance_fn=exact_distance, anchors=targets
    )
    assert out.fitted_c is not None and out.fitted_c > 0
    assert out.violations == 0


def test_verify_bound_affine_hoffman_ratios():
    rng = np.random.default_rng(23)
    A = rng.uniform(-1, 1, size=(2, 2))
    x0 = rng.uniform(-1, 1, size=2)
    slack = rng.uniform(0.5, 1.5, size=2)
    polys = []
    for i in range(2):
        terms = {
            (1, 0): Fraction(A[i, 0]).limit_denominator(100),
            (0, 1): Fraction(A[i, 1]).limit_denominator(100),
        }
        f = Polynomial(terms, 2)
        b = f.evaluate(tuple(Fraction(v).limit_denominator(100) for v in x0))
        polys.append(f - b - Fraction(slack[i]).limit_denominator(100))
    system = PolySystem.from_polynomials(polys)
    report = holder_exponent(1, 2, 2)
    plan = SamplePlan(box=((-8.0, 8.0), (-8.0, 8.0)), count=200, seed=29)
    out = verify_bound(
        system, report, plan, dist_cfg=replace(LIGHT, search_box=plan.box)
    )
    assert out.violations == 0
    hoffman = [
        r.distance / r.residual
        for r in out.records
        if r.ratio is not None and r.residual > 0
    ]
    assert hoffman and max(hoffman) < 1e3


def test_verify_bound_sphere_cubic_origin_feasible_set(sphere_cubic):
    # The feasible set is exactly the origin (first component is a sum of
    # squares), so the oracle distance must track ||x||.
    report = holder_exponent(3, 3, 2)
    box3 = ((-2.0, 2.0),) * 3
    plan = SamplePlan(box=box3, count=120, seed=19)
    out = verify_bound(
        sphere_cubic,
        report,
        plan,
        dist_cfg=DistanceConfig(multistarts=4, grid_points=128, search_box=box3),
    )
    assert out.fitted_c is not None and out.fitted_c > 0
    assert out.violations == 0
    for record in out.records:
        norm = float(np.linalg.norm(record.x))
        if record.ratio is not None:
            assert record.ratio > 0
            assert record.distance == pytest.approx(norm, abs=2e-3)


def test_verify_bound_reproducible(half_disk):
    report = holder_exponent(2, 2, 2)
    plan = SamplePlan(box=BOX2, count=60, seed=31)
    a = verify_bound(half_disk, report, plan, dist_cfg=LIGHT)
    b = verify_bound(half_disk, report, plan, dist_cfg=LIGHT)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()

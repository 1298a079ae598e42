from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from holderbounds.bounds import (
    PARTITION_NOTE,
    WIDE_SYSTEM_NOTE,
    InconsistentCriticalPointError,
    holder_exponent,
    quadratic_bound,
    stability_radius,
)


def test_exponent_quadratic_pair():
    report = holder_exponent(d=2, n=2, p=2)
    assert report.H == 4 * 21**3 == 37044
    assert report.alpha == Fraction(1, 18522)
    assert report.beta == 1


def test_exponent_cubic_three_vars():
    report = holder_exponent(d=3, n=3, p=2)
    assert report.alpha == Fraction(1, 3 * 33**4) == Fraction(1, 3557763)


def test_exponent_partition_family():
    for n in (1, 2, 3, 5):
        report = holder_exponent(d=4, n=n, p=1)
        assert report.H == 8 * 45**n
        assert PARTITION_NOTE in report.notes
    assert holder_exponent(d=4, n=2, p=1).H == 16200


def test_exponent_decimal_expansion_fixtures():
    # Exact big-integer recomputation against frozen decimal strings.
    assert str(holder_exponent(2, 2, 2).H) == "37044"
    assert str(holder_exponent(3, 3, 2).H) == "7115526"
    assert str(2 * holder_exponent(3, 3, 2).H // 2) == "7115526"
    assert str(holder_exponent(4, 2, 1).H) == "16200"
    assert rationalish(holder_exponent(3, 3, 2).alpha) == "1/3557763"


def rationalish(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def test_exponent_monotonicity():
    base = holder_exponent(2, 2, 2).alpha
    assert holder_exponent(3, 2, 2).alpha < base
    assert holder_exponent(2, 3, 2).alpha < base
    assert holder_exponent(2, 2, 3).alpha < base
    assert 0 < base <= 1


def test_exponent_input_validation_and_warning():
    with pytest.raises(ValueError):
        holder_exponent(0, 2, 2)
    with pytest.raises(ValueError):
        holder_exponent(2, 2, 0)
    wide = holder_exponent(2, 2, 5)
    assert WIDE_SYSTEM_NOTE in wide.notes
    assert not holder_exponent(2, 2, 2).notes


def test_quadratic_bound_diagonal():
    qb = quadratic_bound(np.diag([2.0, -3.0, 0.0]), np.zeros(3))
    assert qb.lambda_min_nonzero == pytest.approx(2.0)
    assert qb.constant == pytest.approx(1.0)


def test_quadratic_bound_scalar_square():
    # f = x^2: A = [2], so the bound is |x| <= |x^2|^(1/2) with equality.
    qb = quadratic_bound(np.array([[2.0]]), np.zeros(1), 0.0)
    assert qb.constant == pytest.approx(1.0)
    for x in (-2.0, 0.5, 3.0):
        lhs = qb.constant * abs(x - qb.critical_point[0])
        rhs = abs(qb.value([x]) - qb.value(qb.critical_point)) ** 0.5
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_quadratic_bound_rejects_inconsistent():
    A = np.diag([1.0, 0.0])
    b = np.array([0.0, 1.0])  # outside range(A)
    with pytest.raises(InconsistentCriticalPointError):
        quadratic_bound(A, b)


def test_quadratic_bound_rejects_asymmetric_and_zero():
    with pytest.raises(ValueError):
        quadratic_bound(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        quadratic_bound(np.zeros((2, 2)), np.zeros(2))
    # An empty A used to raise numpy's zero-size reduction error instead.
    with pytest.raises(ValueError, match="A must be nonzero"):
        quadratic_bound(np.zeros((0, 0)), np.zeros(0))


def test_quadratic_gradient_inequality_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 5)
        raw = rng.uniform(-2, 2, size=(n, n))
        A = (raw + raw.T) / 2
        if np.abs(A).max() < 1e-9:
            continue
        w = rng.uniform(-2, 2, size=n)
        b = A @ w
        qb = quadratic_bound(A, b)
        fbar = qb.value(qb.critical_point)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=n)
            lhs = np.sqrt(2 * qb.lambda_min_nonzero) * abs(qb.value(x) - fbar) ** 0.5
            assert lhs <= np.linalg.norm(qb.gradient(x)) + 1e-8


def test_stability_radius_basics():
    report = holder_exponent(2, 2, 2)
    assert stability_radius(np.zeros(2), 3.0, report) == 0.0
    assert stability_radius([1.0, 0.0], 3.0, report) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        stability_radius([1.0], 0.0, report)


def test_stability_radius_monotone():
    report = holder_exponent(3, 2, 1)
    values = [stability_radius([t, 0.0], 2.0, report) for t in np.linspace(0, 4, 30)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_stability_radius_contains_perturbed_feasible_points(half_disk):
    # Empirical inclusion check: points feasible for the shifted system
    # f_i <= y_i stay within the radius of the unshifted feasible set.
    from holderbounds.polysys import Polynomial, PolySystem
    from holderbounds.verify import (
        DistanceConfig,
        DistanceOracle,
        SamplePlan,
        verify_bound,
    )

    report = holder_exponent(2, 2, 2)
    box = ((-2.0, 2.0), (-2.0, 2.0))
    fit = verify_bound(
        half_disk,
        report,
        SamplePlan(box=box, count=150, seed=23),
        dist_cfg=DistanceConfig(multistarts=6, grid_points=128, search_box=box),
    )
    inclusion_c = 1.0 / fit.fitted_c

    y = (0.1, 0.1)
    radius = stability_radius(y, inclusion_c, report)
    oracle = DistanceOracle(
        half_disk, DistanceConfig(multistarts=6, grid_points=128, search_box=box)
    )
    grid = np.linspace(-1.5, 1.5, 25)
    comp_values = [
        lambda p: p[0] + p[1],
        lambda p: p[0] ** 2 + p[1] ** 2 - 1.0,
    ]
    checked = 0
    for a in grid:
        for b in grid:
            point = (float(a), float(b))
            if all(f(point) <= yi for f, yi in zip(comp_values, y)):
                assert oracle.distance(point).distance <= radius + 1e-6
                checked += 1
    assert checked > 50

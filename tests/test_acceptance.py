"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see
them).  Budgets follow the library defaults unless the criterion itself
fixes a number.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from holderbounds.bounds import PARTITION_NOTE, holder_exponent, quadratic_bound
from holderbounds.newton import all_proper_faces, analyze_system, min_support, minkowski_sum, newton_polytope
from holderbounds.nondegen import CertifyConfig, build_m_delta, certify_system, euler_defects
from holderbounds.polysys import Polynomial, PolySystem, gradient, parse_system
from holderbounds.verify import (
    DistanceConfig,
    DistanceOracle,
    SamplePlan,
    slope,
    verify_bound,
)

from conftest import partition_system, random_convenient_system
from test_verify import _grid_min_norm, _random_tied_system


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _decomposition_table(geometry):
    table = {}
    for face in geometry.faces:
        key = frozenset(face.vertices)
        table[key] = tuple(frozenset(part) for part in face.decomposition)
    return table


def test_criterion_1_half_disk_end_to_end(half_disk):
    with criterion(1, "half-disk pair: geometry, certification, exponent, < 10 s"):
        start = time.monotonic()
        geometry = analyze_system(half_disk)
        assert set(geometry.sum_polytope.vertices) == {(0, 0), (3, 0), (0, 3)}
        assert len(geometry.faces) == 3
        table = _decomposition_table(geometry)
        assert table[frozenset({(3, 0)})] == (
            frozenset({(1, 0)}),
            frozenset({(2, 0)}),
        )
        assert table[frozenset({(0, 3)})] == (
            frozenset({(0, 1)}),
            frozenset({(0, 2)}),
        )
        assert table[frozenset({(3, 0), (0, 3)})] == (
            frozenset({(1, 0), (0, 1)}),
            frozenset({(2, 0), (0, 2)}),
        )

        verdict = certify_system(half_disk, CertifyConfig(), geometry)
        assert verdict.status == "nondegenerate_probable"
        for face in verdict.faces:
            assert face.status == "nondegenerate_probable"
            assert face.objective_min > 1e-6
            # Vertices and edges (every face when n = 2) are decided in
            # closed form, with no samples.
            assert face.method == "exact" and face.samples == 0

        report = holder_exponent(half_disk.d, half_disk.n, half_disk.p)
        assert report.alpha == Fraction(1, 18522)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


SPHERE_CUBIC_FACES = {
    frozenset({(3, 0, 0), (0, 3, 0), (2, 0, 3), (0, 2, 3)}): (
        {(2, 0, 0), (0, 2, 0)},
        {(1, 0, 0), (0, 1, 0), (0, 0, 3)},
    ),
    frozenset({(2, 0, 3), (0, 2, 3), (0, 0, 5)}): (
        {(2, 0, 0), (0, 2, 0), (0, 0, 2)},
        {(0, 0, 3)},
    ),
    frozenset({(3, 0, 0), (0, 3, 0)}): (
        {(2, 0, 0), (0, 2, 0)},
        {(1, 0, 0), (0, 1, 0)},
    ),
    frozenset({(2, 0, 3), (0, 2, 3)}): ({(2, 0, 0), (0, 2, 0)}, {(0, 0, 3)}),
    frozenset({(2, 0, 3), (0, 0, 5)}): ({(2, 0, 0), (0, 0, 2)}, {(0, 0, 3)}),
    frozenset({(3, 0, 0), (2, 0, 3)}): ({(2, 0, 0)}, {(1, 0, 0), (0, 0, 3)}),
    frozenset({(0, 2, 3), (0, 0, 5)}): ({(0, 2, 0), (0, 0, 2)}, {(0, 0, 3)}),
    frozenset({(0, 3, 0), (0, 2, 3)}): ({(0, 2, 0)}, {(0, 1, 0), (0, 0, 3)}),
    frozenset({(3, 0, 0)}): ({(2, 0, 0)}, {(1, 0, 0)}),
    frozenset({(0, 3, 0)}): ({(0, 2, 0)}, {(0, 1, 0)}),
    frozenset({(2, 0, 3)}): ({(2, 0, 0)}, {(0, 0, 3)}),
    frozenset({(0, 2, 3)}): ({(0, 2, 0)}, {(0, 0, 3)}),
    frozenset({(0, 0, 5)}): ({(0, 0, 2)}, {(0, 0, 3)}),
}


def test_criterion_2_sphere_cubic_end_to_end(sphere_cubic):
    with criterion(2, "sphere+cubic pair: 13 faces, all certified, exponent, < 60 s"):
        start = time.monotonic()
        geometry = analyze_system(sphere_cubic)
        assert len(geometry.faces) == 13
        table = _decomposition_table(geometry)
        assert set(table) == set(SPHERE_CUBIC_FACES)
        for key, (left, right) in SPHERE_CUBIC_FACES.items():
            assert table[key] == (frozenset(left), frozenset(right))

        verdict = certify_system(sphere_cubic, CertifyConfig(), geometry)
        assert len(verdict.faces) == 13
        assert verdict.status == "nondegenerate_probable"
        assert all(f.status == "nondegenerate_probable" for f in verdict.faces)

        report = holder_exponent(sphere_cubic.d, sphere_cubic.n, sphere_cubic.p)
        assert report.alpha == Fraction(1, 3557763)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_3_degenerate_pair(degenerate_pair, degenerate_pair_perturbed):
    with criterion(3, "degenerate pair: witness on x=y, perturbation recovers"):
        verdict = certify_system(degenerate_pair, CertifyConfig())
        assert verdict.status == "degenerate"
        bad = [f for f in verdict.faces if f.status == "degenerate"]
        assert len(bad) == 1
        record = bad[0]
        x, y = record.witness
        assert abs(x - y) < 1e-4
        assert min(abs(x), abs(y)) > 0.05
        assert record.objective_min < 1e-12

        perturbed = certify_system(degenerate_pair_perturbed, CertifyConfig())
        assert perturbed.status == "nondegenerate_probable"

        report = holder_exponent(degenerate_pair.d, 2, 2)
        assert report.alpha == Fraction(1, 18522)


def test_criterion_4_partition_fixture():
    with criterion(4, "partition fixture: H = 16200 with note, fitted c > 0"):
        system = partition_system((1, 1))
        report = holder_exponent(system.d, system.n, system.p)
        assert report.H == 16200
        assert PARTITION_NOTE in report.notes

        targets = np.array([[1.0, -1.0], [-1.0, 1.0]])

        def exact_distance(x):
            return float(np.min(np.linalg.norm(targets - x, axis=1)))

        plan = SamplePlan(box=((-3.0, 3.0), (-3.0, 3.0)), count=2000, seed=42)
        out = verify_bound(
            system, report, plan, distance_fn=exact_distance, anchors=targets
        )
        assert out.fitted_c is not None and out.fitted_c > 0
        assert out.violations == 0
        for record in out.records:
            if record.ratio is not None:
                assert record.ratio > 0


def _level_set_system(A, b, c0, level):
    n = A.shape[0]
    terms: dict = {}

    def bump(kappa, coeff):
        if coeff:
            kappa = tuple(kappa)
            terms[kappa] = terms.get(kappa, Fraction(0)) + coeff

    for i in range(n):
        for j in range(i, n):
            kappa = [0] * n
            kappa[i] += 1
            kappa[j] += 1
            coeff = Fraction(float(A[i, j]))
            if i == j:
                coeff /= 2
            bump(kappa, coeff)
    for i in range(n):
        kappa = [0] * n
        kappa[i] = 1
        bump(kappa, Fraction(float(b[i])))
    bump((0,) * n, Fraction(float(c0)) - Fraction(float(level)))
    g = Polynomial(terms, n)
    return PolySystem.from_polynomials([g, -g])


def test_criterion_5_quadratic_special_case():
    with criterion(5, "single quadratic: gradient and distance bounds, 0 violations"):
        rng = np.random.default_rng(515)
        instances = 0
        while instances < 20:
            n = int(rng.integers(1, 5))
            raw = rng.uniform(-2, 2, size=(n, n))
            A = (raw + raw.T) / 2
            if np.abs(A).max() < 1e-6:
                continue
            w = rng.uniform(-2, 2, size=n)
            b = A @ w
            c0 = float(rng.uniform(-1, 1))
            qb = quadratic_bound(A, b, c0)
            xbar = qb.critical_point
            fbar = qb.value(xbar)
            lam = qb.lambda_min_nonzero

            X = xbar[None, :] + rng.uniform(-2.5, 2.5, size=(1000, n))
            Z = X - xbar
            fdiff = 0.5 * np.einsum("ij,jk,ik->i", Z, A, Z)
            grads = Z @ A
            lhs = np.sqrt(2 * lam) * np.sqrt(np.abs(fdiff))
            assert (lhs <= np.linalg.norm(grads, axis=1) + 1e-8).all()

            system = _level_set_system(A, b, c0, fbar)
            box = tuple((float(xbar[j] - 2.5), float(xbar[j] + 2.5)) for j in range(n))
            oracle = DistanceOracle(
                system,
                DistanceConfig(
                    multistarts=3,
                    grid_points=128,
                    tau_feas=1e-13,
                    search_box=box,
                    known_feasible=(tuple(float(v) for v in xbar),),
                    stall_limit=2,
                    polish_iters=60,
                    seed=9,
                ),
            )
            for x, result in zip(X, oracle.distances(X)):
                d = result.distance
                assert qb.constant * d <= np.sqrt(abs(qb.value(x) - fbar)) + 1e-6
            instances += 1


def test_criterion_6_slope_oracle_equivalence():
    with criterion(6, "slope equals zoomed simplex enumeration and gradient norms"):
        rng = random.Random(606)
        done = 0
        while done < 100:
            system, x = _random_tied_system(rng)
            xf = tuple(float(v) for v in x)
            out = slope(system, xf)
            G = np.array([[float(g) for g in gradient(f, xf)] for f in system.polys])
            refined, coarse = _grid_min_norm(G)
            assert out.value <= coarse + 1e-7
            assert abs(out.value - refined) <= 1e-5
            done += 1

        # Singleton-active instances: slope is exactly the gradient norm.
        done = 0
        while done < 100:
            n = rng.randint(1, 4)
            p = rng.randint(1, 3)
            polys = []
            for _ in range(p):
                terms = {}
                for _ in range(rng.randint(1, 5)):
                    kappa = tuple(rng.randint(0, 2) for _ in range(n))
                    if sum(kappa) <= 3:
                        terms[kappa] = Fraction(rng.randint(-3, 3))
                polys.append(Polynomial(terms, n))
            system = PolySystem.from_polynomials(polys)
            xf = tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
            values = [float(f.evaluate(xf)) for f in system.polys]
            ranked = sorted(values, reverse=True)
            if len(ranked) > 1 and ranked[0] - ranked[1] < 1e-6:
                continue
            active = values.index(ranked[0])
            expected = float(
                np.linalg.norm([float(g) for g in gradient(system.polys[active], xf)])
            )
            out = slope(system, xf)
            assert out.active == (active,)
            assert abs(out.value - expected) <= 1e-12 * max(1.0, expected)
            done += 1


def test_criterion_7_property_suites(half_disk, sphere_cubic, degenerate_pair):
    with criterion(7, "support linearity, sign equivalences, Euler identity, determinism"):
        # Minkowski support-value linearity, 1000 exact rational directions.
        rng = random.Random(707)
        checked = 0
        while checked < 1000:
            system = random_convenient_system(rng, max_polys=3)
            parts = [newton_polytope(f) for f in system.polys]
            total = minkowski_sum(parts)
            for _ in range(20):
                q = tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(system.n)
                )
                assert min_support(total, q) == sum(
                    min_support(p, q) for p in parts
                )
                checked += 1

        # Triple sign equivalence on every face of 50 convenient systems.
        for _ in range(50):
            system = random_convenient_system(rng, max_polys=2)
            parts = [newton_polytope(f) for f in system.polys]
            total = minkowski_sum(parts)
            origin = (0,) * system.n
            for face in all_proper_faces(total):
                at_infinity = origin not in face.support
                assert at_infinity == (face.value < 0) == (min(face.witness) < 0)

        # Euler quasi-homogeneity identity, symbolically zero on each face.
        for system in (half_disk, sphere_cubic, degenerate_pair):
            geometry = analyze_system(system)
            for face in geometry.faces:
                for defect in euler_defects(build_m_delta(system, face)):
                    assert defect.is_zero

        # Byte-identical JSON under a fixed seed.
        cfg = CertifyConfig(samples=512, seed=2024)
        first = json.dumps(certify_system(sphere_cubic, cfg).to_json(), sort_keys=True)
        second = json.dumps(certify_system(sphere_cubic, cfg).to_json(), sort_keys=True)
        assert first == second
        report = holder_exponent(2, 2, 2)
        plan = SamplePlan(box=((-3.0, 3.0), (-3.0, 3.0)), count=120, seed=5)
        cfg_d = DistanceConfig(multistarts=6, grid_points=128, search_box=plan.box)
        va = verify_bound(half_disk, report, plan, dist_cfg=cfg_d)
        vb = verify_bound(half_disk, report, plan, dist_cfg=cfg_d)
        assert json.dumps(va.to_json(), sort_keys=True) == json.dumps(
            vb.to_json(), sort_keys=True
        )


def _random_affine_system(rng) -> tuple[PolySystem, np.ndarray]:
    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, 5))
    x0 = rng.uniform(-1.5, 1.5, size=n)
    polys = []
    for _ in range(p):
        a = rng.uniform(-2, 2, size=n)
        if np.abs(a).max() < 0.1:
            a[int(rng.integers(n))] = 1.0
        slack = float(rng.uniform(0.3, 1.5))
        terms = {}
        for j in range(n):
            kappa = [0] * n
            kappa[j] = 1
            terms[tuple(kappa)] = Fraction(float(a[j]))
        constant = -Fraction(float(float(a @ x0) + slack))
        terms[(0,) * n] = constant
        polys.append(Polynomial(terms, n))
    return PolySystem.from_polynomials(polys), x0


def test_criterion_8_hoffman_regime():
    with criterion(8, "affine systems: distance/residual ratio stays bounded out to R=1000"):
        rng = np.random.default_rng(808)
        for _ in range(20):
            system, x0 = _random_affine_system(rng)
            n = system.n
            box = tuple((-8.0, 8.0) for _ in range(n))
            oracle = DistanceOracle(
                system,
                DistanceConfig(
                    multistarts=3,
                    grid_points=96,
                    search_box=tuple((x0[j] - 4.0, x0[j] + 4.0) for j in range(n)),
                    known_feasible=(tuple(float(v) for v in x0),),
                    stall_limit=2,
                    seed=11,
                ),
            )
            ring_max = {}
            ratios = []
            # 700 box samples plus 100 per ring out to R = 1000.
            X_box = rng.uniform(-8, 8, size=(700, n))
            groups = [(None, X_box)]
            for radius in (10.0, 100.0, 1000.0):
                U = rng.standard_normal((100, n))
                U /= np.linalg.norm(U, axis=1, keepdims=True)
                groups.append((radius, radius * U))
            for radius, X in groups:
                best = 0.0
                residuals = np.maximum(oracle.comp(X)[0].max(axis=1), 0.0)
                X, residuals = X[residuals > 1e-9], residuals[residuals > 1e-9]
                for res, result in zip(residuals, oracle.distances(X)):
                    d = result.distance
                    if d <= 1e-6:
                        continue
                    ratio = d / res
                    assert np.isfinite(ratio)
                    ratios.append(ratio)
                    best = max(best, ratio)
                if radius is not None:
                    ring_max[radius] = best
            assert ratios, "no infeasible samples drawn"
            assert max(ratios) < 1e6
            if ring_max.get(10.0, 0.0) > 0 and ring_max.get(1000.0, 0.0) > 0:
                assert ring_max[1000.0] <= 5.0 * ring_max[10.0] + 1.0

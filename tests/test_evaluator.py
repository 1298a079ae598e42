"""The compiled float map that ``verify`` and ``nondegen`` evaluate through.

``verify._CompiledSystem`` is compared against the evaluator it
replaced, kept in ``evaluator_oracle.py`` (one exponent array per
component and per partial), and both against exact rational evaluation.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from holderbounds.evaluator import _CompiledMap
from holderbounds.polysys import Polynomial, gradient, parse_system
from holderbounds.verify import _CompiledSystem

from conftest import DEMO_SYSTEMS, random_convenient_system
from evaluator_oracle import PerPolynomialSystem
from face_oracle import pow_table
from ladder_oracle import dense_monomials, dense_table


def _systems():
    for path in DEMO_SYSTEMS:
        yield path.name, parse_system(path.read_text())
    for seed in range(30):
        rng = random.Random(seed)
        system = random_convenient_system(rng, max_vars=4, max_polys=3, max_extra_terms=4)
        yield f"seed {seed}", system


def _gauge(f: Polynomial, point) -> float:
    """sum |c| |x^kappa|: the scale of the rounding error of a float evaluation."""
    magnitude = tuple(abs(v) for v in point)
    return float(Polynomial({k: abs(c) for k, c in f.terms.items()}, f.nvars).evaluate(magnitude))


def test_compiled_system_matches_per_polynomial_oracle():
    for name, system in _systems():
        comp = _CompiledSystem(system)
        oracle = PerPolynomialSystem(system)
        X = np.random.default_rng(len(name)).uniform(-2.0, 2.0, size=(50, system.n))
        values, jac = comp(X)
        assert values.shape == (50, system.p) and jac.shape == (50, system.p, system.n)
        np.testing.assert_allclose(values, oracle.values(X), rtol=1e-12, atol=1e-10, err_msg=name)
        np.testing.assert_allclose(jac, oracle.grads(X), rtol=1e-12, atol=1e-10, err_msg=name)
        for x, v, g in zip(X[:5], values, jac):
            one_v, one_g = comp.one(x)
            np.testing.assert_allclose(one_v, v, rtol=1e-13, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(one_g, g, rtol=1e-13, atol=1e-12, err_msg=name)
            np.testing.assert_array_equal(comp.values_one(x), one_v)
            np.testing.assert_allclose(one_v, oracle.values_one(x), rtol=1e-12, atol=1e-10)
            np.testing.assert_allclose(one_g, oracle.grads_one(x), rtol=1e-12, atol=1e-10)


def test_compiled_system_matches_exact_evaluation():
    for name, system in _systems():
        comp = _CompiledSystem(system)
        rng = random.Random(name)
        for _ in range(3):
            point = tuple(
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 25), 10) for _ in range(system.n)
            )
            x = np.array([float(v) for v in point])
            for values, jac in (comp.one(x), tuple(a[0] for a in comp(x[None, :]))):
                for i, f in enumerate(system.polys):
                    exact = f.evaluate(point)
                    assert abs(values[i] - float(exact)) <= 1e-13 * (1 + _gauge(f, point)), name
                    for j, partial in enumerate(gradient(f, point)):
                        bound = 1e-13 * (1 + _gauge(f.partial(j), point))
                        assert abs(jac[i, j] - float(partial)) <= bound, name


def test_compiled_map_columns_and_shapes():
    system = parse_system("f1 = x^2 - y\nf2 = 3\nf3 = 0*x")
    cmap = _CompiledMap(system.polys, 2)
    # Union support in sorted order: (0, 0), (0, 1), (2, 0).
    assert cmap.exps.tolist() == [[0, 0], [0, 1], [2, 0]]
    assert cmap.coeffs.tolist() == [[0.0, 3.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    np.testing.assert_array_equal(cmap.one((2.0, 1.0)), [3.0, 3.0, 0.0])
    np.testing.assert_array_equal(cmap([[2.0, 1.0], [0.0, 0.0]]), [[3.0, 3.0, 0.0], [0.0, 3.0, 0.0]])
    empty = _CompiledMap((Polynomial.zero(2),), 2)
    assert empty.exps.shape == (0, 2)
    np.testing.assert_array_equal(empty([[1.0, 2.0]]), [[0.0]])
    np.testing.assert_array_equal(empty.one((1.0, 2.0)), [0.0])


@pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0)])
def test_wrong_point_length_raises(half_disk, point):
    # A length-1 point would otherwise broadcast against every exponent row.
    comp = _CompiledSystem(half_disk)
    with pytest.raises(ValueError, match="2-variable"):
        comp.one(point)
    with pytest.raises(ValueError, match="2-variable"):
        comp.values_one(point)
    with pytest.raises(ValueError, match="2-variable"):
        comp(np.array([point]))


def _wide_systems():
    """The demos, plus random systems whose compiled map has >= 16 monomials."""
    for path in DEMO_SYSTEMS:
        yield path.name, parse_system(path.read_text())
    found, seed = 0, 0
    while found < 6:
        rng = random.Random(1000 + seed)
        system = random_convenient_system(rng, max_vars=4, max_polys=3, max_extra_terms=6, max_degree=4)
        seed += 1
        if _CompiledSystem(system)._map.exps.shape[0] >= 16:
            found += 1
            yield f"seed {1000 + seed - 1}", system


def test_compiled_map_rows_do_not_depend_on_their_batch():
    # A point alone, or inside any batch, evaluates to the same bits: the
    # contraction never goes through BLAS, whose kernels round a row
    # according to the batch it is in.
    for name, system in _wide_systems():
        cmap = _CompiledSystem(system)._map
        rng = np.random.default_rng(len(name))
        for size in (1, 2, 37, 4096):
            X = rng.uniform(-2.5, 2.5, size=(size, system.n))
            batch = cmap(X)
            for i in range(size):
                np.testing.assert_array_equal(cmap(X[i : i + 1])[0], batch[i], err_msg=name)
                np.testing.assert_array_equal(cmap.one(X[i]), batch[i], err_msg=name)


def test_compiled_system_rows_do_not_depend_on_their_batch():
    # Values and Jacobians read the same bits alone, in a batch, and from
    # ``full``, which contracts the same table with the second partials too.
    for name, system in _wide_systems():
        comp = _CompiledSystem(system)
        X = np.random.default_rng(len(name)).uniform(-2.5, 2.5, size=(37, system.n))
        values, jac = comp(X)
        full = comp.full(X)
        np.testing.assert_array_equal(full[0], values, err_msg=name)
        np.testing.assert_array_equal(full[1], jac, err_msg=name)
        assert full[2].shape == (37, system.p, system.n, system.n)
        for i in range(len(X)):
            one = comp.one(X[i])
            np.testing.assert_array_equal(one[0], values[i], err_msg=name)
            np.testing.assert_array_equal(one[1], jac[i], err_msg=name)


def _ladder_cases():
    """Random maps with exponents up to 8, and points with negative, zero,
    tiny and large coordinates; every coordinate is a float, so the exact
    value below is the value at the very point the map evaluates."""
    rng = random.Random(8)
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, -3.25, 1e-3, -7e-4, 1234.5, -987.25, 2.0**20 + 1]
    for case in range(40):
        n = rng.randint(1, 4)
        polys = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 10)):
                kappa = tuple(rng.randint(0, 8) for _ in range(n))
                terms[kappa] = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 3, 8, 10]))
            polys.append(Polynomial(terms, n))
        points = [
            [rng.choice(pool) if rng.random() < 0.4 else rng.uniform(-3.0, 3.0) for _ in range(n)]
            for _ in range(12)
        ]
        yield case, _CompiledMap(polys, n), polys, np.array(points)


def test_power_ladder_matches_exact_evaluation():
    # Each monomial rounds at most once per multiply: (e - 1) times for a
    # rung x^e, then once per further variable.  With the coefficient's
    # rounding, its product and the sum over K monomials, an entry is off
    # by at most (degree + K + 1) ulps of the gauge sum |c x^kappa|.
    for case, cmap, polys, X in _ladder_cases():
        degree = int(cmap.exps.sum(axis=1).max())
        slack = degree + cmap.exps.shape[0] + 1
        batch = cmap(X)
        for i, (x, row) in enumerate(zip(X, batch)):
            point = tuple(Fraction(v) for v in x)
            np.testing.assert_array_equal(cmap.one(x), row, err_msg=f"case {case}")
            np.testing.assert_array_equal(cmap(X[i : i + 1])[0], row, err_msg=f"case {case}")
            for f, value in zip(polys, row):
                exact = f.evaluate(point)
                gauge = sum(abs(c) * abs(Polynomial({k: 1}, f.nvars).evaluate(point)) for k, c in f.terms.items())
                assert abs(Fraction(float(value)) - exact) <= slack * Fraction(math.ulp(float(gauge))), (case, x)


def test_power_ladder_zero_coordinates():
    # x^0 = 1 even at x = 0 (verify evaluates on coordinate hyperplanes),
    # and x^e = 0 for e >= 1.
    f = parse_system("f1 = 3 + x^2*y^0 + y^8 - 2*x^3*y^5").polys[0]
    cmap = _CompiledMap([f], 2)
    for x in ([0.0, 0.0], [0.0, -1.5], [-0.0, 2.0], [1.25, 0.0]):
        exact = float(f.evaluate(tuple(Fraction(v) for v in x)))
        assert cmap.one(x)[0] == exact and cmap([x])[0, 0] == exact
    table = cmap.table([[0.0], [0.0]])
    assert table[:, 0].tolist() == [1.0 if not any(kappa) else 0.0 for kappa in cmap.exps.tolist()]


def test_power_ladder_agrees_with_pow_table():
    # The ladder and the pow table it replaced agree to the rounding of the
    # ladder's multiplies: at most (degree - 1) ulps of each monomial.
    for case, cmap, _, X in _ladder_cases():
        ladder = cmap.table(X.T).T
        old = pow_table(cmap.exps, X)
        ulps = np.array([math.ulp(v) for v in np.abs(old).ravel()]).reshape(old.shape)
        degree = cmap.exps.sum(axis=1)[None, :]
        assert (np.abs(ladder - old) <= np.maximum(degree - 1, 0) * ulps).all(), case


def _sparse_ladder_cases():
    # The demos with their partials and Euler terms (the maps verify and
    # nondegen build), the ladder cases above, and random maps with
    # exponents up to 64 and gaps between them.
    for name, system in _systems():
        polys = list(system.polys)
        polys += [f.partial(j) for f in system.polys for j in range(system.n)]
        polys += [f.euler_term(j) for f in system.polys for j in range(system.n)]
        X = np.random.default_rng(len(name)).uniform(-3.0, 3.0, size=(20, system.n))
        yield name, _CompiledMap(polys, system.n), X
    for case, cmap, _, X in _ladder_cases():
        yield f"ladder {case}", cmap, X
    rng = random.Random(64)
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, -1.5, 1e-3, 1234.5]
    for case in range(40):
        n = rng.randint(1, 4)
        top = rng.choice([8, 17, 33, 64])
        terms = {
            tuple(rng.choice([0, 1, rng.randint(0, top)]) for _ in range(n)): Fraction(rng.randint(1, 5))
            for _ in range(rng.randint(1, 8))
        }
        X = np.array(
            [[rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(12)]
        )
        yield f"random {case}", _CompiledMap([Polynomial(terms, n)], n), X


def test_sparse_ladder_matches_dense_ladder_bit_for_bit():
    for name, cmap, X in _sparse_ladder_cases():
        assert cmap.table(X.T).tobytes() == dense_table(cmap.exps, X.T).tobytes(), name
        dense = dense_monomials(cmap.exps)
        for x in X.tolist():
            assert np.array(cmap._monomials(x)).tobytes() == np.array(dense(x)).tobytes(), (name, x)


def test_ladder_builds_only_the_rungs_the_support_needs():
    # x^99999999999 needs about 2 log2(1e11) ~ 73 rungs, not 1e11.
    f = parse_system("f1 = x^99999999999 - y^3").polys[0]
    cmap = _CompiledMap([f], 2)
    assert len(cmap._rungs) <= 2 * (99999999999).bit_length()
    X = np.array([[1.0, 1.0], [-1.0, 0.0], [0.5, -1.0], [-1.0000001, 0.0]])
    with np.errstate(over="ignore"):
        assert cmap(X)[:, 0].tolist() == [0.0, -1.0, 1.0, -math.inf]
    assert [cmap.one(x)[0] for x in X] == [0.0, -1.0, 1.0, -math.inf]


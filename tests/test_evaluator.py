"""The compiled float map that ``verify`` and ``nondegen`` evaluate through.

``verify._CompiledSystem`` is compared against the evaluator it
replaced, kept in ``evaluator_oracle.py`` (one exponent array per
component and per partial), and both against exact rational evaluation.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from holderbounds.polysys import Polynomial, _CompiledMap, gradient, parse_system
from holderbounds.verify import _CompiledSystem

from conftest import DEMO_SYSTEMS, random_convenient_system
from evaluator_oracle import PerPolynomialSystem


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

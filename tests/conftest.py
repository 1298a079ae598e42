from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from holderbounds.polysys import Polynomial, PolySystem, parse_system

HALF_DISK_TEXT = "f1 = x + y\nf2 = x^2 + y^2 - 1"
SPHERE_CUBIC_TEXT = "f1 = x^2 + y^2 + z^2\nf2 = x + y + z^3"
DEGENERATE_PAIR_TEXT = "f1 = x^2 - y^2\nf2 = x - y"
DEGENERATE_PAIR_PERTURBED_TEXT = "f1 = x^2 - y^2\nf2 = x - y + 1/10*x"

# The fixture files under demos/systems.
DEMO_SYSTEMS = sorted(
    (Path(__file__).resolve().parent.parent / "demos" / "systems").glob("*.poly")
)


def at_point(comp, x):
    """Values (p,) and Jacobian (p, n) of a compiled system at one point:
    row 0 of the batched map, whose bits do not depend on the batch."""
    values, jac = comp(x)
    return values[0], jac[0]


@pytest.fixture(scope="session")
def half_disk() -> PolySystem:
    return parse_system(HALF_DISK_TEXT)


@pytest.fixture(scope="session")
def sphere_cubic() -> PolySystem:
    return parse_system(SPHERE_CUBIC_TEXT)


@pytest.fixture(scope="session")
def degenerate_pair() -> PolySystem:
    return parse_system(DEGENERATE_PAIR_TEXT)


@pytest.fixture(scope="session")
def degenerate_pair_perturbed() -> PolySystem:
    return parse_system(DEGENERATE_PAIR_PERTURBED_TEXT)


def partition_system(weights) -> PolySystem:
    """Feasibility polynomial of the +/-1 partition problem for given weights."""
    n = len(weights)
    linear = Polynomial({}, n)
    for j, a in enumerate(weights):
        linear = linear + a * Polynomial.variable(j, n)
    f = linear * linear
    for j in range(n):
        square = Polynomial.variable(j, n) * Polynomial.variable(j, n) - 1
        f = f + square * square
    return PolySystem.from_polynomials([f])


def random_convenient_system(
    rng: random.Random,
    max_vars: int = 3,
    max_polys: int = 2,
    max_extra_terms: int = 2,
    max_degree: int = 4,
    min_vars: int = 2,
) -> PolySystem:
    """Random system whose components all carry a pure power of each variable.

    An extra term drawn with coefficient 0 is dropped, except that it never
    deletes a pure power; the random draws are the same either way.
    """
    n = rng.randint(min_vars, max_vars)
    p = rng.randint(1, max_polys)
    polys = []
    for _ in range(p):
        terms = {}
        for j in range(n):
            kappa = [0] * n
            kappa[j] = rng.randint(1, max_degree)
            terms[tuple(kappa)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        pure_powers = set(terms)
        for _ in range(rng.randint(0, max_extra_terms)):
            kappa = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(kappa) > max_degree:
                continue
            coeff = Fraction(rng.randint(-3, 3))
            if coeff or kappa not in pure_powers:
                terms[kappa] = coeff
        polys.append(Polynomial({k: c for k, c in terms.items() if c != 0}, n))
    return PolySystem.from_polynomials(polys)

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from conftest import DEMO_SYSTEMS, random_convenient_system
from holderbounds.polysys import (
    DimensionMismatchError,
    ParseError,
    Polynomial,
    PolynomialError,
    PolySystem,
    evaluate,
    gradient,
    parse_system,
    principal_part,
)
from polysystem_oracle import PolySystem as DataclassPolySystem


def test_parse_half_disk_pair():
    system = parse_system("f1 = x + y\nf2 = x^2 + y^2 - 1")
    assert system.p == 2
    assert system.n == 2
    assert system.d == 2
    assert system.varnames == ("x", "y")
    assert system.polys[1].support() == {(2, 0), (0, 2), (0, 0)}


def test_parse_zero_polynomial():
    system = parse_system("f1 = 0")
    assert system.polys[0].is_zero
    assert system.polys[0].support() == frozenset()
    assert system.polys[0].degree() == 0


def test_parse_collects_like_terms():
    f = parse_system("f1 = 2*x*x - x^2").polys[0]
    assert f.terms == {(2,): Fraction(1)}


def test_parse_coefficient_forms():
    f = parse_system("f1 = 1/2*x + 0.25*y - 3 x y").polys[0]
    assert f.terms[(1, 0)] == Fraction(1, 2)
    assert f.terms[(0, 1)] == Fraction(1, 4)
    assert f.terms[(1, 1)] == Fraction(-3)


def test_parse_scientific_notation_coefficients():
    system = parse_system("f1 = 1e-3*x + y^2 - 1\nf2 = 2.5E+2*x - .5e1 + 3e0*y")
    assert system.n == 2 and system.varnames == ("x", "y")
    assert system.polys[0].terms[(1, 0)] == Fraction(1, 1000)
    assert system.polys[1].terms == {(1, 0): Fraction(250), (0, 0): Fraction(-5), (0, 1): Fraction(3)}
    assert parse_system("f1 = 1e-999*x").polys[0].terms == {(1,): Fraction(1, 10**999)}


def test_parse_letter_e_after_a_coefficient_is_a_variable():
    for text in ("f1 = 2*e5 + x", "f1 = 2 e5 + x", "f1 = 2e*x + x"):
        system = parse_system(text)
        assert system.varnames[0].startswith("e") and system.n == 2, text


def test_parse_leading_minus_and_comments():
    f = parse_system("# system\nf1 = -x + y  # trailing\n").polys[0]
    assert f.terms == {(1, 0): Fraction(-1), (0, 1): Fraction(1)}


@pytest.mark.parametrize(
    "text",
    [
        "f1 = x +",
        "f1 = x ** y",
        "f1 = x ^ 1.5",
        "f1 = 2 3",
        "f1 = x 2",
        "f1 y = 2",
        "f1 = x / 2",
        "f1 = x^1e3",
        "f1 = 1e2/3*x",
        "f1 = 3/1e2*x",
        "f1 = 1.5/2*x",
        "f1 = 1e1000*x",
        # Past Python's 4,300-digit limit on integer strings.
        pytest.param("f1 = 1" + "0" * 5000 + "*x^2 + y", id="long-coefficient"),
        pytest.param("f1 = 0." + "0" * 5000 + "1*x + y", id="long-decimal"),
        pytest.param("f1 = 1" + "0" * 5000 + "/3*x + y", id="long-numerator"),
        pytest.param("f1 = 1/1" + "0" * 5000 + "*x + y", id="long-denominator"),
        pytest.param("f1 = x^1" + "0" * 5000 + " + y", id="long-exponent"),
    ],
)
def test_parse_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_system(text)


@pytest.mark.parametrize(
    "text, char, column",
    [("f = x² - 1", "²", 6), ("f = x₁ + 1", "₁", 6), ("f = x٣", "٣", 6), ("f = ２*x", "２", 5), ("f = é + 1", "é", 5)],
)
def test_parse_rejects_non_ascii_names_and_digits(text, char, column):
    # Unicode \w and \d read x² as a variable named x² and ２ as 2.
    with pytest.raises(ParseError, match=f"column {column}: unexpected character {char!r}"):
        parse_system(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_system("f1 = x\nf2 = y +")
    assert err.value.line == 2


def test_parse_duplicate_component():
    with pytest.raises(ParseError, match="duplicate"):
        parse_system("f1 = x\nf1 = y")


def test_parse_component_name_as_variable():
    with pytest.raises(ParseError, match="component name"):
        parse_system("f1 = x\nf2 = f1 + y")


def test_parse_variable_limit():
    text = "f1 = " + " + ".join(f"v{i}" for i in range(9))
    with pytest.raises(ParseError, match="limit"):
        parse_system(text)
    parse_system(text, var_limit=9)


def test_evaluate_examples():
    f = parse_system("f1 = x^2 + y^2 - 1").polys[0]
    assert evaluate(f, (2, 0)) == 3
    assert evaluate(Polynomial.zero(3), (1.0, 2.0, 3.0)) == 0
    g = parse_system("f1 = x + y").polys[0]
    assert evaluate(g, (1, -1)) == 0


def test_evaluate_exact_vs_float():
    f = parse_system("f1 = 1/3*x^2").polys[0]
    assert evaluate(f, (Fraction(3, 2),)) == Fraction(3, 4)
    assert isinstance(evaluate(f, (1.5,)), float)


def test_evaluate_dimension_mismatch():
    f = parse_system("f1 = x + y").polys[0]
    with pytest.raises(DimensionMismatchError):
        evaluate(f, (1,))


def test_gradient_examples():
    f = parse_system("f1 = x^2 + y^2 - 1").polys[0]
    assert gradient(f, (1, 0)) == (2, 0)
    g = parse_system("f1 = x + y").polys[0]
    assert gradient(g, (7.5, -3.0)) == (1, 1)


def _fd_gradient(f, x, h=1e-6):
    out = []
    for j in range(f.nvars):
        up = list(x)
        dn = list(x)
        up[j] += h
        dn[j] -= h
        out.append((f.evaluate(up) - f.evaluate(dn)) / (2 * h))
    return out


def test_gradient_matches_central_differences_fixture():
    f = parse_system("f1 = x^2*y").polys[0]
    assert gradient(f, (1, 2)) == (4, 1)
    fd = _fd_gradient(f, (1.0, 2.0))
    assert fd == pytest.approx([4.0, 1.0], rel=1e-6)


def test_gradient_matches_central_differences_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            kappa = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(kappa) > 4:
                continue
            terms[kappa] = rng.randint(-4, 4)
        f = Polynomial(terms, n)
        x = [rng.uniform(-1.5, 1.5) for _ in range(n)]
        sym = [float(v) for v in gradient(f, x)]
        fd = _fd_gradient(f, x)
        for a, b in zip(sym, fd):
            assert a == pytest.approx(b, rel=1e-5, abs=1e-5)


def test_principal_part_examples():
    f2 = parse_system("f1 = x^2 + y^2 - 1").polys[0]
    edge = {(2, 0), (0, 2)}
    assert principal_part(f2, edge).terms == {(2, 0): Fraction(1), (0, 2): Fraction(1)}
    f1 = parse_system("f1 = x + y").polys[0]
    assert principal_part(f1, {(1, 0)}).terms == {(1, 0): Fraction(1)}
    assert principal_part(f2, f2.support()) == f2


def test_principal_part_idempotent_and_empty():
    f = parse_system("f1 = x^3 + x*y + 2").polys[0]
    s = {(3, 0), (1, 1)}
    once = principal_part(f, s)
    assert principal_part(once, s) == once
    assert principal_part(f, {(9, 9)}).is_zero


def _random_polynomial(rng, n):
    terms = {}
    for _ in range(rng.randint(0, 7)):
        kappa = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(kappa) > 4:
            continue
        terms[kappa] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(terms, n)


def _named_terms(system):
    """Component terms keyed by variable name, order independent."""
    out = []
    for f in system.polys:
        rows = set()
        for kappa, coeff in f.terms.items():
            named = frozenset(
                (v, k) for v, k in zip(system.varnames, kappa) if k != 0
            )
            rows.add((named, coeff))
        out.append(frozenset(rows))
    return out


def test_round_trip_through_text():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 4)
        polys = [_random_polynomial(rng, n) for _ in range(rng.randint(1, 3))]
        if all(f.is_zero for f in polys):
            polys[0] = Polynomial.variable(0, n)
        system = PolySystem.from_polynomials(polys)
        again = parse_system(system.to_text(), var_limit=max(8, n))
        assert _named_terms(again) == _named_terms(system)
        # A second print/parse cycle is exactly stable.
        third = parse_system(again.to_text(), var_limit=max(8, n))
        assert third.to_text() == again.to_text()


def test_evaluate_linear_in_coefficients():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = _random_polynomial(rng, n)
        g = _random_polynomial(rng, n)
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)


def test_polynomial_hash_and_equality():
    f = parse_system("f1 = x + y").polys[0]
    g = Polynomial({(1, 0): 1, (0, 1): 1}, 2)
    assert f == g
    assert hash(f) == hash(g)
    assert f != Polynomial({(1, 0): 1}, 2)


def _system_pairs():
    """(hand-written, dataclass) twins of the demo systems and of random ones."""
    systems = [parse_system(path.read_text(encoding="utf-8")) for path in DEMO_SYSTEMS]
    rng = random.Random(5)
    systems += [random_convenient_system(rng, max_vars=4, min_vars=1) for _ in range(10)]
    return [(s, DataclassPolySystem(s.polys, s.varnames, s.names)) for s in systems]


def test_polysystem_equality_hash_and_repr_match_the_dataclass():
    pairs = _system_pairs()
    for system, twin in pairs:
        same = PolySystem(polys=system.polys, varnames=system.varnames, names=system.names)
        assert system == same and not system != same
        assert hash(system) == hash(same) == hash(twin)
        assert repr(system) == repr(twin)
        # Like the dataclass, the class never equals another class's instance.
        assert system != twin and twin != system
        assert system != (system.polys, system.varnames, system.names)
    for (a, twin_a), (b, twin_b) in zip(pairs, pairs[1:]):
        assert (a == b) == (twin_a == twin_b) is False
    renamed = PolySystem(pairs[0][0].polys, pairs[0][0].varnames, ("g",) * pairs[0][0].p)
    assert renamed != pairs[0][0]


@pytest.mark.parametrize(
    "fields",
    [
        ((), ("x",), ()),
        ((Polynomial.variable(0, 1),), ("x",), ("f1", "f2")),
        ((Polynomial.variable(0, 1), Polynomial.variable(0, 2)), ("x",), ("f1", "f2")),
    ],
    ids=["no-components", "names", "variable-counts"],
)
def test_polysystem_validation_matches_the_dataclass(fields):
    with pytest.raises(PolynomialError) as expected:
        DataclassPolySystem(*fields)
    with pytest.raises(PolynomialError) as err:
        PolySystem(*fields)
    assert str(err.value) == str(expected.value)


def test_polysystem_assignment_raises_like_the_dataclass():
    system, twin = _system_pairs()[0]
    for name in ("polys", "varnames", "names", "extra"):
        for action in (lambda s: setattr(s, name, ()), lambda s: delattr(s, name)):
            with pytest.raises(AttributeError) as expected:
                action(twin)
            with pytest.raises(AttributeError) as err:
                action(system)
            assert str(err.value) == str(expected.value)
    assert system == parse_system(system.to_text())


def test_polysystem_pickle_and_copy_round_trip():
    for system, twin in _system_pairs():
        for clone in (
            pickle.loads(pickle.dumps(system)),
            copy.copy(system),
            copy.deepcopy(system),
        ):
            assert type(clone) is PolySystem
            assert clone == system and hash(clone) == hash(system)
            assert repr(clone) == repr(twin)

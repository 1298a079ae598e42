"""Sparse multivariate polynomials over exact rationals.

A polynomial is a finite map from exponent vectors (one non-negative
integer per variable) to nonzero Fraction coefficients.  All symbolic
work -- parsing, arithmetic, differentiation, support extraction -- is
exact; floating point enters only when a polynomial is evaluated at a
float point, one point at a time.  This module imports no numpy: float
evaluation of many points goes through ``evaluator``'s compiled map.

The textual input format is line based, one definition per line::

    # comment
    f1 = x + y
    f2 = 1/2*x^2 + 0.5*y^2 - 1

Coefficients may be integers, decimals with an optional power of ten
(``1e-3``, ``2.5E+2``; the power has at most three digits), or integer
fractions ``a/b``.  Exponents, numerators and denominators are integers.
Factors are juxtaposed with optional ``*``.  Variables are the
identifiers that never appear on a left-hand side; their order is
first-appearance order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]
Rational = int | Fraction

DEFAULT_VAR_LIMIT = 8


class PolynomialError(ValueError):
    """Base error for polynomial construction and use."""


class ParseError(PolynomialError):
    """Syntax or semantic error in polynomial system text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DimensionMismatchError(PolynomialError):
    """Point length does not match the polynomial's variable count."""


def grlex_key(kappa: Exponent) -> tuple:
    """Graded-lexicographic sort key: total degree first, then lex."""
    return (sum(kappa), kappa)


def rational_str(value: Rational) -> str:
    """Exact decimal-free rendering of a rational, e.g. ``-3`` or ``1/2``."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero
    Fractions.  The zero polynomial has an empty map.  Instances are
    treated as immutable: share freely across threads, never mutate
    ``terms`` after construction.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping[Exponent, Rational], nvars: int):
        if nvars < 0:
            raise PolynomialError("nvars must be non-negative")
        canonical: dict[Exponent, Fraction] = {}
        for kappa, coeff in terms.items():
            kappa = tuple(int(k) for k in kappa)
            if len(kappa) != nvars:
                raise PolynomialError(
                    f"exponent vector {kappa} has length {len(kappa)}, expected {nvars}"
                )
            if any(k < 0 for k in kappa):
                raise PolynomialError(f"negative exponent in {kappa}")
            c = Fraction(coeff)
            if c != 0:
                canonical[kappa] = canonical.get(kappa, Fraction(0)) + c
                if canonical[kappa] == 0:
                    del canonical[kappa]
        self.terms = canonical
        self.nvars = nvars

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls({}, nvars)

    @classmethod
    def constant(cls, value: Rational, nvars: int) -> "Polynomial":
        return cls({(0,) * nvars: value}, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        exp = [0] * nvars
        exp[index] = 1
        return cls({tuple(exp): 1}, nvars)

    # -- basic queries ---------------------------------------------------------

    def support(self) -> frozenset[Exponent]:
        return frozenset(self.terms)

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(k) for k in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ------------------------------------------------------------

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"polynomials over {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        out = dict(self.terms)
        for kappa, c in other.terms.items():
            out[kappa] = out.get(kappa, Fraction(0)) + c
        return Polynomial(out, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({k: -c for k, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(
                {k: c * Fraction(other) for k, c in self.terms.items()}, self.nvars
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        out: dict[Exponent, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return Polynomial(out, self.nvars)

    __rmul__ = __mul__

    # -- calculus and evaluation -----------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``index``."""
        out: dict[Exponent, Fraction] = {}
        for kappa, c in self.terms.items():
            k = kappa[index]
            if k == 0:
                continue
            key = kappa[:index] + (k - 1,) + kappa[index + 1 :]
            out[key] = out.get(key, Fraction(0)) + c * k
        return Polynomial(out, self.nvars)

    def euler_term(self, index: int) -> "Polynomial":
        """The polynomial ``x_j * ∂f/∂x_j`` (same support, scaled coefficients)."""
        return Polynomial(
            {k: c * k[index] for k, c in self.terms.items() if k[index] != 0},
            self.nvars,
        )

    def evaluate(self, point: Sequence) -> Fraction | float:
        """Evaluate at ``point``; exact Fraction result for rational points."""
        if len(point) != self.nvars:
            raise DimensionMismatchError(
                f"point of length {len(point)} for {self.nvars} variables"
            )
        exact = all(isinstance(v, (int, Fraction)) for v in point)
        if exact:
            total = Fraction(0)
            for kappa, c in self.terms.items():
                mono = Fraction(1)
                for v, k in zip(point, kappa):
                    if k:
                        mono *= Fraction(v) ** k
                total += c * mono
            return total
        total_f = 0.0
        for kappa, c in self.terms.items():
            mono_f = 1.0
            for v, k in zip(point, kappa):
                if k:
                    mono_f *= float(v) ** k
            total_f += float(c) * mono_f
        return total_f

    __call__ = evaluate

    # -- protocol --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __str__(self):
        return self._render([_default_name(j, self.nvars) for j in range(self.nvars)])

    def _render(self, varnames: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for kappa in sorted(self.terms, key=grlex_key, reverse=True):
            coeff = self.terms[kappa]
            factors = []
            for name, k in zip(varnames, kappa):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            mag = abs(coeff)
            if not mono:
                body = rational_str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{rational_str(mag)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Polynomial({self})"

    def to_string(self, varnames: Sequence[str]) -> str:
        """Render with explicit variable names (grammar round-trippable)."""
        if len(varnames) != self.nvars:
            raise DimensionMismatchError("varnames length mismatch")
        return self._render(varnames)


def _default_name(j: int, nvars: int) -> str:
    if nvars <= 3:
        return "xyz"[j]
    return f"x{j + 1}"


@dataclass(frozen=True)
class PolySystem:
    """Ordered polynomial map F = (f_1, ..., f_p) over shared variables."""

    polys: tuple[Polynomial, ...]
    varnames: tuple[str, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.polys:
            raise PolynomialError("a system needs at least one component")
        if len(self.names) != len(self.polys):
            raise PolynomialError("one name per component required")
        n = len(self.varnames)
        for f in self.polys:
            if f.nvars != n:
                raise PolynomialError("component variable counts disagree")

    @property
    def n(self) -> int:
        return len(self.varnames)

    @property
    def p(self) -> int:
        return len(self.polys)

    @property
    def d(self) -> int:
        return max(f.degree() for f in self.polys)

    @classmethod
    def from_polynomials(
        cls,
        polys: Iterable[Polynomial],
        varnames: Sequence[str] | None = None,
        names: Sequence[str] | None = None,
    ) -> "PolySystem":
        polys = tuple(polys)
        n = polys[0].nvars if polys else 0
        if varnames is None:
            varnames = tuple(_default_name(j, n) for j in range(n))
        if names is None:
            names = tuple(f"f{i + 1}" for i in range(len(polys)))
        return cls(polys, tuple(varnames), tuple(names))

    def to_text(self) -> str:
        return "\n".join(
            f"{name} = {f.to_string(self.varnames)}"
            for name, f in zip(self.names, self.polys)
        )


# -- parsing -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)|(?P<op>[-+*^/=])"
)


def _is_integer(tok) -> bool:
    """Whether ``tok`` is an integer literal: digits only, no point or power of ten."""
    return tok is not None and tok[0] == "number" and tok[1].isdecimal()


def _tokenize(text: str, lineno: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", lineno, pos + 1)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group(), lineno, m.start() + 1))
    return tokens


class _LineParser:
    """Recursive-descent parser for one ``name = expr`` definition."""

    def __init__(self, tokens, component_names, var_order, var_limit):
        self.tokens = tokens
        self.i = 0
        self.component_names = component_names
        self.var_order = var_order
        self.var_limit = var_limit

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek() or self.tokens[-1]
        raise ParseError(message, tok[2], tok[3])

    def parse_expr(self):
        terms = []
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.next()
            sign = -1 if tok[1] == "-" else 1
        terms.append(self.parse_term(sign))
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] in "+-":
                self.next()
                terms.append(self.parse_term(-1 if tok[1] == "-" else 1))
            else:
                self.error(f"expected '+' or '-', got {tok[1]!r}")
        return terms

    def parse_term(self, sign):
        coeff = Fraction(sign)
        powers: dict[str, int] = {}
        saw_atom = False
        tok = self.peek()
        if tok and tok[0] == "number":
            self.next()
            coeff *= self.finish_coefficient(tok)
            saw_atom = True
            self.skip_star()
        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "op" and tok[1] in "+-"):
                break
            if tok[0] == "number":
                self.error("coefficient must precede variables", tok)
            if tok[0] != "ident":
                self.error(f"unexpected {tok[1]!r}", tok)
            self.next()
            name = tok[1]
            if name in self.component_names:
                self.error(f"component name {name!r} used as a variable", tok)
            self.register_variable(name, tok)
            exponent = 1
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "^":
                self.next()
                etok = self.next()
                if not _is_integer(etok):
                    self.error("exponent must be a non-negative integer", etok or tok)
                exponent = int(etok[1])
            powers[name] = powers.get(name, 0) + exponent
            saw_atom = True
            self.skip_star()
        if not saw_atom:
            self.error("empty term")
        return coeff, powers

    def finish_coefficient(self, tok):
        text = tok[1]
        nxt = self.peek()
        if nxt and nxt[0] == "op" and nxt[1] == "/":
            if not _is_integer(tok):
                self.error("a fraction's numerator must be an integer", tok)
            self.next()
            dtok = self.next()
            if not _is_integer(dtok) or int(dtok[1]) == 0:
                self.error("denominator must be a positive integer", dtok or tok)
            return Fraction(int(text), int(dtok[1]))
        # Fraction reads "1e-3" exactly as 1/1000.  Three digits span the
        # float range; a longer power would make it build an integer of
        # that many digits.
        if len(text.lower().partition("e")[2].lstrip("+-").lstrip("0")) > 3:
            self.error("a coefficient's power of ten has more than three digits", tok)
        return Fraction(text)

    def skip_star(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "*":
            self.next()

    def register_variable(self, name, tok):
        if name not in self.var_order:
            if len(self.var_order) >= self.var_limit:
                self.error(
                    f"variable {name!r} exceeds the limit of {self.var_limit} variables",
                    tok,
                )
            self.var_order.append(name)


def parse_system(text: str, var_limit: int = DEFAULT_VAR_LIMIT) -> PolySystem:
    """Parse polynomial definitions into a :class:`PolySystem`.

    Like terms are collected at parse time; variable order is
    first-appearance order.  Raises :class:`ParseError` with line and
    column on bad input, duplicate component names, or too many
    variables.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            lines.append((lineno, body))
    if not lines:
        raise ParseError("no definitions found", 1, 1)

    # First pass: component names, so bodies can reject them as variables.
    headers = []
    names_seen: dict[str, int] = {}
    for lineno, body in lines:
        tokens = _tokenize(body, lineno)
        if len(tokens) < 2 or tokens[0][0] != "ident":
            raise ParseError("each line must start with 'name ='", lineno, tokens[0][3] if tokens else 1)
        if tokens[1][0] != "op" or tokens[1][1] != "=":
            raise ParseError("expected '=' after component name", lineno, tokens[1][3])
        name = tokens[0][1]
        if name in names_seen:
            raise ParseError(
                f"duplicate definition of component {name!r}", lineno, tokens[0][3]
            )
        names_seen[name] = lineno
        headers.append((name, tokens[2:], lineno))

    component_names = set(names_seen)
    var_order: list[str] = []
    raw_polys = []
    for name, tokens, lineno in headers:
        if not tokens:
            raise ParseError("empty right-hand side", lineno, 1)
        parser = _LineParser(tokens, component_names, var_order, var_limit)
        raw_polys.append((name, parser.parse_expr()))

    n = len(var_order)
    index = {v: j for j, v in enumerate(var_order)}
    polys = []
    names = []
    for name, terms in raw_polys:
        acc: dict[Exponent, Fraction] = {}
        for coeff, powers in terms:
            kappa = [0] * n
            for v, k in powers.items():
                kappa[index[v]] = k
            key = tuple(kappa)
            acc[key] = acc.get(key, Fraction(0)) + coeff
        polys.append(Polynomial(acc, n))
        names.append(name)
    return PolySystem(tuple(polys), tuple(var_order), tuple(names))


# -- module-level operations -----------------------------------------------------


def evaluate(f: Polynomial, point: Sequence) -> Fraction | float:
    """Evaluate ``f`` at ``point`` (exact for rational points)."""
    return f.evaluate(point)


def gradient(f: Polynomial, point: Sequence) -> tuple:
    """Exact symbolic partials of ``f`` evaluated at ``point``."""
    if len(point) != f.nvars:
        raise DimensionMismatchError(
            f"point of length {len(point)} for {f.nvars} variables"
        )
    return tuple(f.partial(j).evaluate(point) for j in range(f.nvars))


def principal_part(f: Polynomial, face_support: Iterable[Exponent]) -> Polynomial:
    """Sub-sum of ``f`` over the monomials whose exponents lie in ``face_support``."""
    keep = {tuple(int(v) for v in kappa) for kappa in face_support}
    return Polynomial({k: c for k, c in f.terms.items() if k in keep}, f.nvars)

"""Explicit error-bound exponents and the quadratic special case.

The headline quantity is the exact integer ``H = 2d * (12d - 3)^(n+p-1)``
attached to a polynomial system with ``p`` components of maximal degree
``d`` in ``n`` variables; the Hölder-type global error bound for a
convenient system that is non-degenerate at infinity holds with exponent
pair ``alpha = 2/H`` and ``beta = 1``.  For a single quadratic function
the sharper square-root bound is computed from the smallest nonzero
eigenvalue magnitude of its Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polysys import rational_str

PARTITION_NOTE = (
    "degree-4 single-inequality case: the partition-problem application is "
    "sometimes quoted with exponent 1/H instead of 2/H; this report uses 2/H"
)
WIDE_SYSTEM_NOTE = (
    "p > n: more components than variables, outside the certified range "
    "1 <= p <= n; the exponent formula is still well-defined and reported"
)


@dataclass(frozen=True)
class ExponentReport:
    """Exact Hölder exponent data for a (d, n, p) system class."""

    d: int
    n: int
    p: int
    H: int
    alpha: Fraction
    beta: Fraction
    notes: tuple[str, ...]
    convenient: bool | None = None
    nondegenerate_probable: bool | None = None

    def to_json(self) -> dict:
        payload = {
            "d": self.d,
            "n": self.n,
            "p": self.p,
            "H": str(self.H),
            "alpha": rational_str(self.alpha),
            "beta": rational_str(self.beta),
            "notes": list(self.notes),
        }
        if self.convenient is not None:
            payload["convenient"] = self.convenient
        if self.nondegenerate_probable is not None:
            payload["nondegenerate_probable"] = self.nondegenerate_probable
        return payload


def holder_exponent(d: int, n: int, p: int) -> ExponentReport:
    """Exact exponent report: H = 2d(12d-3)^(n+p-1), alpha = 2/H, beta = 1."""
    if d < 1 or n < 1 or p < 1:
        raise ValueError("d, n, p must all be positive")
    H = 2 * d * (12 * d - 3) ** (n + p - 1)
    notes = []
    if p > n:
        notes.append(WIDE_SYSTEM_NOTE)
    if d == 4 and p == 1:
        notes.append(PARTITION_NOTE)
    return ExponentReport(
        d=d,
        n=n,
        p=p,
        H=H,
        alpha=Fraction(2, H),
        beta=Fraction(1),
        notes=tuple(notes),
    )


class InconsistentCriticalPointError(ValueError):
    """A x̄ = -b has no solution: b has a component outside range(A)."""


@dataclass(frozen=True)
class QuadraticBound:
    """Square-root error bound data for f(x) = x'Ax/2 + b'x + c0."""

    A: np.ndarray
    b: np.ndarray
    c0: float
    lambda_min_nonzero: float
    constant: float
    critical_point: np.ndarray

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.A @ x + self.b @ x + self.c0)

    def gradient(self, x) -> np.ndarray:
        return self.A @ np.asarray(x, dtype=float) + self.b

    def to_json(self) -> dict:
        return {
            "lambda_min_nonzero": self.lambda_min_nonzero,
            "constant": self.constant,
            "critical_point": [float(v) for v in self.critical_point],
            "critical_value": self.value(self.critical_point),
        }


def quadratic_bound(A, b, c0: float = 0.0) -> QuadraticBound:
    """Distance bound for one quadratic: constant sqrt(2*lambda(A))/2.

    ``lambda(A)`` is the smallest magnitude among eigenvalues exceeding
    1e-10 times the spectral radius.  Requires a critical point,
    i.e. ``-b`` in the range of ``A``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if b.shape != (A.shape[0],):
        raise ValueError("b length must match A")
    scale = np.abs(A).max(initial=0.0)
    if scale == 0:
        raise ValueError("A must be nonzero")
    if np.abs(A - A.T).max() > 1e-12 * scale:
        raise ValueError("A must be symmetric")
    eigenvalues = np.linalg.eigvalsh(A)
    top = np.abs(eigenvalues).max()
    nonzero = np.abs(eigenvalues)[np.abs(eigenvalues) > 1e-10 * top]
    lam = float(nonzero.min())
    critical, residual, *_ = np.linalg.lstsq(A, -b, rcond=None)
    gap = np.linalg.norm(A @ critical + b)
    if gap > 1e-8 * (1.0 + np.linalg.norm(b)):
        raise InconsistentCriticalPointError(
            f"A x = -b is inconsistent (residual {gap:.3e}); no critical point"
        )
    return QuadraticBound(
        A=A,
        b=b,
        c0=float(c0),
        lambda_min_nonzero=lam,
        constant=float(np.sqrt(2.0 * lam) / 2.0),
        critical_point=critical,
    )


def stability_radius(y, c: float, report: ExponentReport) -> float:
    """Radius c*(||y||^alpha + ||y||) of the perturbation inclusion.

    Bounds how far the feasible set of the perturbed system
    ``f_i(x) <= y_i`` can poke out of the unperturbed one.
    """
    if c <= 0:
        raise ValueError("the fitted constant c must be positive")
    norm = float(np.linalg.norm(np.asarray(y, dtype=float)))
    if norm == 0.0:
        return 0.0
    return c * (norm ** float(report.alpha) + norm)

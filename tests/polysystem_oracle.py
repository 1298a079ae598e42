"""Reference ``PolySystem``: the frozen dataclass ``polysys`` used before
the class was written out by hand, so that parsing loads no
``dataclasses`` module.  Tests check that the hand-written class keeps
its equality, hashing, ``repr``, validation, immutability and copying.
"""

from __future__ import annotations

from dataclasses import dataclass

from holderbounds.polysys import Polynomial, PolynomialError


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

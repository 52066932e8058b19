"""Problem sizes of one p:q resonant system.

Kept apart from :mod:`polyads.resonance` so that the quantum path and the
model-file parser get :class:`ResonanceSpec` without the exact algebra.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


_SpecFields = NamedTuple("_SpecFields", [("n", int), ("p", int), ("q", int)])


class ResonanceSpec(_SpecFields):
    """Problem sizes for one p:q resonant system, checked on every construction.

    The frequencies follow from (p, q): see ``exact_omegas``.
    """

    __slots__ = ()

    def __new__(cls, n: int, p: int, q: int):
        if n < 2:
            raise ValueError("need n >= 2 oscillators")
        if p < 1 or q < 1:
            raise ValueError("p and q must be positive")
        if q > p:
            raise ValueError("expected p >= q")
        if math.gcd(p, q) != 1:
            raise ValueError("p and q must be coprime")
        return tuple.__new__(cls, (n, p, q))

    @classmethod
    def _make(cls, fields: Iterable) -> "ResonanceSpec":
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*fields)

    def exact_omegas(self) -> tuple["Fraction", ...]:
        """Pairwise-distinct exact frequencies with the right ratio.

        w1 = q and w2 = p satisfy w2/w1 = p/q; the remaining modes get
        p+q+k-2, which cannot collide with w1, w2 or each other.
        """
        from fractions import Fraction

        rest = (Fraction(self.p + self.q + k - 2) for k in range(3, self.n + 1))
        return (Fraction(self.q), Fraction(self.p), *rest)

    def float_omegas(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.exact_omegas())

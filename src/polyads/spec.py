"""Problem sizes of one p:q resonant system.

Kept apart from :mod:`polyads.resonance` so that the quantum path and the
model-file parser get :class:`ResonanceSpec` without the exact algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ResonanceSpec:
    """Problem sizes for one p:q resonant system.

    The frequencies follow from (p, q): see ``exact_omegas``.
    """

    n: int
    p: int
    q: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 oscillators")
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive")
        if self.q > self.p:
            raise ValueError("expected p >= q")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")

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

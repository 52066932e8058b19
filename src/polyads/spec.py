"""Problem sizes of one p:q resonant system, and the limits on them.

Kept apart from :mod:`polyads.resonance` so that the quantum path and the
model-file parser get :class:`ResonanceSpec` without the exact algebra, and
small enough that the census commands load it for :func:`check_ladder`.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

# Most modes a model file, a census or a ResonanceSpec may have. The parser
# builds length-n exponent vectors for every term line, and the census
# recursion is n calls deep, so a mistyped n must fail before any of them is
# built; 64 is above any vibrational model the grammar is for (a 22-atom
# molecule has 3 * 22 - 6 = 60 modes).
MAX_MODES = 64
# Highest expansion order that `enumerate` and `audit` walk. At order N the
# coupling census has about N^2 / (2 (p+q)) blocks, and the audit sums about
# as many couple classes; `audit` takes 0.12 s at order 1000, growing as N^2.
MAX_ORDER = 1000
# Most records a census may list, and most exponent entries that the memo of
# its enumeration may hold (see monomials.check_census). Every census walk
# memoises only exponent suffixes, so what stays in memory is that memo, whose
# entries the count bounds from above; the records bound the output and its
# time. The largest census they accept peaks at 25.8 MB RSS (n = 8, 3:2, order
# 30, JSON; 19.6 MB as a table), against 15.7 MB for n = 6 at order 30.
MAX_CENSUS_RECORDS = 500_000
MAX_CENSUS_ENTRIES = 8_000_000


def check_ladder(p: int, q: int) -> None:
    """Refuse a p:q that is not a coprime pair of positive integers, which
    every counting theorem and the normalized Hamiltonian assume."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")


def check_order(N: int) -> None:
    """Refuse an expansion order that is negative or over MAX_ORDER."""
    if N < 0:
        raise ValueError("need N >= 0")
    if N > MAX_ORDER:
        raise ValueError(f"need N <= {MAX_ORDER}")


_SpecFields = NamedTuple("_SpecFields", [("n", int), ("p", int), ("q", int)])


class ResonanceSpec(_SpecFields):
    """Problem sizes for one p:q resonant system, checked on every construction.

    The frequencies follow from (p, q): see ``exact_omegas``.
    """

    __slots__ = ()

    def __new__(cls, n: int, p: int, q: int):
        if n < 2:
            raise ValueError("need n >= 2 oscillators")
        if n > MAX_MODES:
            raise ValueError(f"need n <= {MAX_MODES} oscillators")
        # before check_ladder, so that 2:4 reads as the wrong way round
        if q > p >= 1:
            raise ValueError("expected p >= q")
        check_ladder(p, q)
        return tuple.__new__(cls, (n, p, q))

    @classmethod
    def _make(cls, fields: Iterable) -> "ResonanceSpec":
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*fields)

    def _int_omegas(self) -> tuple[int, ...]:
        return (self.q, self.p, *(self.p + self.q + k - 2 for k in range(3, self.n + 1)))

    def exact_omegas(self) -> tuple["Fraction", ...]:
        """Pairwise-distinct exact frequencies with the right ratio.

        w1 = q and w2 = p satisfy w2/w1 = p/q; the remaining modes get
        p+q+k-2, which cannot collide with w1, w2 or each other.
        """
        from fractions import Fraction

        return tuple(map(Fraction, self._int_omegas()))

    def float_omegas(self) -> tuple[float, ...]:
        """The frequencies of :meth:`exact_omegas` as floats; loads no
        exact arithmetic."""
        return tuple(map(float, self._int_omegas()))

"""Exact polynomial arithmetic in the complex oscillator variables.

Polynomials live in the 2n variables z_1..z_n, z_1*..z_n* with exact
complex-rational coefficients, stored as Gaussian-integer numerators over
one denominator per polynomial, in lowest terms. Everything here is
immutable by convention and pure, so values can be shared freely. Floating
point enters only in :meth:`ZPolynomial.evaluate`; every algebraic identity
(brackets, syzygy, kernel membership) is checked with zero residual, never a
tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterator, NamedTuple, Sequence


class ComplexRational(NamedTuple):
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "ComplexRational":
        return ComplexRational(Fraction(re), Fraction(im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return f"({self.re},{self.im})"


CR_MINUS_I = ComplexRational.of(0, -1)

Scalar = ComplexRational | int | Fraction


def _split(c: Scalar) -> tuple[int, int, int]:
    """Numerators (re, im) of a scalar over their least positive denominator."""
    if isinstance(c, ComplexRational):
        re, im = Fraction(c.re), Fraction(c.im)
    else:
        re, im = Fraction(c), Fraction(0)
    den = math.lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


class ZMonomial(NamedTuple):
    """Exponent pair: ``a`` over z_1..z_n and ``b`` over z_1*..z_n*."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.a) + sum(self.b)

    def sort_key(self) -> tuple:
        # graded lex on the concatenated exponent vector
        return (self.degree, self.a + self.b)


def _check_same_n(p: "ZPolynomial", q: "ZPolynomial") -> None:
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")


class ZPolynomial:
    """Polynomial in z_k, z_k* with exact complex-rational coefficients.

    ``_terms`` maps each :class:`ZMonomial` to a Gaussian-integer numerator
    ``(re, im)`` of Python ints, and ``_den`` is one positive denominator
    for all of them. The constructor ``ZPolynomial(n, terms, den)`` takes
    that internal form, drops zero numerators and divides the numerators
    and ``_den`` by their common gcd. The form is thus in lowest terms (zero
    has ``_den`` 1), and equality is plain dict and ``_den`` equality.
    Build polynomials with the class methods; coefficients enter and leave
    as :class:`ComplexRational`.
    """

    __slots__ = ("n", "_terms", "_den")

    def __init__(self, n: int, terms: dict[ZMonomial, tuple[int, int]] | None = None,
                 den: int = 1):
        if n < 1:
            raise ValueError("need at least one oscillator")
        self.n = n
        kept = {m: c for m, c in terms.items() if c != (0, 0)} if terms else {}
        g = math.gcd(den, *chain.from_iterable(kept.values()))
        if g != 1:
            kept = {m: (re // g, im // g) for m, (re, im) in kept.items()}
        self._terms = kept
        self._den = den // g

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "ZPolynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: Scalar) -> "ZPolynomial":
        zeros = (0,) * n
        return cls.monomial(n, zeros, zeros, c)

    @classmethod
    def one(cls, n: int) -> "ZPolynomial":
        return cls.constant(n, 1)

    @classmethod
    def var(cls, n: int, k: int) -> "ZPolynomial":
        """The variable z_k (k is 1-based)."""
        return cls.monomial(n, tuple(1 if j == k - 1 else 0 for j in range(n)), (0,) * n)

    @classmethod
    def var_conj(cls, n: int, k: int) -> "ZPolynomial":
        """The variable z_k* (k is 1-based)."""
        return cls.monomial(n, (0,) * n, tuple(1 if j == k - 1 else 0 for j in range(n)))

    @classmethod
    def monomial(cls, n: int, a: Sequence[int], b: Sequence[int],
                 coef: Scalar = 1) -> "ZPolynomial":
        if len(a) != n or len(b) != n:
            raise ValueError("monomial does not match dimension")
        re, im, den = _split(coef)
        return cls(n, {ZMonomial(tuple(a), tuple(b)): (re, im)}, den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        _check_same_n(self, other)
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        out = {m: (re * s, im * s) for m, (re, im) in self._terms.items()}
        for mono, (re, im) in other._terms.items():
            r0, i0 = out.get(mono, (0, 0))
            out[mono] = (r0 + re * t, i0 + im * t)
        return ZPolynomial(self.n, out, den)

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        return self + (-other)

    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial(self.n, {m: (-re, -im) for m, (re, im) in self._terms.items()},
                           self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            c, d, den = _split(other)
            return ZPolynomial(self.n, {m: (a * c - b * d, a * d + b * c)
                                        for m, (a, b) in self._terms.items()},
                               self._den * den)
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        _check_same_n(self, other)
        out: dict[ZMonomial, tuple[int, int]] = {}
        for m1, (a, b) in self._terms.items():
            for m2, (c, d) in other._terms.items():
                mono = ZMonomial(tuple(map(add, m1.a, m2.a)), tuple(map(add, m1.b, m2.b)))
                re, im = out.get(mono, (0, 0))
                out[mono] = (re + a * c - b * d, im + a * d + b * c)
        return ZPolynomial(self.n, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ZPolynomial":
        if k < 0:
            raise ValueError("negative power")
        out = ZPolynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, ZPolynomial) and self.n == other.n
                and self._den == other._den and self._terms == other._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def num_terms(self) -> int:
        return len(self._terms)

    def _coef(self, c: tuple[int, int]) -> ComplexRational:
        return ComplexRational(Fraction(c[0], self._den), Fraction(c[1], self._den))

    def terms(self) -> Iterator[tuple[ZMonomial, ComplexRational]]:
        """Iterate terms in the canonical graded-lex order."""
        for mono in sorted(self._terms, key=ZMonomial.sort_key):
            yield mono, self._coef(self._terms[mono])

    def coefficient(self, a: Sequence[int], b: Sequence[int]) -> ComplexRational:
        return self._coef(self._terms.get(ZMonomial(tuple(a), tuple(b)), (0, 0)))

    # -- calculus ----------------------------------------------------------

    def diff_z(self, k: int) -> "ZPolynomial":
        """Partial derivative with respect to z_k (1-based)."""
        j = k - 1
        out: dict[ZMonomial, tuple[int, int]] = {}
        for mono, (re, im) in self._terms.items():
            e = mono.a[j]
            if e == 0:
                continue
            a = mono.a[:j] + (e - 1,) + mono.a[j + 1:]
            out[ZMonomial(a, mono.b)] = (re * e, im * e)
        return ZPolynomial(self.n, out, self._den)

    def diff_z_conj(self, k: int) -> "ZPolynomial":
        """Partial derivative with respect to z_k* (1-based)."""
        j = k - 1
        out: dict[ZMonomial, tuple[int, int]] = {}
        for mono, (re, im) in self._terms.items():
            e = mono.b[j]
            if e == 0:
                continue
            b = mono.b[:j] + (e - 1,) + mono.b[j + 1:]
            out[ZMonomial(mono.a, b)] = (re * e, im * e)
        return ZPolynomial(self.n, out, self._den)

    # -- numerics ----------------------------------------------------------

    def evaluate(self, z: Sequence[complex]) -> complex:
        """Substitute z_k -> z[k-1] and z_k* -> conj(z[k-1])."""
        if len(z) != self.n:
            raise ValueError("point does not match dimension")
        zc = [complex(v).conjugate() for v in z]
        total = 0.0 + 0.0j
        for mono, coef in self._terms.items():
            val = complex(self._coef(coef))
            for zk, e in zip(z, mono.a):
                if e:
                    val *= complex(zk) ** e
            for zk, e in zip(zc, mono.b):
                if e:
                    val *= zk ** e
            total += val
        return total

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono, coef in self.terms():
            vars_ = []
            for k in range(self.n):
                if mono.a[k]:
                    vars_.append(f"z{k + 1}^{mono.a[k]}")
                if mono.b[k]:
                    vars_.append(f"z{k + 1}*^{mono.b[k]}")
            chunks.append(" ".join([str(coef)] + vars_))
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"ZPolynomial(n={self.n}, {self.num_terms()} terms)"


def poisson_bracket(f: ZPolynomial, g: ZPolynomial) -> ZPolynomial:
    """Poisson bracket {f, g} in the complex variables.

    The convention is
    {f, g} = -i sum_k (df/dz_k dg/dz_k* - df/dz_k* dg/dz_k),
    which gives {z_j, z_k*} = -i delta_jk. Exact, antisymmetric, and a
    derivation in each slot.
    """
    _check_same_n(f, g)
    acc = ZPolynomial.zero(f.n)
    for k in range(1, f.n + 1):
        acc = acc + f.diff_z(k) * g.diff_z_conj(k) - f.diff_z_conj(k) * g.diff_z(k)
    return acc * CR_MINUS_I

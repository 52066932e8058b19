"""Exact polynomial arithmetic in the complex oscillator variables.

Polynomials live in the 2n variables z_1..z_n, z_1*..z_n* with exact
complex-rational coefficients. Everything here is immutable by convention
and pure, so values can be shared freely. Floating point enters only in
:meth:`ZPolynomial.evaluate`; every algebraic identity (brackets, syzygy,
kernel membership) is checked with zero residual, never a tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence


class ComplexRational(NamedTuple):
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "ComplexRational":
        return ComplexRational(Fraction(re), Fraction(im))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":  # type: ignore[override]
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):  # type: ignore[override]
        if isinstance(other, ComplexRational):
            return ComplexRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return ComplexRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return f"({self.re},{self.im})"


CR_ZERO = ComplexRational.of(0)
CR_ONE = ComplexRational.of(1)
CR_I = ComplexRational.of(0, 1)
CR_MINUS_I = ComplexRational.of(0, -1)


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
    """Polynomial in z_k, z_k* with :class:`ComplexRational` coefficients.

    Terms are held in a dict keyed by :class:`ZMonomial`; zero coefficients
    are pruned on construction so equality is plain dict equality.

    Parameters
    ----------
    n : int
        Number of oscillators (so 2n variables).
    terms : mapping, optional
        ZMonomial -> ComplexRational, copied and pruned.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[ZMonomial, ComplexRational] | None = None):
        if n < 1:
            raise ValueError("need at least one oscillator")
        self.n = n
        pruned: dict[ZMonomial, ComplexRational] = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono.a) != n or len(mono.b) != n:
                    raise ValueError("monomial does not match dimension")
                if not coef.is_zero():
                    pruned[mono] = coef
        self._terms = pruned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "ZPolynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: ComplexRational | int | Fraction) -> "ZPolynomial":
        if isinstance(c, (int, Fraction)):
            c = ComplexRational.of(c)
        zeros = (0,) * n
        return cls(n, {ZMonomial(zeros, zeros): c})

    @classmethod
    def one(cls, n: int) -> "ZPolynomial":
        return cls.constant(n, CR_ONE)

    @classmethod
    def var(cls, n: int, k: int) -> "ZPolynomial":
        """The variable z_k (k is 1-based)."""
        a = tuple(1 if j == k - 1 else 0 for j in range(n))
        return cls(n, {ZMonomial(a, (0,) * n): CR_ONE})

    @classmethod
    def var_conj(cls, n: int, k: int) -> "ZPolynomial":
        """The variable z_k* (k is 1-based)."""
        b = tuple(1 if j == k - 1 else 0 for j in range(n))
        return cls(n, {ZMonomial((0,) * n, b): CR_ONE})

    @classmethod
    def monomial(cls, n: int, a: Sequence[int], b: Sequence[int],
                 coef: ComplexRational = CR_ONE) -> "ZPolynomial":
        return cls(n, {ZMonomial(tuple(a), tuple(b)): coef})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        _check_same_n(self, other)
        out = dict(self._terms)
        for mono, coef in other._terms.items():
            acc = out.get(mono, CR_ZERO) + coef
            if acc.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = acc
        return ZPolynomial(self.n, out)

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        return self + (-other)

    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial(self.n, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexRational.of(other)
        if isinstance(other, ComplexRational):
            return ZPolynomial(self.n, {m: c * other for m, c in self._terms.items()})
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        _check_same_n(self, other)
        out: dict[ZMonomial, ComplexRational] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = ZMonomial(
                    tuple(x + y for x, y in zip(m1.a, m2.a)),
                    tuple(x + y for x, y in zip(m1.b, m2.b)),
                )
                acc = out.get(mono, CR_ZERO) + c1 * c2
                if acc.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        return ZPolynomial(self.n, out)

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
                and self._terms == other._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def num_terms(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[ZMonomial, ComplexRational]]:
        """Iterate terms in the canonical graded-lex order."""
        for mono in sorted(self._terms, key=ZMonomial.sort_key):
            yield mono, self._terms[mono]

    def coefficient(self, a: Sequence[int], b: Sequence[int]) -> ComplexRational:
        return self._terms.get(ZMonomial(tuple(a), tuple(b)), CR_ZERO)

    # -- calculus ----------------------------------------------------------

    def diff_z(self, k: int) -> "ZPolynomial":
        """Partial derivative with respect to z_k (1-based)."""
        j = k - 1
        out: dict[ZMonomial, ComplexRational] = {}
        for mono, coef in self._terms.items():
            e = mono.a[j]
            if e == 0:
                continue
            a = mono.a[:j] + (e - 1,) + mono.a[j + 1:]
            out[ZMonomial(a, mono.b)] = coef * e
        return ZPolynomial(self.n, out)

    def diff_z_conj(self, k: int) -> "ZPolynomial":
        """Partial derivative with respect to z_k* (1-based)."""
        j = k - 1
        out: dict[ZMonomial, ComplexRational] = {}
        for mono, coef in self._terms.items():
            e = mono.b[j]
            if e == 0:
                continue
            b = mono.b[:j] + (e - 1,) + mono.b[j + 1:]
            out[ZMonomial(mono.a, b)] = coef * e
        return ZPolynomial(self.n, out)

    # -- numerics ----------------------------------------------------------

    def evaluate(self, z: Sequence[complex]) -> complex:
        """Substitute z_k -> z[k-1] and z_k* -> conj(z[k-1])."""
        if len(z) != self.n:
            raise ValueError("point does not match dimension")
        zc = [complex(v).conjugate() for v in z]
        total = 0.0 + 0.0j
        for mono, coef in self._terms.items():
            val = complex(coef)
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

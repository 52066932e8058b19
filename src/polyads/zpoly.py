"""Exact polynomial arithmetic in the complex oscillator variables.

Polynomials live in the 2n variables z_1..z_n, z_1*..z_n* with exact
complex-rational coefficients, stored as Gaussian-integer numerators over
one denominator per polynomial, in lowest terms: a sum drops the terms that
cancel as it merges, and ``_lowest`` ends its gcd once it reaches 1.
Everything here is immutable by convention and pure, so values can be shared
freely (``ZPolynomial.one(n)`` is one instance per n). Floating point enters
only in :meth:`ZPolynomial.evaluate`; every algebraic identity (brackets,
syzygy, kernel membership) is checked with zero residual, never a tolerance.

Each monomial is keyed by one packed int of 2n + 1 fields, ``EXP_BITS``
bits each. From the most significant field down they hold the total degree,
the exponents of z_1..z_n and those of z_1*..z_n*, so the product of two
monomials is the sum of their keys and integer order is graded lex order.
The total degree of every monomial is at most ``MAX_DEGREE`` = 2**EXP_BITS
- 1, which bounds every field; each operation that makes an exponent raises
``ValueError`` before a field could carry into its neighbour.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

# Bits per field of a packed monomial key, and the largest total degree.
EXP_BITS = 16
MAX_DEGREE = (1 << EXP_BITS) - 1


def _exact(x: int | Fraction) -> int | Fraction:
    """``x``, if it is an int or a Fraction; a float would bring in its binary expansion."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"exact scalars are int, Fraction or ComplexRational, not {type(x).__name__}")


class ComplexRational(NamedTuple):
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "ComplexRational":
        return ComplexRational(Fraction(_exact(re)), Fraction(_exact(im)))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return f"({self.re},{self.im})"


CR_MINUS_I = ComplexRational.of(0, -1)

Scalar = ComplexRational | int | Fraction


def _split(c: Scalar) -> tuple[int, int, int]:
    """Numerators (re, im) of a scalar over their least positive denominator."""
    re, im = map(_exact, c if isinstance(c, ComplexRational) else (c, 0))
    den = math.lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


class ZMonomial(NamedTuple):
    """Exponent pair: ``a`` over z_1..z_n and ``b`` over z_1*..z_n*."""

    a: tuple[int, ...]
    b: tuple[int, ...]


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"total degree {degree} is over the limit of {MAX_DEGREE}")


def _pack(n: int, a: Sequence[int], b: Sequence[int]) -> int:
    """The key of z^a z*^b; raises unless a and b are n exponents each."""
    if len(a) != n or len(b) != n:
        raise ValueError("monomial does not match dimension")
    exps = tuple(chain(a, b))
    for e in exps:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent {e!r} is not a non-negative int")
    degree = sum(exps)
    _check_degree(degree)
    key = degree
    for e in exps:
        key = key << EXP_BITS | e
    return key


def _unpack(n: int, key: int) -> ZMonomial:
    exps = [key >> (EXP_BITS * i) & MAX_DEGREE for i in range(2 * n - 1, -1, -1)]
    return ZMonomial(tuple(exps[:n]), tuple(exps[n:]))


def _unit(n: int, k: int) -> tuple[int, ...]:
    """Exponent vector of the k-th variable (k is 1-based)."""
    if not 1 <= k <= n:
        raise ValueError(f"variable index {k} is outside 1..{n}")
    return tuple(1 if j == k - 1 else 0 for j in range(n))


def _check_same_n(p: "ZPolynomial", q: "ZPolynomial") -> None:
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")


def _lowest(terms: dict[int, tuple[int, int]], den: int,
            g: int | None = None) -> tuple[dict, int]:
    """``terms`` (no zero numerator) over ``den``, both divided by their gcd.

    ``g``, if given, is a divisor of ``den`` that the gcd is known to divide;
    the scan starts from it instead of from ``den``.
    """
    g = den if g is None else g
    if g != 1:
        for re, im in terms.values():
            g = math.gcd(g, re, im)
            if g == 1:  # then the whole gcd is 1
                return terms, den
        terms = {m: (re // g, im // g) for m, (re, im) in terms.items()}
    return terms, den // g


class ZPolynomial:
    """Polynomial in z_k, z_k* with exact complex-rational coefficients.

    ``_terms`` maps each packed monomial key (see the module docstring) to
    a Gaussian-integer numerator ``(re, im)`` of Python ints, and ``_den``
    is one positive denominator for all of them. The constructor
    ``ZPolynomial(n, terms, den)`` takes that internal form, drops zero
    numerators and divides the numerators and ``_den`` by their common gcd
    (``_lowest``); sums and negations, whose terms are nonzero, skip the
    filter (``_of``). The form is thus in lowest terms (zero has ``_den``
    1), and equality is plain dict and ``_den`` equality. Build polynomials
    with the class methods; monomials enter and leave as exponent vectors or
    :class:`ZMonomial`, coefficients as :class:`ComplexRational`. No term
    has total degree above ``MAX_DEGREE``.
    """

    __slots__ = ("n", "_terms", "_den")

    def __init__(self, n: int, terms: dict[int, tuple[int, int]] | None = None,
                 den: int = 1):
        if n < 1:
            raise ValueError("need at least one oscillator")
        self.n = n
        kept = {m: c for m, c in terms.items() if c != (0, 0)} if terms else {}
        self._terms, self._den = _lowest(kept, den)

    @classmethod
    def _of(cls, n: int, terms: dict[int, tuple[int, int]], den: int) -> "ZPolynomial":
        out = object.__new__(cls)  # the internal form, taken as it is
        out.n, out._terms, out._den = n, terms, den
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "ZPolynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: Scalar) -> "ZPolynomial":
        zeros = (0,) * n
        return cls.monomial(n, zeros, zeros, c)

    @classmethod
    @functools.cache
    def one(cls, n: int) -> "ZPolynomial":
        return cls.constant(n, 1)

    @classmethod
    def var(cls, n: int, k: int) -> "ZPolynomial":
        """The variable z_k (k is 1-based)."""
        return cls.monomial(n, _unit(n, k), (0,) * n)

    @classmethod
    def var_conj(cls, n: int, k: int) -> "ZPolynomial":
        """The variable z_k* (k is 1-based)."""
        return cls.monomial(n, (0,) * n, _unit(n, k))

    @classmethod
    def monomial(cls, n: int, a: Sequence[int], b: Sequence[int],
                 coef: Scalar = 1) -> "ZPolynomial":
        """``coef`` z^a z*^b; a and b are n non-negative ints each."""
        key = _pack(n, a, b)
        re, im, den = _split(coef)
        return cls(n, {key: (re, im)}, den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        _check_same_n(self, other)
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        out = (dict(self._terms) if s == 1
               else {m: (re * s, im * s) for m, (re, im) in self._terms.items()})
        for mono, (re, im) in other._terms.items():
            r0, i0 = out.get(mono, (0, 0))
            r0, i0 = r0 + re * t, i0 + im * t
            if r0 or i0:
                out[mono] = (r0, i0)
            else:  # cancelled; only a key of the left operand can cancel
                del out[mono]
        # The gcd to divide out divides gcd(d1, d2), the operands' denominators.
        # Take a prime p with a higher power in d1 than in d2 (or the reverse):
        # p divides t but not s, so each numerator here is s*N1 mod p, and N1/d1
        # is in lowest terms, so some N1 is not 0 mod p. Every other prime has
        # the same power in d1, d2 and den. A sum that cancels whole has d1 == d2.
        return ZPolynomial._of(self.n, *_lowest(out, den, math.gcd(self._den, other._den)))

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        return self + (-other) if isinstance(other, ZPolynomial) else NotImplemented

    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial._of(self.n, {m: (-re, -im) for m, (re, im) in self._terms.items()},
                               self._den)

    def __mul__(self, other):
        # the exact type first: the scalar test's Fraction check is an ABC check
        if type(other) is not ZPolynomial:
            if isinstance(other, (int, Fraction, ComplexRational)):
                c, d, den = _split(other)
                return ZPolynomial(self.n, {m: (a * c - b * d, a * d + b * c)
                                            for m, (a, b) in self._terms.items()},
                                   self._den * den)
            if not isinstance(other, ZPolynomial):
                return NotImplemented
        _check_same_n(self, other)
        if self is (one := ZPolynomial.one(self.n)) or other is one:  # the cached identity
            return other if self is one else self
        _check_degree(self.degree() + other.degree())
        if len(self._terms) == 1 == len(other._terms):
            # nonzero Gaussian integers have a nonzero product: no term cancels
            (m1, (a, b)), = self._terms.items()
            (m2, (c, d)), = other._terms.items()
            return ZPolynomial._of(self.n, *_lowest({m1 + m2: (a * c - b * d, a * d + b * c)},
                                                    self._den * other._den))
        out: dict[int, tuple[int, int]] = {}
        get = out.get
        zero = (0, 0)
        for m1, (a, b) in self._terms.items():
            for m2, (c, d) in other._terms.items():
                mono = m1 + m2
                re, im = get(mono, zero)
                out[mono] = (re + a * c - b * d, im + a * d + b * c)
        return ZPolynomial(self.n, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ZPolynomial":
        if not isinstance(k, int):
            raise TypeError(f"power must be an int, not {type(k).__name__}")
        if k < 0:
            raise ValueError("negative power")
        _check_degree(self.degree() * k)
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base if k > 1 else base
            k >>= 1
        return ZPolynomial.one(self.n) if out is None else out

    def __eq__(self, other) -> bool:
        return (isinstance(other, ZPolynomial) and self.n == other.n
                and self._den == other._den and self._terms == other._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        # the degree is the top field, so the largest key has the largest degree
        return max(self._terms, default=0) >> (2 * self.n * EXP_BITS)

    def num_terms(self) -> int:
        return len(self._terms)

    def _coef(self, c: tuple[int, int]) -> ComplexRational:
        return ComplexRational(Fraction(c[0], self._den), Fraction(c[1], self._den))

    def terms(self) -> Iterator[tuple[ZMonomial, ComplexRational]]:
        """Iterate terms in the canonical graded-lex order."""
        for key in sorted(self._terms):
            yield _unpack(self.n, key), self._coef(self._terms[key])

    def coefficient(self, a: Sequence[int], b: Sequence[int]) -> ComplexRational:
        return self._coef(self._terms.get(_pack(self.n, a, b), (0, 0)))

    # -- numerics ----------------------------------------------------------

    def evaluate(self, z: Sequence[complex]) -> complex:
        """Substitute z_k -> z[k-1] and z_k* -> conj(z[k-1])."""
        if len(z) != self.n:
            raise ValueError("point does not match dimension")
        zc = [complex(v).conjugate() for v in z]
        total = 0.0 + 0.0j
        for key, coef in self._terms.items():
            mono = _unpack(self.n, key)
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

    Bilinear: with f = fr + i fi and g = gr + i gi,
    {f, g} = -i (S(fr, gr) - S(fi, gi)) + S(fr, gi) + S(fi, gr), with S the
    sum above over integer numerators, without its -i. Each S is one pass
    over term pairs: for each k, terms c1 z^a1 z*^b1 and c2 z^a2 z*^b2 add
    (a1_k b2_k - b1_k a2_k) c1 c2 at the sum of their keys less the keys of
    z_k and z_k*, a valid monomial whenever the factor is nonzero. Brackets
    of real or imaginary operands, as in the invariant algebra, take one.
    For each k one part is grouped by its (a_k, b_k) pair, so the factor
    is worked out once per term of the other part and group, and a group
    whose factor is 0 is skipped whole. S is antisymmetric, so the part
    with fewer terms is grouped: building the groups costs one pass over it.
    """
    if not isinstance(f, ZPolynomial) or not isinstance(g, ZPolynomial):
        bad = g if isinstance(f, ZPolynomial) else f
        raise TypeError(f"Poisson bracket of a non-polynomial: {type(bad).__name__}")
    _check_same_n(f, g)
    n = f.n
    _check_degree(f.degree() + g.degree() - 2)
    # (key, numerator) pairs of the real and imaginary parts of f and g
    fr, fi, gr, gi = ([(m, c[j]) for m, c in p._terms.items() if c[j]]
                      for p in (f, g) for j in (0, 1))
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    mask = MAX_DEGREE
    # acc += sign * S(fp, gp), for each pair of parts that are both nonzero
    for fp, gp, acc, sign in ((fr, gi, re, 1), (fi, gr, re, 1),
                              (fr, gr, im, -1), (fi, gi, im, 1)):
        if not (fp and gp):
            continue
        if len(gp) > len(fp):  # S(fp, gp) = -S(gp, fp)
            fp, gp, sign = gp, fp, -sign
        get = acc.get
        for k in range(n):
            sa, sb = EXP_BITS * (2 * n - 1 - k), EXP_BITS * (n - 1 - k)
            # key of z_k z_k*: one in its two exponent fields, two in the degree
            step = (2 << (2 * n * EXP_BITS)) + (1 << sa) + (1 << sb)
            groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for m, c in gp:
                ab = (m >> sa & mask, m >> sb & mask)
                if ab != (0, 0):
                    groups.setdefault(ab, []).append((m, c))
            # the sign goes into the exponents, so the factor carries it
            gk = [(sign * a2, sign * b2, terms) for (a2, b2), terms in groups.items()]
            for m1, c1 in fp:
                a1, b1 = m1 >> sa & mask, m1 >> sb & mask
                if a1 or b1:
                    m1 -= step
                    for a2, b2, terms in gk:
                        fac = a1 * b2 - b1 * a2
                        if fac:
                            fc = fac * c1
                            for m2, c2 in terms:
                                mono = m1 + m2
                                acc[mono] = get(mono, 0) + fc * c2
    out = {m: (v, im.pop(m, 0)) for m, v in re.items()}
    out.update((m, (0, v)) for m, v in im.items())
    return ZPolynomial(n, out, f._den * g._den)

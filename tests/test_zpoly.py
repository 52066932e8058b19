"""Exact polynomial algebra and the bracket that drives everything else."""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyads.monomials import enumerate_coupling, enumerate_dunham, sort_monomials
from polyads.resonance import ResonanceSpec, ad_h0, generators
from polyads.zpoly import (
    CR_MINUS_I,
    EXP_BITS,
    ComplexRational,
    ZMonomial,
    ZPolynomial,
    poisson_bracket,
)

st_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=8)
st_coeff = st.builds(ComplexRational.of, st_fraction, st_fraction)


def st_poly(slots: int, max_exp: int = 3, max_terms: int = 4):
    term = st.tuples(
        st.lists(st.integers(0, max_exp), min_size=slots, max_size=slots),
        st.lists(st.integers(0, max_exp), min_size=slots, max_size=slots),
        st_coeff,
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda terms: sum(
            (ZPolynomial.monomial(slots, tuple(a), tuple(b), c) for a, b, c in terms),
            ZPolynomial.zero(slots),
        )
    )


def _partial(p: ZPolynomial, k: int, conj: bool) -> ZPolynomial:
    out = ZPolynomial.zero(p.n)
    for mono, coef in p.terms():
        a, b = list(mono.a), list(mono.b)
        exps = b if conj else a
        e = exps[k - 1]
        if e:
            exps[k - 1] = e - 1
            out = out + ZPolynomial.monomial(p.n, a, b, coef) * e
    return out


def diff_z(p: ZPolynomial, k: int) -> ZPolynomial:
    """Partial derivative with respect to z_k (1-based), term by term."""
    return _partial(p, k, conj=False)


def diff_z_conj(p: ZPolynomial, k: int) -> ZPolynomial:
    """Partial derivative with respect to z_k* (1-based), term by term."""
    return _partial(p, k, conj=True)


def slow_bracket(f: ZPolynomial, g: ZPolynomial) -> ZPolynomial:
    """The bracket from its definition: 2n derivative products summed.

    The independent oracle for the one-pass ``poisson_bracket``; it goes
    through the public constructors, sums and products only.
    """
    acc = ZPolynomial.zero(f.n)
    for k in range(1, f.n + 1):
        acc = acc + diff_z(f, k) * diff_z_conj(g, k) - diff_z_conj(f, k) * diff_z(g, k)
    return acc * CR_MINUS_I


class TestComplexRational:
    # ComplexRational has no arithmetic of its own: these check exact scalar
    # arithmetic through constant polynomials
    def test_arithmetic_is_exact(self):
        a = ZPolynomial.constant(2, ComplexRational.of(Fraction(1, 3), Fraction(1, 7)))
        b = ZPolynomial.constant(2, ComplexRational.of(Fraction(2, 3), Fraction(-1, 7)))
        assert a + b == ZPolynomial.constant(2, 1)
        assert (a + b).coefficient((0, 0), (0, 0)) == ComplexRational.of(1)
        assert (a - a).is_zero()

    def test_product_follows_i_squared(self):
        i = ZPolynomial.constant(2, ComplexRational.of(0, 1))
        assert i ** 2 == ZPolynomial.constant(2, -1)
        assert i * CR_MINUS_I == ZPolynomial.one(2)

    def test_to_complex(self):
        assert complex(ComplexRational.of(Fraction(1, 2), 1)) == 0.5 + 1j

    def test_scalar_multiplication(self):
        a = ZPolynomial.constant(2, ComplexRational.of(1, 2))
        assert a * 3 == ZPolynomial.constant(2, ComplexRational.of(3, 6))
        assert a * Fraction(1, 2) == ZPolynomial.constant(2, ComplexRational.of(Fraction(1, 2), 1))

    @pytest.mark.parametrize("scalar", [0.1, Decimal("0.1"), ComplexRational(0.5, 0)],
                             ids=["float", "decimal", "float-parts"])
    @pytest.mark.parametrize("build", [
        lambda c: ZPolynomial.monomial(2, (1, 0), (0, 0), c),
        lambda c: ZPolynomial.constant(2, c),
        lambda c: ZPolynomial.var(2, 1) * c,
        lambda c: ComplexRational.of(1, c),
    ], ids=["monomial", "constant", "scalar-product", "of"])
    def test_inexact_scalar_is_refused(self, build, scalar):
        # a float would enter as its binary expansion: 0.1 is not 1/10
        with pytest.raises(TypeError):
            build(scalar)


class TestZPolynomial:
    def test_variable_and_conjugate_are_distinct(self):
        z1 = ZPolynomial.var(2, 1)
        z1c = ZPolynomial.var_conj(2, 1)
        assert z1 != z1c
        assert (z1 * z1c).degree() == 2

    def test_mismatched_slots_rejected(self):
        with pytest.raises(ValueError):
            ZPolynomial.var(2, 1) + ZPolynomial.var(3, 1)

    def test_zero_annihilates(self):
        z = ZPolynomial.var(2, 1)
        assert (z * ZPolynomial.zero(2)).is_zero()
        assert not z.is_zero()

    @settings(max_examples=40, deadline=None)
    @given(f=st_poly(2))
    def test_product_with_the_identity_is_the_other_operand(self, f):
        one = ZPolynomial.one(2)
        assert one * f is f
        assert f * one is f
        assert one * one is one

    def test_product_with_the_identity_checks_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ZPolynomial.one(2) * ZPolynomial.var(3, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ZPolynomial.var(3, 1) * ZPolynomial.one(2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ZPolynomial.one(2) * ZPolynomial.one(3)

    @pytest.mark.parametrize("call, message", [
        (lambda: ZPolynomial(0), "need at least one oscillator"),
        (lambda: ZPolynomial.var(2, 1) ** -1, "negative power"),
        (lambda: ZPolynomial.var(2, 1).evaluate((1.0,)), "point does not match dimension"),
    ], ids=["no-oscillator", "negative-power", "short-point"])
    def test_refusals(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda x: x + 1, r"unsupported operand type\(s\) for \+"),
        (lambda x: x - 1, r"unsupported operand type\(s\) for -"),
        (lambda x: poisson_bracket(x, 1), "^Poisson bracket of a non-polynomial: int$"),
        (lambda x: x ** 2.0, "^power must be an int, not float$"),
    ], ids=["sum", "difference", "bracket", "float-power"])
    def test_non_polynomial_operands_raise_type_error(self, call, message):
        with pytest.raises(TypeError, match=message):
            call(ZPolynomial.var(2, 1))

    def test_power_matches_repeated_product(self):
        z = ZPolynomial.var(2, 1) + ZPolynomial.var_conj(2, 2)
        assert z ** 3 == z * z * z
        assert z ** 0 == ZPolynomial.one(2)

    def test_coefficient_lookup(self):
        p = ZPolynomial.monomial(2, (1, 0), (0, 2), ComplexRational.of(3, 1))
        assert p.coefficient((1, 0), (0, 2)) == ComplexRational.of(3, 1)
        assert p.coefficient((0, 0), (0, 0)) == ComplexRational.of(0)

    def test_coefficient_rejects_bad_vectors(self):
        p = ZPolynomial.var(2, 1)
        for a, b in [((1,), (0, 0)), ((1, 0), (0, 0, 0)), ((), ()), ((-1, 0), (0, 0))]:
            with pytest.raises(ValueError):
                p.coefficient(a, b)

    @pytest.mark.parametrize("a", [(-1, 0), (1.5, 0), (0, 2.0), ("1", 0), (2 ** EXP_BITS, 0)])
    def test_monomial_rejects_non_polynomial_exponents(self, a):
        with pytest.raises(ValueError):
            ZPolynomial.monomial(2, a, (0, 0))
        with pytest.raises(ValueError):
            ZPolynomial.monomial(2, (0, 0), a)

    @pytest.mark.parametrize("k", [5, 3, 0, -1])
    def test_variable_index_out_of_range_rejected(self, k):
        with pytest.raises(ValueError):
            ZPolynomial.var(2, k)
        with pytest.raises(ValueError):
            ZPolynomial.var_conj(2, k)

    def test_derivative_drops_degree(self):
        z = ZPolynomial.var(2, 1)
        p = z ** 4
        dp = diff_z(p, 1)
        assert dp == 4 * (z ** 3)
        assert diff_z(p, 2).is_zero()
        assert diff_z_conj(p, 1).is_zero()

    def test_evaluate_against_horner_free_form(self):
        z1 = ZPolynomial.var(2, 1)
        z2c = ZPolynomial.var_conj(2, 2)
        p = z1 * z1 * z2c + 2 * z1
        zv = (0.3 + 0.4j, -1.0 + 0.25j)
        expected = zv[0] ** 2 * zv[1].conjugate() + 2 * zv[0]
        assert p.evaluate(zv) == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(f=st_poly(2), g=st_poly(2))
    def test_addition_commutes(self, f, g):
        assert f + g == g + f

    @settings(max_examples=60, deadline=None)
    @given(f=st_poly(2), g=st_poly(2))
    def test_multiplication_commutes(self, f, g):
        assert f * g == g * f

    @settings(max_examples=40, deadline=None)
    @given(f=st_poly(2, max_exp=2), g=st_poly(2, max_exp=2), h=st_poly(2, max_exp=2))
    def test_distributive_law(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=40, deadline=None)
    @given(f=st_poly(2), g=st_poly(2))
    def test_product_degree_bound(self, f, g):
        fg = f * g
        if not fg.is_zero():
            assert fg.degree() <= f.degree() + g.degree()


class TestPoissonBracket:
    def test_canonical_pairs(self):
        # {z_j, conj z_k} = -i delta_jk under the adopted normalization
        n = 3
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                br = poisson_bracket(ZPolynomial.var(n, j), ZPolynomial.var_conj(n, k))
                if j == k:
                    assert br == ZPolynomial.constant(n, CR_MINUS_I)
                else:
                    assert br.is_zero()

    def test_coordinates_commute(self):
        n = 2
        assert poisson_bracket(ZPolynomial.var(n, 1), ZPolynomial.var(n, 2)).is_zero()
        assert poisson_bracket(
            ZPolynomial.var_conj(n, 1), ZPolynomial.var_conj(n, 2)
        ).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(f=st_poly(2, max_exp=2), g=st_poly(2, max_exp=2))
    def test_antisymmetry(self, f, g):
        assert poisson_bracket(f, g) == -poisson_bracket(g, f)

    @settings(max_examples=30, deadline=None)
    @given(f=st_poly(2, max_exp=2), g=st_poly(2, max_exp=2), h=st_poly(2, max_exp=2))
    def test_leibniz_rule(self, f, g, h):
        left = poisson_bracket(f, g * h)
        right = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        assert left == right

    @settings(max_examples=25, deadline=None)
    @given(
        f=st_poly(2, max_exp=2, max_terms=3),
        g=st_poly(2, max_exp=2, max_terms=3),
        h=st_poly(2, max_exp=2, max_terms=3),
    )
    def test_jacobi_identity(self, f, g, h):
        total = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        assert total.is_zero()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st_poly(n, max_exp=6, max_terms=5), st_poly(n, max_exp=6, max_terms=5))))
    def test_matches_derivative_oracle(self, fg):
        f, g = fg
        assert poisson_bracket(f, g) == slow_bracket(f, g)


def census_hamiltonian(spec: ResonanceSpec, order: int, coef) -> ZPolynomial:
    """Sum over the census of ``coef()`` times the generator product of each
    monomial, in canonical census order: the algebra benchmark's Hamiltonian."""
    gens = generators(spec)
    census = sort_monomials(enumerate_dunham(spec.n, order)
                            | enumerate_coupling(spec.n, order, spec.p, spec.q))
    acc = ZPolynomial.zero(spec.n)
    for mono in census:
        term = ZPolynomial.one(spec.n)
        if mono.m_part is not None:
            term = term * gens[mono.m_part] ** mono.m_exp
        for k, e in enumerate(mono.num_exps, start=1):
            if e:
                term = term * gens[k] ** e
        acc = acc + term * coef()
    return acc


def seeded_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 50))


class TestBracketAtWorkloadScale:
    """The bracket of census Hamiltonians, at the algebra benchmark's size and
    at n = 4 with complex coefficients, against the derivative oracle."""

    def test_invariant_hamiltonians_at_the_benchmark_size(self):
        spec = ResonanceSpec(n=3, p=2, q=1)
        rng = random.Random(7)
        h1, h2 = (census_hamiltonian(spec, 12, lambda: ComplexRational.of(seeded_fraction(rng)))
                  for _ in range(2))
        assert h1.num_terms() == h2.num_terms() == 193
        bracket = poisson_bracket(h1, h2)
        assert bracket.num_terms() == 1357
        assert bracket == slow_bracket(h1, h2)
        assert ad_h0(bracket, spec).is_zero()

    def test_complex_coefficients_at_four_modes(self):
        # mixed coefficients make both parts of each operand nonzero, so all
        # four real/imaginary sums run, over groups of several terms each
        spec = ResonanceSpec(n=4, p=2, q=1)
        rng = random.Random(11)
        h1, h2, small = (census_hamiltonian(spec, order, lambda: ComplexRational.of(
            seeded_fraction(rng), seeded_fraction(rng))) for order in (6, 6, 4))
        for h in (h1, h2, small):
            assert all(any(c[j] for c in h._terms.values()) for j in (0, 1))
        # operands of unequal size also take the path that groups the first one
        assert small.num_terms() < h1.num_terms()
        for f, g in [(h1, h2), (h1, small), (small, h1)]:
            bracket = poisson_bracket(f, g)
            assert not bracket.is_zero()
            assert bracket == slow_bracket(f, g) == -poisson_bracket(g, f)
            assert ad_h0(bracket, spec).is_zero()


class TestExponentWidth:
    """Exponents up to the field limit are exact; one more raises."""

    top = 2 ** EXP_BITS - 1

    def test_top_exponent_round_trips(self):
        for p, a, b, c in [(ZPolynomial.var(2, 1) ** self.top, (self.top, 0), (0, 0), 1),
                           (ZPolynomial.monomial(2, (0, 0), (0, self.top), 3), (0, 0), (0, self.top), 3)]:
            assert list(p.terms()) == [(ZMonomial(a, b), ComplexRational.of(c))]
            assert p.coefficient(a, b) == ComplexRational.of(c)
            assert p.degree() == self.top
        assert str(ZPolynomial.var_conj(2, 2) ** self.top) == f"(1,0) z2*^{self.top}"
        assert str(ZPolynomial.var(2, 1) ** self.top) == f"(1,0) z1^{self.top}"

    def test_power_past_the_limit_raises(self):
        with pytest.raises(ValueError):
            ZPolynomial.var(2, 1) ** (2 ** EXP_BITS)
        with pytest.raises(ValueError):
            (ZPolynomial.var(2, 1) * ZPolynomial.var_conj(2, 2)) ** (2 ** (EXP_BITS - 1))

    def test_product_past_the_limit_raises(self):
        for k in (1, 2):
            for var in (ZPolynomial.var, ZPolynomial.var_conj):
                big = var(2, k) ** (self.top - 1)
                assert (big * var(2, k)).degree() == self.top
                with pytest.raises(ValueError):
                    big * var(2, k) ** 2
        with pytest.raises(ValueError):
            ZPolynomial.var(2, 1) ** 40000 * ZPolynomial.var(2, 1) ** 30000

    def test_bracket_at_the_limit(self):
        # {z_k^a, z_k^c z_k*} = -i a z_k^(a+c-1): a + c overflows the z_k field
        # before the bracket takes one z_k and one z_k* away
        n = 2
        for k in (1, 2):
            f = ZPolynomial.var(n, k) ** (self.top - 5)
            g = ZPolynomial.var(n, k) ** 6 * ZPolynomial.var_conj(n, k)
            expected = ZPolynomial.var(n, k) ** self.top * ComplexRational.of(0, 5 - self.top)
            assert poisson_bracket(f, g) == expected == slow_bracket(f, g)
            with pytest.raises(ValueError):
                poisson_bracket(f * ZPolynomial.var(n, k), g)


class TestCanonicalForm:
    """Equal values reached by different routes are equal objects."""

    @settings(max_examples=40, deadline=None)
    @given(f=st_poly(2), g=st_poly(2))
    def test_routes_to_one_value_compare_equal(self, f, g):
        assert f * Fraction(1, 3) + f * Fraction(2, 3) == f
        assert (f + g) - g == f
        assert f * ComplexRational.of(Fraction(1, 5), 2) + f * ComplexRational.of(
            Fraction(-1, 5), -2) == ZPolynomial.zero(2)

    def test_cancelled_sum_is_the_zero_polynomial(self):
        z = ZPolynomial.var(2, 1) * Fraction(1, 3)
        assert z - z == ZPolynomial.zero(2)
        assert str(z - z) == "0"

    def test_sum_over_the_left_denominator(self):
        # 1/6 is already the common denominator, so the left terms are copied
        # unscaled; the copy must not alias them, and the sum is in lowest terms
        a = ZPolynomial.var(2, 1) * Fraction(1, 6)
        b = ZPolynomial.var(2, 1) * Fraction(1, 3) + ZPolynomial.var(2, 2)
        assert a + b == ZPolynomial.var(2, 1) * Fraction(1, 2) + ZPolynomial.var(2, 2)
        assert a == ZPolynomial.monomial(2, (1, 0), (0, 0), Fraction(1, 6))

    def test_one_term_products_are_in_lowest_terms(self):
        half_z1 = ZPolynomial.monomial(2, (1, 0), (0, 0), Fraction(1, 2))
        two_z1c = ZPolynomial.monomial(2, (0, 0), (1, 0), 2)
        i_third_z1 = ZPolynomial.monomial(2, (1, 0), (0, 0), ComplexRational.of(0, Fraction(1, 3)))
        three_i_z2 = ZPolynomial.monomial(2, (0, 1), (0, 0), ComplexRational.of(0, 3))
        for product, expected in [(half_z1 * two_z1c, ZPolynomial.monomial(2, (1, 0), (1, 0))),
                                  (i_third_z1 * three_i_z2, ZPolynomial.monomial(2, (1, 1), (0, 0), -1))]:
            assert product._den == 1
            assert product == expected
            assert_canonical(product)

    def test_str_prints_lowest_terms(self):
        p = ZPolynomial.monomial(2, (1, 0), (0, 1), 3) * Fraction(1, 6)
        assert str(p) == "(1/2,0) z1^1 z2*^1"
        assert p == ZPolynomial.monomial(2, (1, 0), (0, 1), Fraction(1, 2))


# -- a reference that shares no code with ZPolynomial arithmetic -------------
#
# A reference polynomial maps the 2n exponents (z_1..z_n, then z_1*..z_n*) of
# each monomial to one (re, im) pair of Fractions; zero pairs are dropped.


def ref_clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != (0, 0)}


def ref_add(f: dict, g: dict, sign: int = 1) -> dict:
    out = dict(f)
    for e, (x, y) in g.items():
        r, i = out.get(e, (0, 0))
        out[e] = (r + sign * x, i + sign * y)
    return ref_clean(out)


def ref_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, (x1, y1) in f.items():
        for e2, (x2, y2) in g.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            r, i = out.get(e, (0, 0))
            out[e] = (r + x1 * x2 - y1 * y2, i + x1 * y2 + y1 * x2)
    return ref_clean(out)


def ref_diff(f: dict, slot: int) -> dict:
    out = {}
    for e, (x, y) in f.items():
        if e[slot]:
            lower = e[:slot] + (e[slot] - 1,) + e[slot + 1:]
            out[lower] = (x * e[slot], y * e[slot])
    return out


def ref_bracket(f: dict, g: dict, n: int) -> dict:
    acc: dict = {}
    for k in range(n):
        acc = ref_add(acc, ref_mul(ref_diff(f, k), ref_diff(g, n + k)))
        acc = ref_add(acc, ref_mul(ref_diff(f, n + k), ref_diff(g, k)), sign=-1)
    return ref_mul(acc, {(0,) * (2 * n): (Fraction(0), Fraction(-1))})


def ref_of(p: ZPolynomial) -> dict:
    return {m.a + m.b: (c.re, c.im) for m, c in p.terms()}


def snapshot(p: ZPolynomial) -> tuple:
    return dict(p._terms), p._den


def assert_canonical(p: ZPolynomial) -> None:
    assert (0, 0) not in p._terms.values()
    assert p._den > 0
    assert math.gcd(p._den, *chain.from_iterable(p._terms.values())) == 1


st_part = st.fractions(min_value=-4, max_value=4, max_denominator=9)
st_zero = st.just(Fraction(0))
# denominators that share prime powers, so that sums often cancel a factor
st_shared_part = st.builds(Fraction, st.integers(-30, 30),
                           st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72]))


def st_ref_poly(n: int, part=st_part):
    """(ZPolynomial, reference) pairs built from the same drawn terms.

    Coefficients are purely real, purely imaginary or mixed, one kind per
    polynomial, so that every one of the bracket's four real/imaginary sums
    runs.
    """
    st_kind = st.sampled_from([(part, st_zero), (st_zero, part), (part, part)])

    def terms(kind):
        re, im = kind
        return st.lists(st.tuples(
            st.lists(st.integers(0, 3), min_size=2 * n, max_size=2 * n).map(tuple),
            re, im), max_size=4)

    def both(raw):
        poly, ref = ZPolynomial.zero(n), {}
        for e, re, im in raw:
            poly = poly + ZPolynomial.monomial(n, e[:n], e[n:], ComplexRational.of(re, im))
            ref = ref_add(ref, {e: (re, im)})
        return poly, ref

    return st_kind.flatmap(terms).map(both)


class TestFractionOracle:
    """Every operation against a Fraction-pair reference, and its invariants.

    After each operation the result has no zero numerator, a positive
    denominator and numerators with no common factor with it, and neither
    operand has changed.
    """

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), k=st.integers(0, 3),
           c=st.tuples(st_part, st_part))
    def test_operations_match_reference(self, data, n, k, c):
        (f, fr), (g, gr) = data.draw(st_ref_poly(n)), data.draw(st_ref_poly(n))
        before = snapshot(f), snapshot(g)
        assert ref_of(f) == fr and ref_of(g) == gr
        const = (0,) * (2 * n)
        power = {const: (Fraction(1), Fraction(0))}
        for _ in range(k):
            power = ref_mul(power, fr)
        cases = [
            (f + g, ref_add(fr, gr)),
            (f - g, ref_add(fr, gr, sign=-1)),
            (-f, ref_add({}, fr, sign=-1)),
            (f * g, ref_mul(fr, gr)),
            (f * ComplexRational.of(*c), ref_mul(fr, {const: c})),
            (f ** k, power),
            (poisson_bracket(f, g), ref_bracket(fr, gr, n)),
        ]
        for result, expected in cases:
            assert ref_of(result) == expected
            assert_canonical(result)
        assert (snapshot(f), snapshot(g)) == before

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_sum_cancels_only_a_factor_of_both_denominators(self, data, n):
        (f, fr), (g, gr) = (data.draw(st_ref_poly(n, st_shared_part)) for _ in range(2))
        for a, b, expected in [(f, g, ref_add(fr, gr)), (g, f, ref_add(fr, gr)),
                               (f + g, -f, gr)]:
            total = a + b
            assert ref_of(total) == expected
            assert_canonical(total)
            assert math.gcd(a._den, b._den) % (math.lcm(a._den, b._den) // total._den) == 0

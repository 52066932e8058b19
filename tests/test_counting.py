"""Closed-form counting theorems: brute-force cross-checks and identities."""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyads.counting import (
    DELTA1_REFERENCE,
    DELTA2_REFERENCE,
    TOTALS_REFERENCE_N10,
    delta1_closed,
    delta2_closed,
    lambda_dunham,
    regenerate_table,
    totals,
    verify_tables,
)
from polyads.monomials import brute_force_delta1, brute_force_delta2

st_coprime = st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(
    lambda pq: math.gcd(*pq) == 1)


def delta1_fraction(N, p, q):
    """The delta1 closed form as first written, in Fraction arithmetic."""
    pq = p + q
    if N < pq + 2:
        return 0
    k = Fraction((N - 2) // pq)
    i = (N - 2) % pq
    half_i = Fraction(i // 2)
    if pq % 2 == 0:
        val = k * (1 + half_i + (k - 1) * pq / Fraction(4))
    elif k % 2 == 0:
        val = k * ((k - 1) * pq + 2 * i + 3) / Fraction(4)
    else:
        val = 1 + half_i + (k - 1) * (k * pq + 2 * i + 3) / Fraction(4)
    assert val.denominator == 1
    return int(val)


def delta2_fraction(N, p, q):
    """The delta2 closed form as first written, in Fraction arithmetic."""
    pq = p + q
    if N < pq + 4:
        return 0
    k = Fraction((N - 4) // pq)
    i = (N - 4) % pq
    e_half = Fraction(i // 2)
    eps = i - 2 * (i // 2)
    head = (e_half + 1) * (e_half + 2) / Fraction(2)
    mid = (k - 1) * (i * (i + 6) - 4 * eps * e_half - 7 * eps + 8) / Fraction(8)
    if pq % 2 == 0:
        bulk = k * (k - 1) * pq * ((2 * k - 1) * pq + 6 * (i + 3 - eps)) / Fraction(48)
        val = head + bulk + mid
    else:
        bulk = k * (k - 1) * pq * ((2 * k - 1) * pq + 3 * (2 * i + 5)) / Fraction(48)
        if k % 2 == 0:
            tail = k * (2 * eps - 1) * (4 * e_half + pq + 5 + 2 * eps) / Fraction(16)
        else:
            tail = (k - 1) * (2 * eps - 1) * (4 * e_half - pq + 5 + 2 * eps) / Fraction(16)
        val = head + bulk + mid + tail
    assert val.denominator == 1
    return int(val)


class TestClosedForms:
    @settings(max_examples=200, deadline=None)
    @given(N=st.integers(0, 40), pq=st_coprime)
    def test_delta1_equals_brute_force(self, N, pq):
        p, q = pq
        assert delta1_closed(N, p, q) == brute_force_delta1(N, p, q)

    @settings(max_examples=200, deadline=None)
    @given(N=st.integers(0, 40), pq=st_coprime)
    def test_delta2_equals_brute_force(self, N, pq):
        p, q = pq
        assert delta2_closed(N, p, q) == brute_force_delta2(N, p, q)

    @settings(max_examples=300, deadline=None)
    @given(N=st.integers(0, 400),
           pq=st.tuples(st.integers(1, 14), st.integers(1, 14)).filter(
               lambda pq: sum(pq) <= 15 and math.gcd(*pq) == 1))
    def test_integer_forms_equal_fraction_forms(self, N, pq):
        p, q = pq
        assert delta1_closed(N, p, q) == delta1_fraction(N, p, q)
        assert delta2_closed(N, p, q) == delta2_fraction(N, p, q)

    def test_depends_only_on_resonance_order(self):
        for N in range(4, 20):
            assert delta1_closed(N, 3, 2) == delta1_closed(N, 4, 1)
            assert delta2_closed(N, 3, 2) == delta2_closed(N, 4, 1)

    def test_monotone_in_expansion_order(self):
        for p, q in [(1, 1), (2, 1), (3, 2)]:
            d1 = [delta1_closed(N, p, q) for N in range(0, 30)]
            d2 = [delta2_closed(N, p, q) for N in range(0, 30)]
            assert d1 == sorted(d1)
            assert d2 == sorted(d2)

    def test_thresholds(self):
        assert delta1_closed(4, 1, 1) == 1
        assert delta1_closed(3, 1, 1) == 0
        assert delta2_closed(6, 1, 1) == 1
        assert delta2_closed(5, 1, 1) == 0

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            delta1_closed(10, 2, 2)
        with pytest.raises(ValueError):
            delta2_closed(10, 4, 2)
        with pytest.raises(ValueError):
            totals(2, 10, 6, 3)

    @pytest.mark.parametrize("p, q", [(-1, 1), (0, 1), (1, 0), (2, -3)])
    def test_rejects_non_positive_ladder(self, p, q):
        for count in (delta1_closed, delta2_closed, lambda *a: totals(2, *a)):
            with pytest.raises(ValueError, match="p and q must be positive"):
                count(10, p, q)

    def test_integrality_discharged_over_wide_sweep(self):
        # every numerator must divide exactly, to an int >= 0
        for N in range(0, 41):
            for p in range(1, 9):
                for q in range(1, p + 1):
                    if math.gcd(p, q) != 1:
                        continue
                    assert delta1_closed(N, p, q) >= 0
                    assert delta2_closed(N, p, q) >= 0


def kernel_slots(n, N, p, q):
    """Ker ad_H0 at order N for the p:q resonance alone, from its definition.

    Counts the non-constant z^a z*^b with |a| + |b| <= N and
    omega . (a - b) = 0, one per conjugate pair, for omega = (q, p, M, M^2,
    ...) with M = p N + 1: the spectators resonate with nothing at this
    order. Returns (every slot, the slots whose coupling part uses at most
    two action modes, that is a = b or at most two i with min(a_i, b_i) > 0).
    """
    M = p * N + 1
    omega = (q, p, *(M ** k for k in range(1, n - 1)))
    by_frequency = defaultdict(list)
    for a in product(range(N + 1), repeat=n):
        if sum(a) <= N:
            by_frequency[sum(w * x for w, x in zip(omega, a))].append(a)
    every = at_most_two = 0
    for vectors in by_frequency.values():
        for a, b in product(vectors, repeat=2):
            if a > b or sum(a) + sum(b) > N or not any(a):
                continue
            every += 1
            at_most_two += a == b or sum(min(x, y) > 0 for x, y in zip(a, b)) <= 2
    return every, at_most_two


class TestKernelCount:
    """The census against Ker ad_H0 counted without monomials.py."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (3, 1), (3, 2), (4, 1)])
    def test_kernel_matches_closed_forms(self, n, p, q):
        for N in range(4, 11):
            every, at_most_two = kernel_slots(n, N, p, q)
            coupling = sum(math.comb((N - (p + q) * k) // 2 + n, n)
                           for k in range(1, N // (p + q) + 1))
            assert every == lambda_dunham(n, N) + coupling, N
            assert at_most_two == totals(n, N, p, q).n_coef, N

    def test_worked_case_misses_one_kernel_slot(self):
        # the abstract's 86 is the whole kernel; the census allows at most
        # two action factors in a coupling monomial, so it lacks the one slot
        # with all three, coupling 1 1:1,2:1,3:1 (degree 9)
        assert kernel_slots(3, 10, 2, 1) == (86, 85)


class TestTotals:
    def test_worked_three_mode_case(self):
        rep = totals(3, 10, 2, 1)
        assert (rep.n_coef, rep.n_op, rep.n_c) == (85, 115, 60)
        assert rep.Q0 == 5
        assert rep.Q1 == 3
        assert rep.lam == 55

    def test_two_mode_column(self):
        for pq, expected in TOTALS_REFERENCE_N10.items():
            p, q = {2: (1, 1), 3: (2, 1), 4: (3, 1), 5: (3, 2)}[pq]
            rep = totals(2, 10, p, q)
            assert (rep.n_coef, rep.n_op, rep.n_c) == expected

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 6), N=st.integers(4, 24), pq=st_coprime)
    def test_internal_identities(self, n, N, pq):
        p, q = pq
        rep = totals(n, N, p, q)
        assert rep.n_op == rep.lam + rep.n_c
        assert rep.n_c == 2 * (rep.n_coef - rep.lam)
        assert rep.n_c == 2 * rep.Q1 + 2 * n * rep.delta1 \
            + n * (n - 1) * rep.delta2
        assert rep.lam == lambda_dunham(n, N)

    def test_two_mode_census_closed_form(self):
        # at n = 2 the census size collapses to Q0 (Q0 + 3) / 2
        for N in range(4, 30):
            q0 = N // 2
            assert lambda_dunham(2, N) == q0 * (q0 + 3) // 2

    def test_census_includes_linear_slots(self):
        # the n degree-1 vectors are counted, so lambda >= n
        for n in range(2, 7):
            assert lambda_dunham(n, 4) >= n

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            totals(1, 10, 2, 1)

    @pytest.mark.parametrize("N", [-1, -5])
    def test_rejects_negative_order(self, N):
        with pytest.raises(ValueError, match="N >= 0"):
            totals(3, N, 2, 1)

    def test_rejects_more_modes_than_the_limit(self):
        assert totals(64, 10 ** 14, 2, 1).n == 64
        for n in (65, 10 ** 5):
            with pytest.raises(ValueError, match="^need n <= 64$"):
                totals(n, 10 ** 5, 2, 1)

    def test_order_zero_has_no_terms(self):
        rep = totals(3, 0, 2, 1)
        assert (rep.lam, rep.n_coef, rep.n_op, rep.n_c) == (0, 0, 0, 0)

    def test_as_dict_is_complete(self):
        d = totals(3, 10, 2, 1).as_dict()
        assert d["n_coef"] == 85 and d["n_op"] == 115 and d["n_c"] == 60
        assert d["lambda"] == 55 and d["delta1"] == 5 and d["delta2"] == 4


class TestFrozenTables:
    def test_reference_cell_counts(self):
        assert len(DELTA1_REFERENCE) == 60
        assert len(DELTA2_REFERENCE) == 52
        assert len(TOTALS_REFERENCE_N10) == 4

    def test_regenerate_matches_frozen_delta1(self):
        rows = regenerate_table(1)
        assert len(rows) == len(DELTA1_REFERENCE)
        for N, pq, value in rows:
            assert value == DELTA1_REFERENCE[(N, pq)], (N, pq)

    def test_regenerate_matches_frozen_delta2(self):
        rows = regenerate_table(2)
        assert len(rows) == len(DELTA2_REFERENCE)
        for N, pq, value in rows:
            assert value == DELTA2_REFERENCE[(N, pq)], (N, pq)

    def test_regenerate_matches_frozen_totals(self):
        rows = regenerate_table(3)
        assert len(rows) == 4
        for pq, n_coef, n_op, n_c in rows:
            assert (n_coef, n_op, n_c) == TOTALS_REFERENCE_N10[pq]

    def test_regenerate_rejects_unknown_table(self):
        with pytest.raises(ValueError, match="^table index is 1, 2 or 3$"):
            regenerate_table(4)

    def test_verify_tables_all_green(self):
        entries = verify_tables()
        assert len(entries) == 60 + 52 + 12
        assert all(ok for (_, _, _, _, ok) in entries)

    def test_verify_tables_reports_mismatch(self, monkeypatch):
        import polyads.counting as counting
        monkeypatch.setitem(counting.DELTA1_REFERENCE, (8, 3), 999)
        entries = verify_tables()
        bad = [e for e in entries if not e[4]]
        assert len(bad) == 1
        table, key, expected, got, _ = bad[0]
        assert table == "table1" and key == (8, 3)
        assert expected == 999 and got == 3

"""Monomial enumeration against the closed counts, plus the audit layer."""

from __future__ import annotations

import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyads.counting import delta1_closed, delta2_closed, lambda_dunham, totals
from polyads.monomials import (
    CoupleC,
    GenMonomial,
    MultiplicityAudit,
    audit_counting,
    brute_force_delta1,
    brute_force_delta2,
    census_monomials,
    coupling_blocks,
    cumulative_multiplicity,
    dunham_blocks,
    enumerate_coupling,
    enumerate_dunham,
    iter_couples,
    lambda_raw,
    lambda_raw_direct,
    monomials_to_json,
    sort_monomials,
    write_census_json,
)

st_pq = st.sampled_from([(1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3),
                         (5, 2), (5, 4), (7, 2)])


def json_oracle(monos):
    """The stdlib serialization that monomials_to_json must reproduce."""
    payload = [
        {
            "m": None if m.m_part is None else str(m.m_part),
            "mExp": m.m_exp,
            "numExps": list(m.num_exps),
        }
        for m in monos
    ]
    return json.dumps(payload, indent=2)


@st.composite
def gen_monomials(draw):
    """A GenMonomial of any family, its action vector possibly empty."""
    m_part = draw(st.sampled_from([None, -1, 0]))
    m_exp = 0 if m_part is None else draw(st.integers(1, 40))
    exps = draw(st.lists(st.integers(0, 1000), max_size=5))
    return GenMonomial(m_part, m_exp, tuple(exps))


class TestGenMonomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenMonomial(1, 2, (0, 0))
        with pytest.raises(ValueError):
            GenMonomial(None, 2, (0, 0))  # exponent without a mixed part
        with pytest.raises(ValueError):
            GenMonomial(-1, 0, (1, 0))  # mixed part without exponent
        with pytest.raises(ValueError):
            GenMonomial(None, 0, (1, -2))
        with pytest.raises(ValueError):
            GenMonomial(0, 1, (-1, 0))

    def test_census_members_are_validated_monomials(self):
        census = [*enumerate_dunham(4, 16), *enumerate_coupling(4, 16, 3, 2)]
        assert census
        for m in census:
            assert type(m) is GenMonomial
            assert m == GenMonomial(*m)

    def test_equals_its_plain_tuple(self):
        m = GenMonomial(-1, 2, (1, 0, 3))
        assert m == (-1, 2, (1, 0, 3)) and hash(m) == hash((-1, 2, (1, 0, 3)))
        assert (m.m_part, m.m_exp, m.num_exps) == tuple(m)

    def test_replace_validates(self):
        m = GenMonomial(None, 0, (1, 0))
        assert m._replace(num_exps=(2, 0)) == GenMonomial(None, 0, (2, 0))
        with pytest.raises(ValueError):
            m._replace(m_exp=2)

    def test_degree_weights_mixed_part(self):
        m = GenMonomial(-1, 2, (1, 0, 3))
        assert m.z_degree(2, 1) == 2 * 3 + 2 * 4
        assert m.z_degree(3, 2) == 2 * 5 + 2 * 4

    def test_labels(self):
        assert GenMonomial(None, 0, (2, 0, 1)).label() == "s1^2 s3"
        assert GenMonomial(-1, 1, (0, 0)).label() == "s-1"
        assert GenMonomial(0, 3, (0, 1)).label() == "s0^3 s2"
        assert GenMonomial(None, 0, ()).label() == "1"

    def test_sort_puts_number_family_first_and_mode1_leading(self):
        monos = [
            GenMonomial(0, 1, (0, 0)),
            GenMonomial(None, 0, (0, 1)),
            GenMonomial(None, 0, (1, 0)),
            GenMonomial(-1, 1, (0, 0)),
        ]
        ordered = sort_monomials(monos)
        assert ordered[0] == GenMonomial(None, 0, (1, 0))
        assert ordered[1] == GenMonomial(None, 0, (0, 1))
        assert ordered[2].m_part == -1
        assert ordered[3].m_part == 0


def rule_census(n, N, p, q, families):
    """Brute filter of the census rule over the whole box of exponent vectors."""
    pq = p + q
    out = set()
    for exps in itertools.product(range(N // 2 + 1), repeat=n):
        t = sum(exps)
        support = n - exps.count(0)
        for m in families:
            for k in range(N // pq + 1):
                if m is None:
                    allowed = k == 0 and t >= 1
                else:
                    allowed = k >= 1 and support <= 2
                if allowed and pq * k + 2 * t <= N:
                    out.add(GenMonomial(m, k, exps))
    return out


class TestEnumeration:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 4), N=st.integers(4, 16), pq=st_pq)
    def test_census_is_the_rule_in_canonical_order(self, n, N, pq):
        p, q = pq
        censuses = [(enumerate_dunham(n, N), (None,))]
        if n >= 2:
            censuses.append((enumerate_coupling(n, N, p, q), (-1, 0)))
        for census, families in censuses:
            assert list(census) == sort_monomials(set(census))
            assert set(census) == rule_census(n, N, p, q, families)

    @pytest.mark.parametrize("n,N", [(1, 4), (2, 6), (2, 10), (3, 10), (4, 9)])
    def test_dunham_census_size(self, n, N):
        assert len(enumerate_dunham(n, N)) == lambda_dunham(n, N)

    def test_dunham_contains_degree_one_slots(self):
        census = enumerate_dunham(3, 10)
        for k in range(3):
            exps = tuple(1 if j == k else 0 for j in range(3))
            assert GenMonomial(None, 0, exps) in census

    def test_dunham_degree_cap(self):
        for m in enumerate_dunham(2, 7):
            assert 1 <= sum(m.num_exps) <= 3

    @pytest.mark.parametrize("n,N,p,q", [
        (2, 10, 1, 1), (2, 10, 2, 1), (3, 10, 2, 1), (3, 12, 3, 2),
        (4, 9, 3, 1), (2, 6, 5, 2),
    ])
    def test_coupling_census_size_matches_totals(self, n, N, p, q):
        # strong oracle: the set size must equal the closed-form N_c
        assert len(enumerate_coupling(n, N, p, q)) == totals(n, N, p, q).n_c

    def test_coupling_monomials_come_in_conjugate_pairs(self):
        census = enumerate_coupling(3, 10, 2, 1)
        flipped = {GenMonomial(-1 if m.m_part == 0 else 0, m.m_exp, m.num_exps)
                   for m in census}
        assert flipped == census

    def test_coupling_respects_degree_cap(self):
        for m in enumerate_coupling(2, 11, 3, 2):
            assert m.z_degree(3, 2) <= 11
            assert m.m_exp >= 1

    def test_enumeration_validation(self):
        with pytest.raises(ValueError):
            enumerate_dunham(0, 8)
        with pytest.raises(ValueError):
            enumerate_dunham(2, 3)
        with pytest.raises(ValueError):
            enumerate_coupling(1, 8, 2, 1)
        with pytest.raises(ValueError):
            enumerate_coupling(2, 8, 2, 4)

    def test_json_round_trip_and_determinism(self):
        census = enumerate_coupling(2, 8, 2, 1)
        text = monomials_to_json(census)
        again = monomials_to_json(sort_monomials(set(census)))
        assert text == again
        payload = json.loads(text)
        assert len(payload) == len(census)
        assert all(set(entry) == {"m", "mExp", "numExps"} for entry in payload)
        mixed = [entry for entry in payload if entry["m"] is not None]
        assert all(entry["m"] in ("-1", "0") for entry in mixed)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(monos=st.lists(gen_monomials(), max_size=8))
    def test_matches_stdlib_encoder(self, monos):
        assert monomials_to_json(monos) == json_oracle(monos)

    def test_empty_list(self):
        assert monomials_to_json([]) == json_oracle([]) == "[]"

    def test_empty_action_vector_stays_on_one_line(self):
        text = monomials_to_json([GenMonomial(None, 0, ())])
        assert text == json_oracle([GenMonomial(None, 0, ())])
        assert '    "numExps": []\n' in text


def census_json(n, blocks):
    fh = io.StringIO()
    write_census_json(fh, n, blocks)
    return fh.getvalue()


class TestCensusJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["dunham", "coupling", "both"]),
           n=st.integers(1, 5), N=st.integers(4, 20), pq=st_pq)
    def test_matches_stdlib_encoder_of_the_census(self, kind, n, N, pq):
        p, q = pq
        if kind != "dunham" and n < 2:
            with pytest.raises(ValueError):
                coupling_blocks(n, N, p, q)
            return
        blocks, monos = [], []
        if kind != "coupling":
            blocks += dunham_blocks(n, N)
            monos += enumerate_dunham(n, N)
        if kind != "dunham":
            blocks += coupling_blocks(n, N, p, q)
            monos += enumerate_coupling(n, N, p, q)
        assert list(census_monomials(n, blocks)) == monos
        assert census_json(n, blocks) == json_oracle(monos) + "\n"

    def test_empty_coupling_census(self):
        # p + q = 9 is past the order: no coupling monomial fits
        blocks = coupling_blocks(3, 8, 7, 2)
        assert blocks == [] and not enumerate_coupling(3, 8, 7, 2)
        assert census_json(3, blocks) == json_oracle([]) + "\n" == "[]\n"

    def test_blocks_without_vectors_write_nothing(self):
        # a block of positive total and support 0 holds no vector
        text = census_json(1, [(-1, 1, 2, 0), (0, 2, 0, 0), (-1, 1, 2, 1)])
        monos = [GenMonomial(0, 2, (0,)), GenMonomial(-1, 1, (2,))]
        assert text == json_oracle(monos) + "\n"


class TestBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(N=st.integers(4, 30), pq=st_pq)
    def test_closed_forms_match_brute_force(self, N, pq):
        p, q = pq
        assert delta1_closed(N, p, q) == brute_force_delta1(N, p, q)
        assert delta2_closed(N, p, q) == brute_force_delta2(N, p, q)

    def test_brute_force_agrees_with_per_pair_enumeration(self):
        # delta2 counts one s_i s_j pattern; enumerate_coupling has C(n,2)
        # of them per mixed generator
        n, N, p, q = 3, 12, 2, 1
        census = enumerate_coupling(n, N, p, q)
        three_index = [m for m in census
                       if sum(1 for e in m.num_exps if e) == 2]
        assert len(three_index) == 2 * 3 * brute_force_delta2(N, p, q)
        two_index = [m for m in census
                     if sum(1 for e in m.num_exps if e) == 1]
        assert len(two_index) == 2 * 3 * brute_force_delta1(N, p, q)


class TestCouples:
    def test_couple_validation(self):
        with pytest.raises(ValueError):
            CoupleC(4, 1, 1)
        with pytest.raises(ValueError):
            CoupleC(2, 0, 1)
        with pytest.raises(ValueError):
            CoupleC(2, 1, 1, gamma=1)
        with pytest.raises(ValueError):
            CoupleC(3, 1, 2, gamma=2)  # gamma must stay below qj
        with pytest.raises(ValueError):
            CoupleC(3, 1, 2)

    @pytest.mark.parametrize("fields", [
        (4, 1, 1, None), (2, 0, 1, None), (2, 1, 0, None), (2, 1, 1, 1),
        (3, 1, 2, 2), (3, 1, 2, 0), (3, 1, 2, None),
    ])
    def test_make_validates(self, fields):
        with pytest.raises(ValueError):
            CoupleC._make(fields)

    @pytest.mark.parametrize("start,change", [
        (CoupleC(2, 1, 1), {"kind": 4}),
        (CoupleC(2, 1, 1), {"kprime": 0}),
        (CoupleC(2, 1, 1), {"gamma": 1}),
        (CoupleC(3, 1, 3, 2), {"qj": 2}),
        (CoupleC(3, 1, 3, 2), {"gamma": None}),
        (CoupleC(3, 1, 3, 2), {"kind": 2}),
    ])
    def test_replace_validates(self, start, change):
        with pytest.raises(ValueError):
            start._replace(**change)

    def test_valid_couples_round_trip(self):
        c = CoupleC(3, 2, 4, 3)
        assert CoupleC._make(c) == c == (3, 2, 4, 3)
        assert c._replace(gamma=1) == CoupleC(3, 2, 4, 1)
        assert CoupleC(2, 1, 1).gamma is None

    def test_multiplicity_window(self):
        c = CoupleC(2, 1, 1)
        p, q = 2, 1
        first = c.appearance_order(p, q)
        assert first == 5
        assert cumulative_multiplicity(c, first - 1, p, q) == 0
        assert cumulative_multiplicity(c, first, p, q) == 1
        assert cumulative_multiplicity(c, first + 1, p, q) == 2
        assert cumulative_multiplicity(c, first + 2, p, q) == 3
        assert cumulative_multiplicity(c, first + 10, p, q) == 3  # capped at p+q

    @settings(max_examples=80, deadline=None)
    @given(N=st.integers(4, 24), pq=st_pq, kind=st.sampled_from([2, 3]))
    def test_raw_count_is_total_multiplicity(self, N, pq, kind):
        p, q = pq
        direct = sum(cumulative_multiplicity(c, N, p, q)
                     for c in iter_couples(N, p, q, kind))
        assert lambda_raw(N, p, q, kind) == direct
        assert lambda_raw(N, p, q, kind) == lambda_raw_direct(N, p, q, kind)


def audit_reference(N, p, q, kind):
    """The audit tallied over CoupleC objects, one validated couple at a time."""
    pq = p + q
    offset = 2 if kind == 2 else 4
    l1 = lambda_raw(N, p, q, 2)
    l2 = lambda_raw(N, p, q, 3)
    kprime_top = (N - offset) // pq
    pop_top = pop_rest = alpha = present = 0
    for c in iter_couples(N, p, q, kind):
        mu = cumulative_multiplicity(c, N, p, q)
        if N > c.appearance_order(p, q) + pq - 1:
            alpha += mu
        elif c.kprime == kprime_top:
            present += 1
            pop_top += mu
        else:
            present += 1
            pop_rest += mu
    return MultiplicityAudit(N, p, q, kind, l1, l2, pop_top, pop_rest, alpha,
                             present, alpha // pq + present)


class TestAudit:
    @pytest.mark.parametrize("p, q, message", [
        (-1, 1, "positive"), (0, 1, "positive"), (1, 0, "positive"), (2, 4, "coprime"),
    ])
    def test_entry_points_check_the_ladder(self, p, q, message):
        # each raises on the call itself, before a couple or block is drawn
        calls = [lambda: coupling_blocks(3, 10, p, q), lambda: lambda_raw(10, p, q, 2)]
        calls += [lambda f=f, k=k: f(10, p, q, k) for f in (audit_counting, iter_couples)
                  for k in (2, 3)]
        for call in calls:
            with pytest.raises(ValueError, match=f"p and q must be {message}"):
                call()

    @pytest.mark.parametrize("kind", [2, 3])
    @pytest.mark.parametrize("pq", [(1, 1), (2, 1), (1, 2), (3, 2), (4, 1)])
    def test_matches_couple_object_reference(self, pq, kind):
        p, q = pq
        for N in range(61):
            assert audit_counting(N, p, q, kind) == audit_reference(N, p, q, kind)

    @settings(max_examples=80, deadline=None)
    @given(N=st.integers(4, 28), pq=st_pq, kind=st.sampled_from([2, 3]))
    def test_populations_account_for_every_raw_monomial(self, N, pq, kind):
        p, q = pq
        a = audit_counting(N, p, q, kind)
        raw = lambda_raw(N, p, q, kind)
        # present couples contribute their multiplicities, switched-off ones
        # their saturated alpha; together they exhaust the raw count
        present_mu = sum(
            cumulative_multiplicity(c, N, p, q)
            for c in iter_couples(N, p, q, kind)
            if 0 < cumulative_multiplicity(c, N, p, q)
            and N <= c.appearance_order(p, q) + p + q - 1
        )
        assert a.pop_class_kprime + a.pop_other_classes == present_mu
        assert a.switched_off_alpha + present_mu == raw

    @settings(max_examples=80, deadline=None)
    @given(N=st.integers(4, 28), pq=st_pq, kind=st.sampled_from([2, 3]))
    def test_audit_delta_matches_closed_form(self, N, pq, kind):
        p, q = pq
        a = audit_counting(N, p, q, kind)
        closed = delta1_closed(N, p, q) if kind == 2 else delta2_closed(N, p, q)
        assert a.delta == closed

    def test_alpha_divisible_by_resonance_order(self):
        for N in range(4, 26):
            for (p, q) in [(1, 1), (2, 1), (3, 2)]:
                for kind in (2, 3):
                    a = audit_counting(N, p, q, kind)
                    assert a.switched_off_alpha % (p + q) == 0

    def test_below_threshold_audit_is_empty(self):
        a = audit_counting(5, 3, 2, 2)
        assert a.delta == 0
        assert a.pop_class_kprime == a.pop_other_classes == 0
        assert a.switched_off_alpha == 0

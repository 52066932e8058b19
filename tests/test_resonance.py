"""Generators, bracket relations, flow invariance, reduced phase space."""

from __future__ import annotations

import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyads import resonance
from polyads.resonance import (
    MAX_SAMPLES,
    GeneratorSet,
    PhaseCurvePoint,
    ResonanceSpec,
    ad_h0,
    flow_h0,
    generators,
    h0_polynomial,
    phase_curve,
    phase_curve_residual,
    syzygy_residual,
    verify_bracket_table,
    write_phase_curve_csv,
    write_phase_curve_json,
)

COPRIME_PAIRS = [(p, q) for p in range(1, 5) for q in range(1, p + 1)
                 if math.gcd(p, q) == 1]


class TestResonanceSpec:
    def test_defaults_are_commensurate(self):
        spec = ResonanceSpec(n=4, p=3, q=2)
        w = spec.exact_omegas()
        assert w[1] / w[0] == Fraction_like(3, 2)
        assert len(w) == 4
        assert all(x > 0 for x in w)

    @pytest.mark.parametrize("kwargs", [
        dict(n=1, p=2, q=1),
        dict(n=2, p=2, q=2),
        dict(n=2, p=1, q=2),
        dict(n=2, p=0, q=1),
    ])
    def test_rejects_bad_input(self, kwargs):
        with pytest.raises(ValueError):
            ResonanceSpec(**kwargs)

    @pytest.mark.parametrize("fields,message", [
        ((1, 2, 1), "need n >= 2 oscillators"),
        ((2, 0, 1), "p and q must be positive"),
        ((2, 1, 2), "expected p >= q"),
        ((2, 4, 2), "p and q must be coprime"),
        # input that breaks two rules gets the message of the first rule
        ((2, 2, 4), "expected p >= q"),
        ((2, 0, 4), "p and q must be positive"),
        # over MAX_MODES
        ((65, 2, 1), "need n <= 64 oscillators"),
    ])
    def test_every_construction_validates(self, fields, message):
        good = ResonanceSpec(3, 2, 1)
        builds = [
            lambda: ResonanceSpec(*fields),
            lambda: ResonanceSpec(**dict(zip(("n", "p", "q"), fields))),
            lambda: ResonanceSpec._make(fields),
            lambda: good._replace(**dict(zip(("n", "p", "q"), fields))),
        ]
        for build in builds:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_equal_specs_are_equal_values(self):
        a, b = ResonanceSpec(n=3, p=2, q=1), ResonanceSpec._make((3, 2, 1))
        assert a == b and hash(a) == hash(b)
        assert ResonanceSpec(3, 2, 1)._replace(n=4) == ResonanceSpec(n=4, p=2, q=1)
        assert (a.n, a.p, a.q) == (3, 2, 1)
        assert repr(a) == "ResonanceSpec(n=3, p=2, q=1)"


def Fraction_like(a, b):
    from fractions import Fraction
    return Fraction(a, b)


class TestGenerators:
    @pytest.mark.parametrize("p,q", COPRIME_PAIRS)
    def test_degrees(self, p, q):
        spec = ResonanceSpec(n=3, p=p, q=q)
        gens = generators(spec)
        assert gens[-1].degree() == p + q
        assert gens[0].degree() == p + q
        for k in range(1, 4):
            assert gens[k].degree() == 2

    def test_ids_cover_mixed_pair_and_actions(self):
        gens = generators(ResonanceSpec(n=3, p=2, q=1))
        assert gens.ids() == [-1, 0, 1, 2, 3]
        assert isinstance(gens, GeneratorSet)

    def test_action_values_are_moduli(self):
        spec = ResonanceSpec(n=2, p=1, q=1)
        gens = generators(spec)
        z = (0.6 + 0.8j, 0.3 - 0.4j)
        assert gens[1].evaluate(z) == pytest.approx(abs(z[0]) ** 2)
        assert gens[2].evaluate(z) == pytest.approx(abs(z[1]) ** 2)

    def test_mixed_generators_are_conjugate_values(self):
        spec = ResonanceSpec(n=2, p=2, q=1)
        gens = generators(spec)
        z = (0.5 + 0.2j, -0.3 + 0.7j)
        vm = gens[-1].evaluate(z)
        v0 = gens[0].evaluate(z)
        assert vm == pytest.approx(v0.conjugate())

    @pytest.mark.parametrize("p,q", COPRIME_PAIRS)
    def test_generators_span_kernel_of_h0_bracket(self, p, q):
        spec = ResonanceSpec(n=3, p=p, q=q)
        gens = generators(spec)
        for k in gens.ids():
            assert ad_h0(gens[k], spec).is_zero()
        # a product of generators is invariant too
        assert ad_h0(gens[-1] * gens[0] ** 2 * gens[3], spec).is_zero()

    def test_h0_self_commutes(self):
        spec = ResonanceSpec(n=2, p=3, q=2)
        h0 = h0_polynomial(spec)
        assert ad_h0(h0, spec).is_zero()


class TestBracketTable:
    @pytest.mark.parametrize("p,q", COPRIME_PAIRS)
    def test_every_pair_matches_closed_form(self, p, q):
        checks = verify_bracket_table(ResonanceSpec(n=3, p=p, q=q))
        assert len(checks) == 10  # 5 generators, unordered pairs
        for chk in checks:
            assert chk.ok, f"pair {chk.pair} disagrees for p={p} q={q}"

    @pytest.mark.parametrize("p,q", COPRIME_PAIRS)
    def test_syzygy_residual_vanishes(self, p, q):
        assert syzygy_residual(ResonanceSpec(n=2, p=p, q=q)).is_zero()
        assert syzygy_residual(ResonanceSpec(n=4, p=p, q=q)).is_zero()


class TestFlow:
    def test_mismatched_dimension_rejected(self):
        spec = ResonanceSpec(n=3, p=2, q=1)
        with pytest.raises(ValueError, match="^polynomial dimension does not match spec$"):
            ad_h0(h0_polynomial(ResonanceSpec(n=2, p=2, q=1)), spec)
        with pytest.raises(ValueError, match="^initial point does not match spec$"):
            flow_h0((1j, 2j), 0.5, spec)

    def test_time_zero_is_identity(self):
        spec = ResonanceSpec(n=3, p=2, q=1)
        z0 = (1 + 2j, 3 - 1j, 0.5j)
        assert flow_h0(z0, 0.0, spec) == z0

    def test_flow_composes_additively(self):
        spec = ResonanceSpec(n=2, p=3, q=1)
        z0 = (0.3 + 0.1j, -0.2 + 0.9j)
        a = flow_h0(flow_h0(z0, 0.7, spec), 1.1, spec)
        b = flow_h0(z0, 1.8, spec)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=1e-15)

    def test_moduli_preserved_exactly_enough(self):
        spec = ResonanceSpec(n=2, p=2, q=1)
        rng = random.Random(11)
        for _ in range(25):
            z0 = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(2))
            t = rng.uniform(-30, 30)
            zt = flow_h0(z0, t, spec)
            for a, b in zip(z0, zt):
                assert abs(b) == pytest.approx(abs(a), rel=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.floats(-50, 50, allow_nan=False),
    )
    def test_generator_values_conserved(self, seed, t):
        spec = ResonanceSpec(n=3, p=3, q=2)
        rng = random.Random(seed)
        z0 = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(3))
        zt = flow_h0(z0, t, spec)
        gens = generators(spec)
        for k in gens.ids():
            v0 = gens[k].evaluate(z0)
            vt = gens[k].evaluate(zt)
            assert abs(vt - v0) <= 1e-12 * max(abs(v0), 1.0)


class TestPhaseCurve:
    def test_unison_curve_peaks_at_half(self):
        spec = ResonanceSpec(n=2, p=1, q=1)
        points = phase_curve(spec, 1.0, (), samples=201)
        assert len(points) == 201
        assert all(pt.branches == (pt.branches[0], -pt.branches[0]) for pt in points)
        top = max(pt.branches[0] for pt in points)
        assert top == pytest.approx(0.5, abs=1e-12)
        peak = max(points, key=lambda pt: pt.branches[0])
        assert peak.sigma1 == pytest.approx(0.5, abs=1e-12)

    def test_endpoints_touch_zero(self):
        spec = ResonanceSpec(n=2, p=2, q=1)
        points = phase_curve(spec, 3.0, (), samples=51)
        assert len(points) == 51
        assert points[0].branches == (0.0, 0.0)
        assert points[-1].branches[0] == pytest.approx(0.0, abs=1e-12)
        assert points[-1].branches[1] == pytest.approx(0.0, abs=1e-12)

    def test_residuals_tiny_on_curve(self):
        spec = ResonanceSpec(n=3, p=3, q=2)
        points = phase_curve(spec, 5.0, (0.25,), samples=87)
        for pt in points:
            for sigma0p in pt.branches:
                residual = phase_curve_residual(spec, 5.0, (0.25,), pt.sigma1, sigma0p)
                assert residual == pt.residual
                assert abs(residual) < 1e-12

    def test_residual_detects_off_curve_point(self):
        spec = ResonanceSpec(n=2, p=1, q=1)
        assert abs(phase_curve_residual(spec, 1.0, (), 0.5, 0.9)) > 0.1

    def test_zero_budget_degenerates_to_origin(self):
        spec = ResonanceSpec(n=2, p=1, q=1)
        points = phase_curve(spec, 0.0, ())
        assert points == [PhaseCurvePoint(0.0, (0.0,), 0.0)]
        # the one branch is +0, so no writer prints -0 for it
        assert math.copysign(1.0, points[0].branches[0]) == 1.0

    def test_validation_errors(self):
        spec = ResonanceSpec(n=3, p=1, q=1)
        with pytest.raises(ValueError):
            phase_curve(spec, 1.0, (0.1,), samples=1)
        with pytest.raises(ValueError):
            phase_curve(spec, 1.0, (), samples=10)  # missing fixed action
        with pytest.raises(ValueError):
            phase_curve(spec, 1.0, (-0.5,))
        with pytest.raises(ValueError):
            phase_curve(spec, 0.1, (5.0,))  # infeasible budget

    @pytest.mark.parametrize("h0, fixed", [
        (math.nan, (0.1,)), (math.inf, (0.1,)), (-math.inf, (0.1,)),
        (1.0, (math.nan,)), (1.0, (math.inf,)),
    ])
    def test_non_finite_input_rejected(self, h0, fixed):
        with pytest.raises(ValueError, match="finite"):
            phase_curve(ResonanceSpec(n=3, p=2, q=1), h0, fixed)

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (3, 2)])
    def test_overflowing_curve_rejected(self, p, q):
        # (1, 1) overflows to inf, the others raise OverflowError in float **
        with pytest.raises(ValueError, match="overflows"):
            phase_curve(ResonanceSpec(n=2, p=p, q=q), 1e200 * p, ())

    def test_csv_shape_and_rows(self):
        spec = ResonanceSpec(n=2, p=1, q=1)
        buf = io.StringIO()
        write_phase_curve_csv(buf, phase_curve(spec, 1.0, (), samples=11))
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "sigma1,sigma0p_plus,sigma0p_minus,residual"
        assert len(lines) == 12
        for line in lines[1:]:
            s1, plus, minus, res = map(float, line.split(","))
            assert plus >= 0.0 >= minus
            assert abs(res) < 1e-12

    @pytest.mark.parametrize("spec, h0, fixed", [
        (ResonanceSpec(n=2, p=1, q=1), 0.0, ()),
        (ResonanceSpec(n=2, p=2, q=1), 3.0, ()),
        (ResonanceSpec(n=3, p=3, q=2), 5.0, (0.25,)),
    ], ids=["origin", "2:1", "3:2"])
    def test_csv_and_json_agree_row_for_row(self, spec, h0, fixed):
        points = phase_curve(spec, h0, fixed, samples=21)
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        write_phase_curve_csv(csv_buf, points)
        write_phase_curve_json(json_buf, points)
        rows = [tuple(map(float, line.split(",")))
                for line in csv_buf.getvalue().splitlines()[1:]]
        records = iter(json.loads(json_buf.getvalue()))
        assert len(rows) == len(points)
        for (s1, plus, minus, res), pt in zip(rows, points):
            branches = (plus,) if len(pt.branches) == 1 else (plus, minus)
            for sigma0p in branches:
                assert next(records) == {"sigma1": s1, "sigma0p": sigma0p, "residual": res}
        assert next(records, None) is None


class TestSampleGuard:
    class Sampled(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def curve_rhs(*args, **kwargs):
            raise self.Sampled

        monkeypatch.setattr(resonance, "_curve_rhs", curve_rhs)

    def test_oversized_samples_rejected_before_sampling(self):
        spec = ResonanceSpec(n=2, p=2, q=1)
        for samples in (MAX_SAMPLES + 1, 10 ** 9):
            with pytest.raises(ValueError, match="samples"):
                phase_curve(spec, 1.0, (), samples=samples)

    def test_samples_at_the_limit_are_taken(self):
        with pytest.raises(self.Sampled):
            phase_curve(ResonanceSpec(n=2, p=2, q=1), 1.0, (), samples=MAX_SAMPLES)

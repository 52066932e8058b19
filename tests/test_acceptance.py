"""Acceptance gate: the ten headline checks, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
even when everything passes. Each check times itself against its stated
budget and compares at the stated tolerance, nothing looser.
"""

from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from polyads.counting import (
    DELTA1_REFERENCE,
    DELTA2_REFERENCE,
    TOTALS_REFERENCE_N10,
    _REPRESENTATIVE,
    delta1_closed,
    delta2_closed,
    totals,
)
from polyads.monomials import audit_counting, brute_force_delta1, brute_force_delta2
from polyads.model import HamiltonianModel, TermSpec, cloh_model, coupling_term
from polyads.quantum import (
    apply_term,
    build_block,
    conserved_lattice,
    dunham_energy,
    spectrum,
    state_label,
)
from polyads.resonance import (
    ResonanceSpec,
    flow_h0,
    generators,
    syzygy_residual,
    verify_bracket_table,
)
from polyads.zpoly import ComplexRational, ZPolynomial, poisson_bracket

def _verdict(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    tail = f"  {detail}" if detail else ""
    line = f"{'PASS' if ok else 'FAIL'}  {name}  ({elapsed:.2f}s){tail}"
    print(line, file=sys.stderr)


def test_01_two_monomial_table_both_paths():
    t0 = time.perf_counter()
    bad = []
    for (N, pq), expected in DELTA1_REFERENCE.items():
        p, q = _REPRESENTATIVE[pq]
        closed = delta1_closed(N, p, q)
        brute = brute_force_delta1(N, p, q)
        if not (closed == brute == expected):
            bad.append((N, pq, expected, closed, brute))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _verdict("two-monomial table, 60 cells, closed and brute", ok, elapsed,
             f"{60 - len(bad)}/60")
    assert not bad, bad
    assert elapsed < 1.0


def test_02_three_monomial_table_both_paths():
    t0 = time.perf_counter()
    bad = []
    for (N, pq), expected in DELTA2_REFERENCE.items():
        p, q = _REPRESENTATIVE[pq]
        closed = delta2_closed(N, p, q)
        brute = brute_force_delta2(N, p, q)
        if not (closed == brute == expected):
            bad.append((N, pq, expected, closed, brute))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _verdict("three-monomial table, 52 cells, closed and brute", ok, elapsed,
             f"{52 - len(bad)}/52")
    assert not bad, bad
    assert elapsed < 1.0


def test_03_totals_table():
    t0 = time.perf_counter()
    bad = []
    for pq, expected in TOTALS_REFERENCE_N10.items():
        p, q = _REPRESENTATIVE[pq]
        rep = totals(2, 10, p, q)
        if (rep.n_coef, rep.n_op, rep.n_c) != expected:
            bad.append((pq, expected, (rep.n_coef, rep.n_op, rep.n_c)))
    unison = totals(2, 10, 1, 1)
    if (unison.n_coef, unison.n_op, unison.n_c) != (55, 90, 70):
        bad.append(("unison", (55, 90, 70)))
    elapsed = time.perf_counter() - t0
    _verdict("totals table, 12 cells at order 10", not bad, elapsed,
             f"{12 - 3 * len(bad)}/12")
    assert not bad, bad


def test_04_worked_model_counts():
    t0 = time.perf_counter()
    rep = totals(3, 10, 2, 1)
    m = cloh_model()
    # 31 off-diagonal slots: the paper's 31 coupling coefficients
    ok = ((rep.n_coef, rep.n_op, rep.n_c) == (85, 115, 60)
          and m.slot_count() == 86 and m.nonzero_count() == 28
          and len(m.off_diagonal_terms()) == 31 and m.operator_count() == 117)
    elapsed = time.perf_counter() - t0
    _verdict("worked three-mode model counts", ok, elapsed,
             f"totals {(rep.n_coef, rep.n_op, rep.n_c)}, "
             f"slots {m.slot_count()}, nonzero {m.nonzero_count()}, "
             f"off-diagonal {len(m.off_diagonal_terms())}, operators {m.operator_count()}")
    assert ok


def test_05_exhaustive_oracle_equivalence():
    t0 = time.perf_counter()
    cases = 0
    for p in range(1, 9):
        for q in range(1, min(p, 9 - p) + 1):
            if math.gcd(p, q) != 1:
                continue
            for N in range(0, 41):
                d1c = delta1_closed(N, p, q)
                d2c = delta2_closed(N, p, q)
                assert d1c == brute_force_delta1(N, p, q), (N, p, q)
                assert d2c == brute_force_delta2(N, p, q), (N, p, q)
                a2 = audit_counting(N, p, q, 2)
                a3 = audit_counting(N, p, q, 3)
                assert a2.delta == d1c, (N, p, q)
                assert a3.delta == d2c, (N, p, q)
                assert a2.switched_off_alpha % (p + q) == 0
                assert a3.switched_off_alpha % (p + q) == 0
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _verdict("exhaustive closed = brute = audit sweep", ok, elapsed,
             f"{cases} (N,p,q) cases")
    assert ok


def test_06_bracket_table_and_syzygy_exact():
    t0 = time.perf_counter()
    for p in range(1, 5):
        for q in range(1, p + 1):
            if math.gcd(p, q) != 1:
                continue
            spec = ResonanceSpec(n=3, p=p, q=q)
            checks = verify_bracket_table(spec)
            assert all(c.ok for c in checks), (p, q)
            assert syzygy_residual(spec).is_zero(), (p, q)
    rng = random.Random(20260822)

    def rand_poly(n: int) -> ZPolynomial:
        poly = ZPolynomial.zero(n)
        for _ in range(rng.randrange(1, 5)):
            a = [0] * n
            b = [0] * n
            budget = 4
            for slot in range(2 * n):
                e = rng.randrange(0, budget + 1)
                (a if slot < n else b)[slot % n] = e
                budget -= e
            coef = ComplexRational.of(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
                                      Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
            poly = poly + ZPolynomial.monomial(n, tuple(a), tuple(b), coef)
        return poly

    for _ in range(50):
        f, g, h = rand_poly(2), rand_poly(2), rand_poly(2)
        jac = (poisson_bracket(f, poisson_bracket(g, h))
               + poisson_bracket(g, poisson_bracket(h, f))
               + poisson_bracket(h, poisson_bracket(f, g)))
        assert jac.is_zero()
    elapsed = time.perf_counter() - t0
    _verdict("bracket table, syzygy and Jacobi, exact arithmetic", True, elapsed,
             "7 resonances, 50 random triples")


def test_07_flow_conserves_generators():
    t0 = time.perf_counter()
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        p = rng.randrange(1, 5)
        q = rng.randrange(1, p + 1)
        while math.gcd(p, q) != 1:
            q = rng.randrange(1, p + 1)
        n = rng.randrange(2, 5)
        spec = ResonanceSpec(n=n, p=p, q=q)
        z0 = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(n))
        t = rng.uniform(-100, 100)
        zt = flow_h0(z0, t, spec)
        gens = generators(spec)
        for k in gens.ids():
            v0 = gens[k].evaluate(z0)
            vt = gens[k].evaluate(zt)
            rel = abs(vt - v0) / max(abs(v0), 1.0)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    _verdict("harmonic flow conserves every generator", ok, elapsed,
             f"worst relative drift {worst:.2e}")
    assert ok


def test_08_diagonal_limit_matches_number_string_energies():
    t0 = time.perf_counter()
    m = cloh_model().without_couplings()
    worst = 0.0
    for P in range(0, 11):
        for n3 in range(0, 3):
            block = build_block(m, (P, n3), [40, 20, 8])
            expect = sorted(dunham_energy(f, m) for f in block.basis)
            got = block.eigenvalues
            for x, y in zip(got, expect):
                rel = abs(x - y) / max(abs(y), 1.0)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    _verdict("zeroed couplings reduce to number-string energies", ok, elapsed,
             f"worst relative error {worst:.2e}")
    assert ok


def test_09_full_model_block_structure():
    t0 = time.perf_counter()
    m = cloh_model()
    herm_worst = 0.0
    trace_worst = 0.0
    gersch_ok = True
    blocks, _rows = spectrum(m, pmax=38, n3max=7)
    for b in blocks:
        herm_worst = max(herm_worst, float(np.max(np.abs(b.matrix - b.matrix.T))))
        tr = float(np.trace(b.matrix))
        es = sum(b.eigenvalues)
        trace_worst = max(trace_worst,
                          abs(tr - es) / max(abs(tr), 1.0))
        diag = np.diag(b.matrix)
        radii = np.sum(np.abs(b.matrix), axis=1) - np.abs(diag)
        lo = float(np.min(diag - radii))
        hi = float(np.max(diag + radii))
        if b.eigenvalues and not (lo - 1e-9 <= b.eigenvalues[0]
                                  and b.eigenvalues[-1] <= hi + 1e-9):
            gersch_ok = False
    # block non-mixing: no nonzero term connects different conserved labels
    lat = conserved_lattice(m)
    rng = random.Random(9)
    mixing_ok = True
    for _ in range(200):
        f = (rng.randrange(0, 12), rng.randrange(0, 8), rng.randrange(0, 4))
        for t in m.terms:
            if t.coeff == 0.0 or t.kind == "dunham":
                continue
            for g, _amp in apply_term(t, f, m.spec):
                if state_label(g, lat) != state_label(f, lat):
                    mixing_ok = False
    elapsed = time.perf_counter() - t0
    ok = (herm_worst < 1e-12 and trace_worst < 1e-10 and gersch_ok
          and mixing_ok and elapsed < 10.0)
    _verdict("full model to 38 quanta: symmetric, traced, contained, blocked",
             ok, elapsed,
             f"{len(blocks)} blocks, herm {herm_worst:.1e}, trace {trace_worst:.1e}")
    assert herm_worst < 1e-12
    assert trace_worst < 1e-10
    assert gersch_ok and mixing_ok
    assert elapsed < 10.0


def test_10_weak_coupling_second_order_shift():
    t0 = time.perf_counter()
    spec = ResonanceSpec(n=2, p=2, q=1)
    e1, e2 = 700.0, 1500.0
    gap = abs(2 * e1 - e2)
    base = (
        TermSpec("dunham", (0, 0), (0, 0), num_exps=(1, 0), coeff=e1),
        TermSpec("dunham", (0, 0), (0, 0), num_exps=(0, 1), coeff=e2),
    )
    worst = 0.0
    for scale in (1e-3, 1e-2):
        c = scale * gap
        m = HamiltonianModel(spec=spec, order=10, terms=base + (
            coupling_term(spec, 1, (0, 0), coeff=c),))
        lo, hi = build_block(m, (2,), [20, 10]).eigenvalues
        v2 = 2.0 * c * c  # squared off-diagonal element sqrt(2) c
        for got, predicted in ((lo, 2 * e1 - v2 / gap), (hi, e2 + v2 / gap)):
            err = abs(got - predicted)
            # fourth-order remainder of the exact 2x2 expansion
            assert err <= 2.0 * v2 * v2 / gap ** 3, (scale, err)
            worst = max(worst, err / (v2 * v2 / gap ** 3))
    elapsed = time.perf_counter() - t0
    _verdict("weak coupling matches second-order shifts", True, elapsed,
             f"remainder within {worst:.2f} of the fourth-order scale")

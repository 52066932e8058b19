"""Fock-space operator application, block assembly and the worked model."""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyads.cli import main as cli_main
from polyads.counting import totals
from polyads import quantum
from polyads.model import (
    HamiltonianModel,
    TermSpec,
    census_terms,
    cloh_model,
    coupling_term,
    parse_model_text,
    serialize_model,
)
from polyads.quantum import (
    MAX_BOX_STATES,
    PolyadBlock,
    apply_term,
    build_block,
    conserved_lattice,
    dunham_energy,
    polyad_lattice,
    raising_branch,
    spectrum,
    state_label,
    write_spectrum_csv,
    write_spectrum_json,
)
from polyads.resonance import ResonanceSpec

SPEC21 = ResonanceSpec(n=3, p=2, q=1)
SPEC21_2 = ResonanceSpec(n=2, p=2, q=1)
FIXTURE = Path(quantum.__file__).parent / "data" / "cloh.model"


def _shift_model(shifts):
    """A model with one extra ladder pair per occupation shift."""
    terms = tuple(TermSpec(kind="extra", raise_exps=tuple(max(x, 0) for x in s),
                           lower_exps=tuple(max(-x, 0) for x in s),
                           num_exps=(0,) * len(s), coeff=1.0)
                  for s in shifts)
    return HamiltonianModel(spec=ResonanceSpec(n=len(shifts[0]), p=1, q=1),
                            order=99, terms=terms)


def fermi(coeff=1.0, num_exps=(0, 0, 0)):
    return coupling_term(SPEC21, 1, num_exps, coeff)


def number_string(num_exps, coeff=0.0, coeff_text=None):
    zero = (0,) * len(num_exps)
    return TermSpec("dunham", zero, zero, num_exps, coeff, coeff_text)


class TestTermSpec:
    def test_dunham_needs_a_number_operator(self):
        with pytest.raises(ValueError):
            number_string((0, 0, 0))
        number_string((0, 1, 0))

    def test_dunham_rejects_ladder_parts(self):
        with pytest.raises(ValueError, match="pure number strings"):
            TermSpec(kind="dunham", raise_exps=(2, 0), lower_exps=(0, 1), num_exps=(1, 0))
        with pytest.raises(ValueError, match="pure number strings"):
            TermSpec(kind="dunham", raise_exps=(1, 0), lower_exps=(0, 0), num_exps=(1, 0))

    def test_coupling_needs_positive_mixed_power(self):
        with pytest.raises(ValueError):
            TermSpec(kind="coupling", raise_exps=(0, 0, 0), lower_exps=(0, 0, 0),
                     num_exps=(1, 0, 0))
        with pytest.raises(ValueError, match="ladder power must be positive"):
            coupling_term(SPEC21, 0, (1, 0, 0))
        fermi(num_exps=(1, 0, 0))

    def test_extra_needs_distinct_ladders(self):
        TermSpec(kind="extra", raise_exps=(0, 0, 1), lower_exps=(0, 3, 0), num_exps=(0, 0, 0))
        with pytest.raises(ValueError):
            TermSpec(kind="extra", raise_exps=(0, 1, 0), lower_exps=(0, 1, 0),
                     num_exps=(0, 0, 0))
        with pytest.raises(ValueError):
            TermSpec(kind="extra", raise_exps=(0, 1, 0), lower_exps=(), num_exps=(0, 0, 0))
        with pytest.raises(ValueError):
            TermSpec(kind="extra", raise_exps=(0, -1, 0), lower_exps=(1, 0, 0),
                     num_exps=(0, 0, 0))

    def test_extra_carries_no_number_string(self):
        with pytest.raises(ValueError, match="only ladder vectors"):
            TermSpec(kind="extra", raise_exps=(0, 0, 1), lower_exps=(0, 3, 0),
                     num_exps=(1, 0, 0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TermSpec(kind="quartic", raise_exps=(0, 0), lower_exps=(0, 0), num_exps=(1, 0))

    def test_shift_and_degree_read_the_ladder(self):
        assert fermi(num_exps=(0, 0, 2)).shift == (2, -1, 0)
        assert fermi(num_exps=(0, 0, 2)).degree == 3 + 4
        t = coupling_term(ResonanceSpec(n=2, p=3, q=2), 2, (1, 0))
        assert (t.raise_exps, t.lower_exps, t.shift, t.degree) == ((6, 0), (0, 4), (6, -4), 12)
        assert number_string((1, 2, 0)).shift == (0, 0, 0)
        assert number_string((1, 2, 0)).degree == 6
        extra = TermSpec("extra", (0, 0, 1), (0, 3, 0), (0, 0, 0))
        assert (extra.shift, extra.degree) == ((0, -3, 1), 4)

    def test_coeff_str_prefers_source_text(self):
        t = number_string((1,), coeff=-7.123, coeff_text="-7.123")
        assert t.coeff_str() == "-7.123"
        bare = number_string((1,), coeff=0.5)
        assert float(bare.coeff_str()) == 0.5


class TestModel:
    def test_rejects_duplicate_keys(self):
        t = number_string((1, 0, 0), coeff=1.0)
        with pytest.raises(ValueError):
            HamiltonianModel(spec=SPEC21, order=10, terms=(t, t))

    def test_rejects_wrong_vector_length(self):
        t = number_string((1, 0), coeff=1.0)
        with pytest.raises(ValueError):
            HamiltonianModel(spec=SPEC21, order=10, terms=(t,))

    @pytest.mark.parametrize("term", [
        number_string((2, 1, 0), coeff=1.0),
        coupling_term(SPEC21, 2, (0, 0, 1), coeff=1.0),
        TermSpec("extra", (0, 0, 2), (0, 4, 0), (0, 0, 0), coeff=1.0),
    ], ids=["dunham", "coupling", "extra"])
    def test_rejects_degree_over_order(self, term):
        # degrees 6, 8 and 6: each one over order 5, as the file parser rejects
        with pytest.raises(ValueError, match="over order 5"):
            HamiltonianModel(spec=SPEC21, order=5, terms=(term,))
        HamiltonianModel(spec=SPEC21, order=term.degree, terms=(term,))

    @pytest.mark.parametrize("raise_exps,lower_exps", [
        ((3, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)), ((2, 0, 0), (0, 1, 1)),
        ((0, 2, 0), (1, 0, 0)),
    ])
    def test_rejects_coupling_off_the_resonance_ladder(self, raise_exps, lower_exps):
        t = TermSpec("coupling", raise_exps, lower_exps, (0, 0, 0), coeff=1.0)
        with pytest.raises(ValueError, match="no power of the 2:1 ladder"):
            HamiltonianModel(spec=SPEC21, order=10, terms=(t,))

    def test_counts_and_split(self):
        m = cloh_model()
        assert m.slot_count() == 86
        assert m.nonzero_count() == 28
        assert m.operator_count() == 117
        assert len(m.dunham_terms()) + len(m.off_diagonal_terms()) \
            == m.slot_count()

    def test_without_couplings_keeps_slots(self):
        m = cloh_model().without_couplings()
        assert m.slot_count() == 86
        assert all(t.coeff == 0.0 for t in m.off_diagonal_terms())
        assert m.dunham_terms() == cloh_model().dunham_terms()


class TestApplyTerm:
    def test_number_operator_square(self):
        t = number_string((2, 0, 0), coeff=1.0)
        out = apply_term(t, (3, 0, 0), SPEC21)
        assert out == [((3, 0, 0), 9.0)]

    def test_number_operator_on_vacuum(self):
        t = number_string((1, 1, 0), coeff=1.0)
        assert apply_term(t, (0, 0, 0), SPEC21) == []

    def test_fermi_pair_on_two_quanta(self):
        # a2+ a1^2 + a1+^2 a2 acting on |2,0,0>: only the raising branch
        # survives, amplitude sqrt(2!)
        out = apply_term(fermi(), (2, 0, 0), SPEC21)
        assert len(out) == 1
        (target, amp), = out
        assert target == (0, 1, 0)
        assert amp == pytest.approx(math.sqrt(2.0))

    def test_fermi_pair_on_one_excitation(self):
        out = apply_term(fermi(), (0, 1, 0), SPEC21)
        assert len(out) == 1
        (target, amp), = out
        assert target == (2, 0, 0)
        assert amp == pytest.approx(math.sqrt(2.0))

    def test_fermi_pair_on_vacuum(self):
        assert apply_term(fermi(), (0, 0, 0), SPEC21) == []

    def test_both_branches_fire_in_the_middle(self):
        out = dict(apply_term(fermi(), (2, 1, 0), SPEC21))
        assert set(out) == {(0, 2, 0), (4, 0, 0)}
        assert out[(0, 2, 0)] == pytest.approx(math.sqrt(2) * math.sqrt(2))
        assert out[(4, 0, 0)] == pytest.approx(math.sqrt(4 * 3))

    def test_amplitudes_rebuild_from_repeated_single_ladders(self):
        # oracle: a+^2 a applied one quantum at a time
        def one_raise(f, k):
            g = list(f)
            g[k] += 1
            return tuple(g), math.sqrt(g[k])

        def one_lower(f, k):
            if f[k] == 0:
                return None
            g = list(f)
            g[k] -= 1
            return tuple(g), math.sqrt(f[k])

        f = (3, 2, 0)
        step = one_lower(f, 0)
        assert step is not None
        g, amp = step
        step = one_lower(g, 0)
        g, a2 = step
        amp *= a2
        g2, a3 = one_raise(g, 1)
        amp *= a3
        out = dict(apply_term(fermi(), f, SPEC21))
        assert out[g2] == pytest.approx(amp)

    def test_number_string_weighs_incoming_state_on_raising_branch(self):
        t = fermi(num_exps=(0, 0, 1))
        out = dict(apply_term(t, (2, 0, 3), SPEC21))
        assert out[(0, 1, 3)] == pytest.approx(math.sqrt(2) * 3.0)

    def test_number_string_weighs_outgoing_state_on_conjugate_branch(self):
        # transpose image of the raising branch above
        t = fermi(num_exps=(0, 0, 1))
        out = dict(apply_term(t, (0, 1, 3), SPEC21))
        assert out[(2, 0, 3)] == pytest.approx(math.sqrt(2) * 3.0)

    def test_number_string_zero_kills_branch(self):
        t = fermi(num_exps=(1, 0, 0))
        # incoming state has n1 = 0, raising branch gone; outgoing state of
        # the conjugate branch has n1 = 0 too
        assert apply_term(t, (0, 1, 0), SPEC21) == []

    def test_transpose_symmetry(self):
        rng = random.Random(3)
        m = cloh_model()
        for t in m.off_diagonal_terms():
            if t.coeff == 0.0:
                continue
            for _ in range(6):
                f = tuple(rng.randrange(0, 5) for _ in range(3))
                for g, amp in apply_term(t, f, SPEC21):
                    back = dict(apply_term(t, g, SPEC21))
                    assert back[f] == pytest.approx(amp, rel=1e-12)

    def test_extra_pair(self):
        t = TermSpec(kind="extra", raise_exps=(0, 0, 1), lower_exps=(0, 3, 0),
                     num_exps=(0, 0, 0), coeff=1.0)
        out = dict(apply_term(t, (0, 3, 0), SPEC21))
        assert out[(0, 0, 1)] == pytest.approx(math.sqrt(6.0))
        back = dict(apply_term(t, (0, 0, 1), SPEC21))
        assert back[(0, 3, 0)] == pytest.approx(math.sqrt(6.0))

    def test_raising_branch_shift(self):
        t = fermi()
        assert t.shift == (2, -1, 0)
        got = raising_branch(t, (0, 1, 0), SPEC21)
        assert got is not None and got[0] == (2, 0, 0)


class TestLattices:
    def test_polyad_lattice_shape(self):
        lat = polyad_lattice(SPEC21)
        assert lat[0] == (1, 2, 0)
        assert lat[1] == (0, 0, 1)
        assert len(lat) == 2

    def test_fermi_only_lattice(self):
        m = cloh_model()
        fermi_only = replace(
            m, terms=tuple(t if t.kind != "extra" else replace(t, coeff=0.0, coeff_text="0")
                           for t in m.terms))
        assert conserved_lattice(fermi_only) == [(1, 2, 0), (0, 0, 1)]

    def test_full_model_lattice_merges_modes(self):
        assert conserved_lattice(cloh_model()) == [(1, 2, 6)]

    def test_diagonal_model_keeps_every_action(self):
        m = cloh_model().without_couplings()
        assert conserved_lattice(m) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_lattice_annihilates_every_shift(self):
        m = cloh_model()
        lat = conserved_lattice(m)
        for t in m.off_diagonal_terms():
            if t.coeff == 0.0:
                continue
            s = t.shift
            for v in lat:
                assert sum(a * b for a, b in zip(v, s)) == 0

    def test_state_label(self):
        lat = [(1, 2, 0), (0, 0, 1)]
        assert state_label((3, 1, 2), lat) == (5, 2)

    def test_lattice_is_saturated(self):
        # the kernel of (2,-1,-1) holds (1,1,1), which the index-2
        # sublattice spanned by (1,2,0) and (1,0,2) misses
        lat = conserved_lattice(_shift_model([(2, -1, -1)]))
        assert lat == [(1, 0, 2), (0, 1, -1)]
        assert tuple(a + b for a, b in zip(*lat)) == (1, 1, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=2, max_value=5).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(min_value=-3, max_value=3)] * n).filter(any),
        min_size=1, max_size=3, unique=True)))
    def test_lattice_is_hermite_z_basis_of_kernel(self, shifts):
        from sympy import Matrix, gcd

        n = len(shifts[0])
        lat = conserved_lattice(_shift_model(shifts))
        assert all(sum(a * b for a, b in zip(v, s)) == 0 for v in lat for s in shifts)
        null = Matrix(shifts).nullspace()
        assert len(lat) == n - Matrix(shifts).rank() == len(null)
        if not lat:
            return
        # same rational span as sympy's nullspace
        both = Matrix.vstack(Matrix(lat), *(v.T for v in null))
        assert Matrix(lat).rank() == both.rank() == len(lat)
        # saturated: the maximal minors have no common factor
        minors = [Matrix([[v[c] for c in cols] for v in lat]).det()
                  for cols in itertools.combinations(range(n), len(lat))]
        assert gcd(minors) == 1
        # row Hermite normal form
        pivots = [next(j for j, x in enumerate(v) if x) for v in lat]
        assert pivots == sorted(set(pivots))
        for i, (v, c) in enumerate(zip(lat, pivots)):
            assert v[c] > 0
            assert all(0 <= above[c] < v[c] for above in lat[:i])

    def test_runtime_path_needs_no_sympy(self):
        code = ("import sys; sys.modules['sympy'] = None\n"
                "from polyads.model import cloh_model\n"
                "from polyads.quantum import conserved_lattice\n"
                "assert conserved_lattice(cloh_model()) == [(1, 2, 6)]\n"
                "from polyads.cli import main\n"
                f"sys.exit(main(['spectrum', '--model', {str(FIXTURE)!r},"
                " '--pmax', '10', '--n3max', '1']))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(quantum.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("P,n3,index,energy_cm1\n")
        assert proc.stderr == "blocks 22 levels 72\n"


class TestBlocks:
    def test_vacuum_block(self):
        m = cloh_model()
        b = build_block(m, (0, 0), [40, 20, 8])
        assert b.basis == ((0, 0, 0),)
        assert list(b.eigenvalues) == [0.0]

    def test_small_fermi_block(self):
        m = cloh_model()
        b = build_block(m, (2, 0), [40, 20, 8])
        assert b.basis == ((0, 1, 0), (2, 0, 0))
        assert b.matrix.shape == (2, 2)
        assert b.matrix[0, 1] == b.matrix[1, 0]

    def test_block_sizes_follow_polyad(self):
        m = cloh_model()
        lat = polyad_lattice(SPEC21)
        for P in range(0, 12):
            b = build_block(m, (P, 0), [40, 20, 8], lattice=lat)
            assert len(b.basis) == P // 2 + 1

    def test_basis_is_lexicographic(self):
        m = cloh_model()
        b = build_block(m, (6, 1), [40, 20, 8])
        assert list(b.basis) == sorted(b.basis)

    def test_empty_label_raises(self):
        m = cloh_model()
        with pytest.raises(ValueError):
            build_block(m, (1, 0), [0, 0, 0])

    def test_cap_length_mismatch(self):
        m = cloh_model()
        with pytest.raises(ValueError):
            build_block(m, (2, 0), [40, 20])

    def test_matrix_is_symmetric(self):
        m = cloh_model()
        for label in [(8, 0), (9, 1), (13, 2)]:
            b = build_block(m, label, [40, 20, 8])
            assert np.max(np.abs(b.matrix - b.matrix.T)) < 1e-12

    def test_matrix_matches_apply_term_columns(self):
        m = cloh_model()
        b = build_block(m, (7, 1), [40, 20, 8])
        index = {f: i for i, f in enumerate(b.basis)}
        rebuilt = np.zeros_like(b.matrix)
        for j, f in enumerate(b.basis):
            for t in m.terms:
                if t.coeff == 0.0:
                    continue
                for g, amp in apply_term(t, f, m.spec):
                    if g in index:
                        rebuilt[index[g], j] += t.coeff * amp
        assert np.max(np.abs(rebuilt - b.matrix)) < 1e-10

    def test_eigenvalues_of_two_by_two(self):
        m = cloh_model()
        b = build_block(m, (2, 0), [40, 20, 8])
        a, d = b.matrix[0, 0], b.matrix[1, 1]
        c = b.matrix[0, 1]
        disc = math.hypot((a - d) / 2, c)
        lo, hi = (a + d) / 2 - disc, (a + d) / 2 + disc
        got = b.eigenvalues
        assert got[0] == pytest.approx(lo, rel=1e-12)
        assert got[1] == pytest.approx(hi, rel=1e-12)

    def test_gerschgorin_containment(self):
        m = cloh_model()
        b = build_block(m, (14, 2), [40, 20, 8])
        radii = np.sum(np.abs(b.matrix), axis=1) - np.abs(np.diag(b.matrix))
        lo = float(np.min(np.diag(b.matrix) - radii))
        hi = float(np.max(np.diag(b.matrix) + radii))
        for e in b.eigenvalues:
            assert lo - 1e-9 <= e <= hi + 1e-9


class TestDunhamEnergy:
    def test_vacuum_is_zero(self):
        assert dunham_energy((0, 0, 0), cloh_model()) == 0.0

    def test_single_quantum_levels(self):
        m = cloh_model()
        assert dunham_energy((1, 0, 0), m) == pytest.approx(746.79179, abs=1e-5)
        # every pure mode-2 power contributes 1 at n2 = 1
        e2 = 1258.914 + 3.204 - 0.04117 + 0.00151
        assert dunham_energy((0, 1, 0), m) == pytest.approx(e2, abs=1e-9)

    def test_matches_diagonal_matrix_entry(self):
        m = cloh_model()
        b = build_block(m, (9, 1), [40, 20, 8])
        for i, f in enumerate(b.basis):
            assert b.matrix[i, i] == pytest.approx(dunham_energy(f, m),
                                                   rel=1e-12)

    def test_diagonal_model_spectrum_is_dunham(self):
        m = cloh_model().without_couplings()
        for label in [(4, 0), (7, 1)]:
            b = build_block(m, label, [40, 20, 8])
            expect = sorted(dunham_energy(f, m) for f in b.basis)
            got = b.eigenvalues
            for x, y in zip(got, expect):
                assert x == pytest.approx(y, rel=1e-12)


class TestCensus:
    @pytest.mark.parametrize("n,N,p,q", [
        (3, 10, 2, 1), (2, 10, 1, 1), (2, 8, 3, 2), (4, 12, 2, 1),
    ])
    def test_census_matches_counting(self, n, N, p, q):
        spec = ResonanceSpec(n=n, p=p, q=q)
        terms = census_terms(spec, N)
        rep = totals(n, N, p, q)
        assert len(terms) == rep.n_coef
        pairs = sum(1 for t in terms if t.kind == "coupling")
        assert len(terms) + pairs == rep.n_op

    def test_census_degree_caps(self):
        spec = ResonanceSpec(n=3, p=2, q=1)
        for t in census_terms(spec, 10):
            if t.kind == "dunham":
                assert 1 <= sum(t.num_exps) <= 5
            else:
                m = t.raise_exps[0] // spec.p
                assert t.degree == 3 * m + 2 * sum(t.num_exps) <= 10

    def test_worked_model_operator_count(self):
        # 85 census slots + 1 extra pair; 115 census operators + 2
        m = cloh_model()
        assert m.slot_count() == 85 + 1
        assert m.operator_count() == 115 + 2


class TestSpectrum:
    def test_small_run_level_count(self):
        blocks, rows = spectrum(cloh_model(), pmax=4, n3max=0)
        assert len(blocks) == 5
        assert len(rows) == sum(P // 2 + 1 for P in range(5))
        assert rows[0] == (0, 0, 0, pytest.approx(0.0, abs=1e-12))

    def test_level_count_formula(self):
        pmax, n3max = 7, 2
        blocks, rows = spectrum(cloh_model(), pmax=pmax, n3max=n3max)
        expect = sum(P // 2 + 1 for P in range(pmax + 1)) * (n3max + 1)
        assert len(rows) == expect

    def test_rows_are_sorted_within_blocks(self):
        _, rows = spectrum(cloh_model(), pmax=6, n3max=1)
        by_block: dict[tuple[int, int], list[float]] = {}
        for P, n3, idx, e in rows:
            by_block.setdefault((P, n3), []).append(e)
        for energies in by_block.values():
            assert energies == sorted(energies)

    def test_zero_pmax(self):
        blocks, rows = spectrum(cloh_model(), pmax=0, n3max=0)
        assert len(rows) == 1 and rows[0][3] == pytest.approx(0.0, abs=1e-12)

    def test_csv_format(self, tmp_path):
        _, rows = spectrum(cloh_model(), pmax=4, n3max=0)
        out = tmp_path / "levels.csv"
        with open(out, "w") as fh:
            count = write_spectrum_csv(fh, rows)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "P,n3,index,energy_cm1"
        assert count == len(rows) == len(lines) - 1
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "0"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                              st.integers(0, 10 ** 6),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=8))
    @example([])
    @example([(0, 0, 0, -0.0), (1, 0, 0, 0.0), (2, 0, 0, 5e-324), (2, 0, 1, -2.2e-308)])
    @example([(3, 1, 0, 1e300), (3, 1, 1, -1e300), (4, 7, 2, 2.0), (5, 0, 0, -1754.0)])
    def test_json_writer_is_the_stdlib_text(self, rows):
        payload = [{"P": P, "n3": n3, "index": idx, "energy_cm1": energy}
                   for P, n3, idx, energy in rows]
        out = io.StringIO()
        assert write_spectrum_json(out, rows) == len(rows)
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("lines", [
        ["omega 1 1e308", "omega 2 1e308"],
        ["dunham 1:2 1e308"],
    ], ids=["omega", "dunham"])
    def test_non_finite_block_is_rejected(self, lines):
        # the (2,) block overflows to inf; the (1,) block stays finite
        model = parse_model_text("\n".join(["n=2", "p=2", "q=1", "order=4", *lines]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectrum(model, pmax=1, n3max=0)[0][1].eigenvalues[0] == 1e308
            with pytest.raises(ValueError, match=r"^block \(2,\) has matrix entries"):
                spectrum(model, pmax=2, n3max=0)

    def test_seeded_two_mode_json_digest_pinned(self, capsys, tmp_path):
        # every slot of the 2:1 order-12 census at P <= 160, the spectrum-2mode
        # shape: the m = 4 ladder passes 2**63 and takes Python ints
        model_file = tmp_path / "seeded.model"
        model_file.write_text(serialize_model(_seeded_model(SPEC21_2, 12, seed=5)))
        out_file = tmp_path / "levels.json"
        assert cli_main(["spectrum", "--model", str(model_file), "--pmax", "160",
                         "--format", "json", "--out", str(out_file)]) == 0
        assert capsys.readouterr().out == "blocks 161 levels 6561\n"
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
            "96a525f4313ea86ab35f0e814d5e199cbd12448810e1a3a93488d3c9a4dce684"

    def test_determinism(self):
        a = spectrum(cloh_model(), pmax=6, n3max=1)[1]
        b = spectrum(cloh_model(), pmax=6, n3max=1)[1]
        assert a == b


class TestPerturbativeLimit:
    def test_weak_coupling_matches_second_order_shift(self):
        # two uncoupled levels 2 E1 and E2 with gap 100, bridged by the
        # resonance pair; second-order theory is exact through O(c^2)
        spec = ResonanceSpec(n=2, p=2, q=1)
        e1, e2 = 700.0, 1500.0
        gap = abs(2 * e1 - e2)
        base = (
            number_string((1, 0), coeff=e1),
            number_string((0, 1), coeff=e2),
        )
        for c in (1e-3 * gap, 1e-2 * gap):
            terms = base + (coupling_term(spec, 1, (0, 0), coeff=c),)
            m = HamiltonianModel(spec=spec, order=10, terms=terms)
            b = build_block(m, (2,), [20, 10])
            lo, hi = b.eigenvalues
            v2 = 2.0 * c * c  # off-diagonal element is sqrt(2) c
            assert lo == pytest.approx(2 * e1 - v2 / gap, abs=8 * v2 * v2 / gap ** 3)
            assert hi == pytest.approx(e2 + v2 / gap, abs=8 * v2 * v2 / gap ** 3)


# -- slow oracle: the per-state scan and assembly --------------------------


def _reference_block(model, label, caps, lattice=None):
    """Basis and matrix from a scan of the whole caps box, state by state,
    applying every term to one state at a time: the assembly that
    build_block vectorises, kept as its reference."""
    spec = model.spec
    n = spec.n
    if lattice is None:
        lattice = polyad_lattice(spec)
    label = tuple(label)
    states = []

    def rec(prefix):
        if len(prefix) == n:
            if state_label(prefix, lattice) == label:
                states.append(prefix)
            return
        for occ in range(caps[len(prefix)] + 1):
            rec(prefix + (occ,))

    def number_factor(f, exps):
        out = 1.0
        for n_k, r in zip(f, exps):
            if r:
                out *= float(n_k) ** r
        return out

    rec(())
    index = {f: i for i, f in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for i, f in enumerate(states):
        for t in model.terms:
            if t.coeff == 0.0:
                continue
            if t.kind == "dunham":
                mat[i, i] += t.coeff * number_factor(f, t.num_exps)
                continue
            up = raising_branch(t, f, spec)
            if up is None:
                continue
            target, amp = up
            j = index.get(target)
            if j is None:
                continue
            mat[j, i] += t.coeff * amp
            mat[i, j] += t.coeff * amp
    return tuple(states), mat


def _assert_matches_reference(model, label, caps, lattice=None):
    states, mat = _reference_block(model, label, caps, lattice)
    block = build_block(model, label, caps, lattice)
    assert block.basis == states
    assert np.array_equal(block.matrix, mat)
    assert np.array_equal(np.array(block.eigenvalues), np.linalg.eigvalsh(mat))


def _seeded_model(spec, order, seed, extras=()):
    """Extra ladder pairs, then every census slot of ``spec`` at ``order``,
    all with seeded nonzero coefficients. Listing the extras first makes an
    element fed by an extra pair and by couplings of the opposite shift sum
    in an order that differs from term order."""
    rng = random.Random(seed)
    terms = []
    for raise_v, lower_v in extras:
        value = rng.uniform(-1.0, 1.0)
        terms.append(TermSpec(kind="extra", raise_exps=raise_v, lower_exps=lower_v,
                              num_exps=(0,) * spec.n, coeff=value, coeff_text=repr(value)))
    for slot in census_terms(spec, order):
        degree = sum(slot.num_exps) + slot.raise_exps[0] // spec.p
        value = rng.uniform(-1.0, 1.0) * 10.0 ** (3 - degree)
        terms.append(replace(slot, coeff=value, coeff_text=repr(value)))
    return HamiltonianModel(spec=spec, order=order, terms=tuple(terms))


class TestBuildBlockOracle:
    def test_worked_model_spectrum_blocks(self):
        m = cloh_model()
        for P in range(0, 25):
            for n3 in range(0, 4):
                _assert_matches_reference(m, (P, n3), (P, P // 2, n3))

    def test_worked_model_wide_caps(self):
        m = cloh_model()
        for label in [(0, 0), (9, 1), (14, 2), (21, 3)]:
            _assert_matches_reference(m, label, (40, 20, 8))

    def test_seeded_two_mode_order_12(self):
        m = _seeded_model(ResonanceSpec(n=2, p=2, q=1), 12, seed=5)
        assert all(t.coeff != 0.0 for t in m.terms)
        for P in range(0, 61, 3):
            _assert_matches_reference(m, (P,), (P, P // 2))

    def test_four_modes(self):
        spec = ResonanceSpec(n=4, p=2, q=1)
        m = _seeded_model(spec, 8, seed=9, extras=[((0, 0, 1, 0), (0, 0, 0, 1))])
        # the extra pair moves a quantum from mode 4 to mode 3, so blocks
        # labelled by the polyad lattice drop it; a merged lattice keeps it
        merged = [(1, 2, 0, 0), (0, 0, 1, 1)]
        for P in range(0, 9):
            for n3 in range(0, 3):
                _assert_matches_reference(m, (P, n3, 1), (P, P // 2, n3, 1))
                _assert_matches_reference(m, (P, n3), (P, P // 2, n3, n3), merged)

    def test_extra_opposite_to_coupling(self):
        # the extra pair lowers mode 1 by 2 and raises mode 2 by 1: the
        # reverse of the Fermi shift, so both write the same elements
        m = _seeded_model(SPEC21, 10, seed=2,
                          extras=[((0, 1, 0), (2, 0, 0)), ((0, 2, 0), (4, 0, 0))])
        shifts = {t.shift for t in m.off_diagonal_terms()}
        assert {(2, -1, 0), (-2, 1, 0)} <= shifts
        for P in range(0, 20, 2):
            _assert_matches_reference(m, (P, 1), (P, P // 2, 1))

    def test_tight_caps_clip_targets(self):
        m = cloh_model()
        for caps in [(8, 2, 1), (3, 4, 1), (0, 6, 2), (5, 1, 0)]:
            for P in range(0, 13):
                for n3 in range(0, caps[2] + 1):
                    if _reference_block(m, (P, n3), caps)[0]:
                        _assert_matches_reference(m, (P, n3), caps)
                    else:
                        with pytest.raises(ValueError, match="no basis states"):
                            build_block(m, (P, n3), caps)

    def test_clipped_target_on_a_basis_key(self):
        # 1:1 with mode 2 capped at c: the clipped image (n1 - 1, c + 1)
        # of (n1, c) has the box key of (n1, 0) and the same label
        m = _seeded_model(ResonanceSpec(n=2, p=1, q=1), 6, seed=8,
                          extras=[((0, 1), (1, 0))])
        for P in range(1, 10):
            for cap2 in range(0, 3):
                _assert_matches_reference(m, (P,), (P, cap2))

    def test_vanishing_number_strings(self):
        # n3 = 0 zeroes every coupling carrying a mode-3 number factor and
        # the dunham terms on mode 3; n1 = 0 states zero the n1 strings
        m = _seeded_model(SPEC21, 10, seed=4)
        for P in range(0, 16):
            _assert_matches_reference(m, (P, 0), (P, P // 2, 0))
        _assert_matches_reference(m, (1, 2), (1, 0, 2))

    def test_conserved_lattice_labels(self):
        m = cloh_model()
        lattice = conserved_lattice(m)
        assert lattice == [(1, 2, 6)]
        for L in range(0, 31):
            _assert_matches_reference(m, (L,), (L, L // 2, L // 6), lattice)

    def test_amplitudes_beyond_int64(self):
        # falling times rising products pass 2**63 at these occupations
        spec = ResonanceSpec(n=2, p=2, q=1)
        m = HamiltonianModel(spec=spec, order=12, terms=(
            coupling_term(spec, 4, (0, 0), coeff=1e-9),))
        assert (m.terms[0].raise_exps, m.terms[0].lower_exps) == ((8, 0), (0, 4))
        _assert_matches_reference(m, (160,), (160, 80))

    @pytest.mark.parametrize("m, P, caps, above, below", [
        (3, 160, (160, 80), 2 ** 53, 2 ** 63),
        (4, 136, (36, 54), 2 ** 63, 2 ** 64),
    ], ids=["int64", "past-int64"])
    def test_amplitudes_at_the_int64_edge(self, m, P, caps, above, below):
        # the largest squared amplitude of the block, and the product of the
        # per-mode maxima over the caps that picks the integer type, lie
        # past exact float range but within int64, then just past int64
        model = HamiltonianModel(spec=SPEC21_2, order=12, terms=(
            coupling_term(SPEC21_2, m, (0, 0), coeff=1e-9),))
        basis = build_block(model, (P,), caps).basis
        largest = max(math.perm(n1 + 2 * m, 2 * m) * math.perm(n2, m)
                      for n1, n2 in basis if n2 >= m and n1 + 2 * m <= caps[0])
        maxima = math.perm(caps[0], 2 * m) * math.perm(caps[1], m)
        assert above < largest <= maxima < below
        _assert_matches_reference(model, (P,), caps)

    def test_amplitude_past_float_range_is_rejected(self):
        model = HamiltonianModel(spec=SPEC21_2, order=180, terms=(
            coupling_term(SPEC21_2, 60, (0, 0), coeff=1e-300),))
        build_block(model, (144,), (144, 72))
        with pytest.raises(ValueError, match="ladder amplitude past the float range"):
            build_block(model, (146,), (146, 73))

    def test_ladder_tables_built_once_per_call_and_key(self, monkeypatch):
        # the spectrum-2mode shape: 29 off-diagonal terms over two ladder
        # modes share 8 distinct (low, high, dim) tables
        calls = []
        real = quantum._ladder_table
        monkeypatch.setattr(quantum, "_ladder_table",
                            lambda *key: calls.append(key) or real(*key))
        model = _seeded_model(SPEC21_2, 12, seed=5)
        spectrum(model, 160, 0)
        assert len(calls) == len(set(calls)) == 8
        spectrum(model, 160, 0)
        assert len(calls) == 16  # the tables live for one call only

    def test_empty_lattice_is_one_block(self):
        m = _seeded_model(ResonanceSpec(n=2, p=1, q=1), 4, seed=3)
        block = build_block(m, (), (2, 3), lattice=[])
        assert block.basis == tuple(itertools.product(range(3), range(4)))
        _assert_matches_reference(m, (), (2, 3), lattice=[])

    def test_spectrum_blocks_match_build_block(self):
        # spectrum cuts every block from one box over the caps of the run;
        # build_block cuts its one block from the caps of that block
        m = cloh_model()
        blocks, _ = spectrum(m, 44, 7)
        assert len(blocks) == 45 * 8
        for b in blocks:
            P, n3 = b.label
            ref = build_block(m, b.label, (P, P // 2, n3))
            assert np.array_equal(b.basis, ref.basis)
            assert np.array_equal(b.matrix, ref.matrix)
        # extras opposite to the Fermi shift, listed before the couplings:
        # every block of one call sums its elements in the per-state order
        m = _seeded_model(SPEC21, 10, seed=2,
                          extras=[((0, 1, 0), (2, 0, 0)), ((0, 2, 0), (4, 0, 0))])
        blocks, _ = spectrum(m, 18, 2)
        assert len(blocks) == 19 * 3
        for b in blocks:
            P, n3 = b.label
            states, mat = _reference_block(m, b.label, (P, P // 2, n3))
            assert b.basis == states
            assert np.array_equal(b.matrix, mat)

    def test_spectrum_three_two_skips_empty_labels(self):
        # P = 2 n1 + 3 n2 is never 1: that label has no states and no block
        spec = ResonanceSpec(n=2, p=3, q=2)
        m = _seeded_model(spec, 10, seed=6)
        pmax = 20
        blocks, rows = spectrum(m, pmax, 0)
        reachable = sorted({2 * a + 3 * b for a in range(pmax // 2 + 1)
                            for b in range(pmax // 3 + 1) if 2 * a + 3 * b <= pmax})
        assert 1 not in reachable
        assert [b.label for b in blocks] == [(P,) for P in reachable]
        for b in blocks:
            P, = b.label
            states, mat = _reference_block(m, b.label, (P // 2, P // 3))
            assert b.basis == states
            assert np.array_equal(b.matrix, mat)
        assert [row[:3] for row in rows] == [(b.label[0], 0, i) for b in blocks
                                             for i in range(len(b.basis))]


class TestBoxGuard:
    class Allocated(Exception):
        pass

    @pytest.fixture
    def no_box(self, monkeypatch):
        def indices(*args, **kwargs):
            raise self.Allocated

        monkeypatch.setattr(quantum.np, "indices", indices)

    def test_oversized_caps_rejected_before_allocation(self, no_box):
        with pytest.raises(ValueError, match="candidate states"):
            build_block(cloh_model(), (0, 0), [MAX_BOX_STATES, 0, 0])
        with pytest.raises(ValueError, match="candidate states"):
            build_block(cloh_model(), (0, 0), [2 ** 30, 2 ** 30, 2 ** 30])
        with pytest.raises(ValueError, match="candidate states"):
            spectrum(cloh_model(), pmax=10 ** 6, n3max=7)

    def test_box_at_the_limit_is_allocated(self, no_box):
        with pytest.raises(self.Allocated):
            build_block(cloh_model(), (0, 0), [MAX_BOX_STATES - 1, 0, 0])

    def test_matrix_budget_rejected_before_assembly(self, monkeypatch):
        # the box at pmax 1500 fits, but its 1501 blocks hold 2.8e8 entries
        def eigvalsh(*args, **kwargs):
            raise self.Allocated

        monkeypatch.setattr(quantum.np.linalg, "eigvalsh", eigvalsh)
        with pytest.raises(ValueError, match="matrix entries"):
            spectrum(cloh_model(), pmax=1500, n3max=0)

    def test_matrix_budget_counts_every_block(self, monkeypatch):
        # block dimensions 1, 1, 2, 2, 3 at pmax 4: 19 entries in all
        monkeypatch.setattr(quantum, "MAX_MATRIX_ENTRIES", 19)
        assert len(spectrum(cloh_model(), pmax=4, n3max=0)[0]) == 5
        monkeypatch.setattr(quantum, "MAX_MATRIX_ENTRIES", 18)
        with pytest.raises(ValueError, match="19 matrix entries"):
            spectrum(cloh_model(), pmax=4, n3max=0)

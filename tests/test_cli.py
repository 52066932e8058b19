"""End-to-end command line checks and the model-file grammar."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyads
from polyads import resonance
from polyads.cli import main
from polyads.model import (
    HamiltonianModel,
    ModelFileError,
    TermSpec,
    census_terms,
    cloh_model,
    parse_model_file,
    parse_model_text,
    serialize_model,
)
from polyads.quantum import dunham_energy
from polyads.resonance import ResonanceSpec

FIXTURE = Path(polyads.__file__).parent / "data" / "cloh.model"
PACKAGE_ROOT = str(Path(polyads.__file__).parents[1])

MINIMAL = """\
n=2
p=2
q=1
order=6
omega 1 700.0
omega 2 1500.0
dunham 1:2 -3.5
coupling 1 - 0.1
"""


@st.composite
def census_models(draw):
    """A random subset of an order-N census with ladder powers up to 3, plus
    extra ladder pairs, every slot with its own coefficient text."""
    n = draw(st.integers(2, 4))
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, p).filter(lambda q: math.gcd(p, q) == 1))
    order = draw(st.integers(4, 12))
    spec = ResonanceSpec(n=n, p=p, q=q)
    slots = [t for t in census_terms(spec, order) if t.raise_exps[0] <= 3 * p]
    chosen = draw(st.lists(st.sampled_from(slots), max_size=12, unique=True))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    ladders = draw(st.lists(st.tuples(vector, vector).filter(
        lambda rl: rl[0] != rl[1] and sum(rl[0]) + sum(rl[1]) <= order),
        max_size=3, unique=True))
    extras = [TermSpec("extra", r, lo, (0,) * n) for r, lo in ladders]
    values = st.floats(allow_nan=False, allow_infinity=False)
    terms = []
    for t in draw(st.permutations(chosen + extras)):
        value = draw(values)
        terms.append(replace(t, coeff=value, coeff_text=repr(value)))
    return HamiltonianModel(spec=spec, order=order, terms=tuple(terms))


class TestModelGrammar:
    @settings(max_examples=200, deadline=None)
    @given(census_models())
    def test_census_models_round_trip(self, model):
        text = serialize_model(model)
        parsed = parse_model_text(text)
        assert parsed.terms == model.terms
        assert parsed == model
        assert serialize_model(parsed) == text

    def test_minimal_round_trip(self):
        m = parse_model_text(MINIMAL)
        assert m.spec.n == 2 and m.spec.p == 2 and m.spec.q == 1
        assert m.order == 6
        assert m.slot_count() == 4
        again = parse_model_text(serialize_model(m))
        assert again == m

    def test_serialized_text_is_stable(self):
        m = parse_model_text(MINIMAL)
        assert serialize_model(m) == serialize_model(parse_model_text(serialize_model(m)))

    def test_comments_and_blank_lines_ignored(self):
        text = "# hi\n\nn=2 # inline\np=1\nq=1\norder=4\nomega 1 1.0 # tail\n"
        m = parse_model_text(text)
        assert m.slot_count() == 1

    @pytest.mark.parametrize("text,line_no,needle", [
        ("omega 1 700.0\n", 1, "before header"),
        ("n=2\np=2\nq=1\nfoo=3\norder=6\nomega 1 1.0\n", 4, "unknown header"),
        ("n=2\np=2\nq=1\norder=6\nn=2\nomega 1 1.0\n", 5, "duplicate header"),
        ("n=2\np=2\nq=1\norder=6\nomega 1 1.0\nomega 1 2.0\n", 6, "duplicate term"),
        ("n=2\np=2\nq=1\norder=6\ndunham 1 2 0.5\n", 5, "expected"),
        ("n=2\np=2\nq=1\norder=6\ndunham 1;2 0.5\n", 5, "bad factor"),
        ("n=2\np=2\nq=1\norder=6\ndunham 3:1 0.5\n", 5, "outside"),
        ("n=2\np=2\nq=1\norder=6\ndunham 1:0 0.5\n", 5, "positive"),
        ("n=2\np=2\nq=1\norder=6\ndunham 1:1,1:2 0.5\n", 5, "repeated"),
        ("n=2\np=2\nq=1\norder=6\nquartic 1:1 0.5\n", 5, "unknown term kind"),
        ("n=2\np=2\nq=1\norder=6\ndunham 1:4 0.5\n", 5, "exceeds order"),
        ("n=2\np=2\nq=1\norder=6\ncoupling 3 - 0.5\n", 5, "exceeds order"),
        ("n=2\np=2\nq=1\norder=6\nomega 1 zero\n", 5, "bad coefficient"),
        ("n=2\np=2\nq=1\norder=6\nomega 1 inf\n", 5, "not finite"),
        ("n=2\np=2\nq=1\norder=2\nomega 1 1.0\n", 4, "at least 4"),
        ("n=2\np=2\nq=1\norder=6\ncoupling 0 - 0.5\n", 5, "must be positive"),
        ("n=2\np=2\nq=1\norder=6\nextra 1:1 1:1 0.5\n", 5, ""),
        ("n=2\np=4\nq=2\norder=6\nomega 1 1.0\n", 3, "bad header"),
        ("n=2\np=2\nq=1\n", 4, "missing header"),
        ("n=2\np=2\nq=2\norder=6\n", 3, "bad header"),
        ("n=2\np=2\nq=1\norder=2\n", 4, "at least 4"),
        ("n=2\np=2\nq=1\norder=6\nextra 1:5 2:5 1.0\n", 5, "degree 10 exceeds order 6"),
        ("n=100000000\np=2\nq=1\norder=6\nomega 1 1.0\n", 1, "over the limit of 64 modes"),
        ("n=10000000000000000000\np=2\nq=1\norder=6\nomega 1 1.0\n", 1, "over the limit"),
    ])
    def test_rejects_with_line_number(self, text, line_no, needle):
        with pytest.raises(ModelFileError) as err:
            parse_model_text(text)
        assert err.value.line_no == line_no
        assert str(err.value).startswith(f"line {line_no}:")
        assert needle in str(err.value)

    def test_header_only_is_a_valid_empty_model(self):
        m = parse_model_text("n=2\np=1\nq=1\norder=4\n")
        assert m.slot_count() == 0


class TestFixture:
    def test_fixture_parses_to_worked_model(self):
        # cloh_model() parses the fixture; check its shape against the census
        spec = ResonanceSpec(3, 2, 1)
        m = cloh_model()
        assert (m.spec, m.order) == (spec, 10)
        *slots, extra = m.terms
        assert [t.key for t in slots] == [t.key for t in census_terms(spec, 10)]
        assert extra.kind == "extra"
        assert (m.slot_count(), len(m.off_diagonal_terms()), m.nonzero_count()) == (86, 31, 28)

    def test_fixture_round_trips_byte_for_byte(self):
        m = parse_model_file(str(FIXTURE))
        text = FIXTURE.read_text()
        body = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("#"))
        assert serialize_model(m) == body


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digest_of(capsys, tmp_path, *argv):
    """SHA-256 of what a successful ``argv`` writes to its --out file."""
    out_file = tmp_path / "command.out"
    code, out, _ = run(capsys, *argv, "--out", str(out_file))
    assert (code, out) == (0, "")
    return hashlib.sha256(out_file.read_bytes()).hexdigest()


class TestCountCommand:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--p", "2", "--q", "1",
                           "--order", "10")
        assert code == 0
        assert "n_coef  85" in out
        assert "n_op    115" in out
        assert "n_c     60" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--p", "1", "--q", "1",
                           "--order", "10", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["n_coef"], data["n_op"], data["n_c"]) == (55, 90, 70)

    # digests taken while CountReport was a dataclass and the closed forms
    # were evaluated in Fraction arithmetic
    @pytest.mark.parametrize("sizes,fmt,digest", [
        (("6", "3", "2", "30"), "json",
         "cd4021209f737021115e1eab7bb08b599424dea959b0e9704d8613973fb40b06"),
        (("6", "3", "2", "30"), "table",
         "e0d66bad292948f3d7a6bdb2c0a6919bc94e93cc515d08089a4a70a12315b86a"),
        (("3", "2", "1", "220"), "json",
         "541aca0746fc333cb48d1f201cea58948fdd1cac12341d542ebd0c846ebfeaf0"),
        (("3", "2", "1", "220"), "table",
         "960c432035059f5eb6e1735426a58a55ded2e4bac92948d3d464c1aca6c19f9c"),
    ], ids=["6-3:2-30-json", "6-3:2-30-table", "3-2:1-220-json", "3-2:1-220-table"])
    def test_output_digest_pinned(self, capsys, tmp_path, sizes, fmt, digest):
        n, p, q, order = sizes
        assert digest_of(capsys, tmp_path, "count", "--n", n, "--p", p, "--q", q,
                         "--order", order, "--format", fmt) == digest

    def test_common_factor_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "--n", "2", "--p", "4", "--q", "2",
                           "--order", "10")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("order", ["-1", "-5"])
    def test_negative_order_is_usage_error(self, capsys, order):
        code, out, err = run(capsys, "count", "--n", "3", "--p", "2", "--q", "1",
                             "--order", order)
        assert (code, out, err) == (2, "", "error: need N >= 0\n")


class TestEnumerateCommand:
    def test_json_census_size(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "both", "--n", "3",
                           "--p", "2", "--q", "1", "--order", "10",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 115  # census operators: 55 number + 60 coupling

    def test_table_total_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "dunham", "--n", "3",
                           "--order", "10")
        assert code == 0
        assert out.strip().splitlines()[-1] == "total 55"

    def test_deterministic(self, capsys):
        args = ("enumerate", "--kind", "coupling", "--n", "2", "--p", "2",
                "--q", "1", "--order", "8", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("sizes,fmt,digest", [
        (("6", "1", "1", "30"), "json",
         "00bd4fd49a4a84af7af8da23495cf43199df7e5b78df134dd9b2f95199b94ceb"),
        (("6", "2", "1", "30"), "json",
         "ea278bc119d5e1d70bb02a6bc04d0f2d9aa0438d499bb06ad2811af9fe72486d"),
        (("6", "3", "1", "30"), "json",
         "4851c09bc8d50798d46b4b8012290d5999e2ca43a2feee3dabb6a05ce9440065"),
        (("6", "3", "2", "30"), "json",
         "08f54aa9dc30165149eb87dd49debab4f2eed8b21f3204fe5dd8f6b66f980ba8"),
        (("6", "3", "2", "30"), "table",
         "8d468444c5d857a6ffbb5376676fed8ea459fb3b92ca36c07ad3529286f888ac"),
        (("3", "2", "1", "12"), "json",
         "c6bc819e308da82b3e4fa6cc6e854105ff7df454c020acbbd0042ed6800db3b8"),
        (("3", "2", "1", "12"), "table",
         "6d5c37490b85c3a0fdcc7b0df72dc456b5ed3712c3101596aabb76df5a0abb41"),
    ], ids=["6-1:1-30-json", "6-2:1-30-json", "6-3:1-30-json", "6-3:2-30-json",
            "6-3:2-30-table", "3-2:1-12-json", "3-2:1-12-table"])
    def test_output_digest_pinned(self, capsys, tmp_path, sizes, fmt, digest):
        # the 3:2 order-30 and the 2:1 order-12 digests were taken while the
        # census was still collected in a set and sorted by
        # GenMonomial.sort_key; the other order-30 ones while every record of
        # the JSON census was still built from a GenMonomial
        n, p, q, order = sizes
        out_file = tmp_path / "census.out"
        code, out, _ = run(capsys, "enumerate", "--n", n, "--p", p, "--q", q,
                           "--order", order, "--format", fmt, "--out", str(out_file))
        assert (code, out) == (0, "")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


    def test_json_builds_no_monomial(self, capsys, monkeypatch):
        from polyads.monomials import GenMonomial

        def refuse(cls, *fields):
            raise AssertionError("GenMonomial built")

        args = ("enumerate", "--n", "3", "--p", "2", "--q", "1", "--order", "12")
        _, table, _ = run(capsys, *args)
        monkeypatch.setattr(GenMonomial, "__new__", refuse)
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == int(table.split()[-1])
        with pytest.raises(AssertionError, match="GenMonomial built"):
            run(capsys, *args)  # the guard bites where monomials are built

    def test_empty_coupling_census_is_an_empty_array(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "coupling", "--n", "2",
                           "--p", "5", "--q", "2", "--order", "6", "--format", "json")
        assert (code, out) == (0, "[]\n")


class TestVerifyTablesCommand:
    def test_all_green(self, capsys):
        code, out, _ = run(capsys, "verify-tables")
        assert code == 0
        assert "table1: 60/60 cells match" in out
        assert "table2: 52/52 cells match" in out
        assert "table3: 12/12 cells match" in out
        assert "all tables verified" in out

    def test_fault_injection_names_the_cell(self, capsys, monkeypatch):
        import polyads.counting as counting
        monkeypatch.setitem(counting.DELTA2_REFERENCE, (10, 3), 1234)
        code, out, _ = run(capsys, "verify-tables")
        assert code == 1
        assert "table2: 51/52 cells match" in out
        assert "MISMATCH table2[N=10,p+q=3]: expected 1234, got 4" in out
        assert "1 cells differ" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["cells"] == 124
        assert data["failures"] == []

    # digests taken while the closed forms were evaluated in Fraction arithmetic
    @pytest.mark.parametrize("fmt,digest", [
        ("json", "e8b04e40be0f28a857e28cd48a09f4b94bc1150325e83651de0fedb59ae1aca6"),
        ("table", "6745326f34c4a511b9c69ce78ba4e3f66adfb5286c8914aba73c81ed07907b24"),
    ])
    def test_output_digest_pinned(self, capsys, tmp_path, fmt, digest):
        assert digest_of(capsys, tmp_path, "verify-tables", "--format", fmt) == digest


class TestAuditCommand:
    def test_fields_present(self, capsys):
        code, out, _ = run(capsys, "audit", "--order", "10", "--p", "2",
                           "--q", "1", "--kind", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["delta"] == 5
        assert data["N"] == 10 and data["kind"] == 2
        total = (data["pop_class_kprime"] + data["pop_other_classes"]
                 + data["switched_off_alpha"])
        assert total == data["lambda1_raw"]

    @pytest.mark.parametrize("p,q,digest", [
        ("1", "1", "c214774ba7d7bcab44427262d0b37ea178799f2c555ce3462381e27bcec29ac2"),
        ("2", "1", "abd0fa648c521ee906bfbb774140c299bd099721ccc0006d63b2c52fc00ae217"),
        ("3", "1", "88b53c7187e40b7d6d20188a5e44ccb47f825ca0c7f778306f70b0fb73ee2a77"),
        ("3", "2", "820c506f8aab3c8484b22e66147fd6949efac27b1f8ccf83633cc7869183c074"),
    ], ids=["1:1", "2:1", "3:1", "3:2"])
    def test_order_220_digest_pinned(self, capsys, tmp_path, p, q, digest):
        # digests taken while the audit still tallied CoupleC objects
        out_file = tmp_path / "audit.json"
        code, out, _ = run(capsys, "audit", "--order", "220", "--p", p, "--q", q,
                           "--kind", "3", "--format", "json", "--out", str(out_file))
        assert (code, out) == (0, "")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    # digests taken while MultiplicityAudit was a dataclass written out with
    # dataclasses.asdict; the kind-3 JSON one is pinned above
    @pytest.mark.parametrize("kind,fmt,digest", [
        ("2", "json", "b7e39319ce7c5e661ae5b06a00aa1482f172a7a94d9d3b2d9d95fe6fec7dba8b"),
        ("2", "table", "8a79eab5f27ef7437ad5061fce9d49e0863028bdd310d5bc4bdb2f013907070c"),
        ("3", "table", "197fd9746e7714161320afa0ec5b756a77090471ae50014d3c6dad54af096709"),
    ], ids=["kind2-json", "kind2-table", "kind3-table"])
    def test_bench_size_digest_pinned(self, capsys, tmp_path, kind, fmt, digest):
        assert digest_of(capsys, tmp_path, "audit", "--order", "220", "--p", "3", "--q", "2",
                         "--kind", kind, "--format", fmt) == digest


class TestSpectrumCommand:
    def test_csv_against_fixture(self, capsys, tmp_path):
        out_file = tmp_path / "levels.csv"
        code, out, _ = run(capsys, "spectrum", "--model", str(FIXTURE),
                           "--pmax", "4", "--out", str(out_file))
        assert code == 0
        assert out == "blocks 5 levels 9\n"
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "P,n3,index,energy_cm1"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "0"] and float(first[3]) == 0.0

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "spectrum", "--model", str(FIXTURE), "--pmax", "10",
            "--n3max", "1", "--out", str(a))
        run(capsys, "spectrum", "--model", str(FIXTURE), "--pmax", "10",
            "--n3max", "1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zeroed_couplings_reduce_to_diagonal(self, capsys, tmp_path):
        model_file = tmp_path / "diag.model"
        diag = cloh_model().without_couplings()
        model_file.write_text(serialize_model(diag))
        code, out, _ = run(capsys, "spectrum", "--model", str(model_file),
                           "--pmax", "6", "--format", "json")
        assert code == 0
        # summary goes to stderr when printing rows to stdout
        payload = json.loads(out)
        by_block: dict[tuple[int, int], list[float]] = {}
        for row in payload:
            by_block.setdefault((row["P"], row["n3"]), []).append(row["energy_cm1"])
        for (P, n3), energies in by_block.items():
            states = [(P - 2 * k, k, n3) for k in range(P // 2 + 1)]
            expect = sorted(dunham_energy(f, diag) for f in states)
            assert energies == pytest.approx(expect, rel=1e-12)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("n=2\np=2\nq=1\norder=6\ndunham 9:1 0.5\n")
        code, _, err = run(capsys, "spectrum", "--model", str(bad), "--pmax", "4")
        assert code == 2
        assert "line 5" in err and str(bad) in err

    @pytest.mark.parametrize("text,line_no", [
        ("n=2\np=2\nq=2\norder=6\n", 3),
        ("n=2\np=2\nq=1\norder=2\n", 4),
        ("n=2\np=2\nq=1\norder=6\nextra 1:5 2:5 1.0\n", 5),
    ], ids=["header-not-coprime", "header-low-order", "extra-over-order"])
    def test_rejected_model_exit_code(self, capsys, tmp_path, text, line_no):
        bad = tmp_path / "bad.model"
        bad.write_text(text)
        code, out, err = run(capsys, "spectrum", "--model", str(bad), "--pmax", "4")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: line {line_no}: ")

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "spectrum", "--model",
                           str(tmp_path / "nope.model"), "--pmax", "4")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("pmax,digest", [
        ("38", "0693708946f111e0313f3928d7be1da792fa133238dd17b810e7ddaaf075a738"),
        ("80", "96cc5efba4238fab09b3943958b10a5422eb3d8cd45306853d6a8eefbfa864f8"),
    ], ids=["38-7", "80-7"])
    def test_csv_digest_pinned(self, capsys, tmp_path, pmax, digest):
        # digests of the output of the per-state assembly that the
        # vectorised build_block replaced
        out_file = tmp_path / "levels.csv"
        code, _, _ = run(capsys, "spectrum", "--model", str(FIXTURE), "--pmax", pmax,
                         "--n3max", "7", "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    def test_two_mode_json_digest_pinned(self, capsys, tmp_path):
        # digest of the output of the per-label build_block loop that the
        # single labelled caps box replaced
        model_file = tmp_path / "minimal.model"
        model_file.write_text(MINIMAL)
        out_file = tmp_path / "levels.json"
        code, out, _ = run(capsys, "spectrum", "--model", str(model_file), "--pmax", "12",
                           "--format", "json", "--out", str(out_file))
        assert (code, out) == (0, "blocks 13 levels 49\n")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
            "6116e21191c5bbf4afe37f68048926df0450da6d1ecec592a19a77cb2409e777"

    def test_three_two_model_skips_empty_labels(self, capsys, tmp_path):
        # P = 2 n1 + 3 n2 is never 1, so P = 1 has no block
        model_file = tmp_path / "three_two.model"
        model_file.write_text("n=2\np=3\nq=2\norder=6\nomega 1 1000.0\n"
                              "omega 2 1500.0\ndunham 1:2 -3.5\ncoupling 1 - 0.5\n")
        out_file = tmp_path / "levels.csv"
        code, out, _ = run(capsys, "spectrum", "--model", str(model_file), "--pmax", "10",
                           "--out", str(out_file))
        assert (code, out) == (0, "blocks 10 levels 14\n")
        labels = {line.split(",")[0] for line in out_file.read_text().splitlines()[1:]}
        assert labels == {str(P) for P in range(11) if P != 1}

    @pytest.mark.parametrize("lines", [
        "omega 1 1e308\nomega 2 1e308\n",
        "dunham 1:2 1e308\n",
    ], ids=["omega", "dunham"])
    def test_non_finite_block_exit_code(self, tmp_path, lines):
        # one error line, no numpy warning and no NaN levels
        model_file = tmp_path / "huge.model"
        model_file.write_text("n=2\np=2\nq=1\norder=4\n" + lines)
        proc = subprocess.run([sys.executable, "-m", "polyads", "spectrum", "--model",
                               str(model_file), "--pmax", "2", "--format", "json"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: block (2,) has matrix entries that are not finite\n"

    def test_oversized_caps_exit_code(self, capsys):
        code, out, err = run(capsys, "spectrum", "--model", str(FIXTURE),
                             "--pmax", "100000", "--n3max", "7")
        assert code == 2 and out == ""
        assert err.startswith("error: caps (100000, 50000, 7) span")
        assert "candidate states" in err


class TestPhaseSpaceCommand:
    def test_unison_curve(self, capsys):
        code, out, err = run(capsys, "phase-space", "--p", "1", "--q", "1",
                             "--h0", "1.0", "--samples", "101")
        assert code == 0
        assert err == "rows 101\n"
        lines = out.strip().splitlines()
        assert lines[0] == "sigma1,sigma0p_plus,sigma0p_minus,residual"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert rows[0][1] == 0.0 and rows[-1][1] == pytest.approx(0.0, abs=1e-12)
        top = max(r[1] for r in rows)
        assert top == pytest.approx(0.5, abs=1e-12)
        assert all(abs(r[3]) < 1e-12 for r in rows)

    def test_infeasible_budget_is_usage_error(self, capsys):
        code, _, err = run(capsys, "phase-space", "--p", "1", "--q", "1",
                           "--h0", "0.05", "--sigma", "9.0")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,fmt,rows,digest", [
        (["--p", "1", "--q", "1", "--h0", "0"], "json", 1,
         "18327b15af70717154d8a807ad909a35e20d1029ae10f0d2d57208df10b9eac8"),
        (["--p", "1", "--q", "1", "--h0", "0"], "table", 1,
         "0bb26fc6b0a38625475349de243cc8220ff0fc0eca52bd9f43abd75970348cad"),
        (["--p", "2", "--q", "1", "--h0", "2.5", "--sigma", "0.3", "--samples", "41"],
         "json", 41, "d02912438781efabe072b34b8209f6417d4deada9af88865602e20d8daed3ea2"),
        (["--p", "2", "--q", "1", "--h0", "2.5", "--sigma", "0.3", "--samples", "41"],
         "table", 41, "cdebfb463574ed83e61fd9fc3f872a179030f28a02d481541a526f202a5cfa43"),
    ], ids=["origin-json", "origin-csv", "sigma-json", "sigma-csv"])
    def test_output_digest_pinned(self, capsys, tmp_path, argv, fmt, rows, digest):
        # digests taken before PhaseCurvePoint lost its always-zero sigmam1p field
        out_file = tmp_path / "curve.out"
        code, out, _ = run(capsys, "phase-space", *argv, "--format", fmt,
                           "--out", str(out_file))
        assert (code, out) == (0, f"rows {rows}\n")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    def test_oversized_samples_exit_before_sampling(self, capsys, monkeypatch):
        def curve_rhs(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(resonance, "_curve_rhs", curve_rhs)
        code, out, err = run(capsys, "phase-space", "--p", "2", "--q", "1",
                             "--h0", "1.5", "--samples", "1000000000")
        assert (code, out) == (2, "")
        assert err == f"error: need between 2 and {resonance.MAX_SAMPLES} samples\n"

    @pytest.mark.parametrize("argv, needle", [
        (["--p", "2", "--q", "1", "--h0", "nan"], "finite"),
        (["--p", "2", "--q", "1", "--h0", "inf"], "finite"),
        (["--p", "2", "--q", "1", "--h0", "1.5", "--sigma", "nan"], "finite"),
        (["--p", "1", "--q", "1", "--h0", "1e200"], "overflows"),
        (["--p", "2", "--q", "1", "--h0", "1e200"], "overflows"),
    ], ids=["h0-nan", "h0-inf", "sigma-nan", "1:1-overflow", "2:1-overflow"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_non_finite_curve_is_usage_error(self, capsys, tmp_path, argv, needle, fmt):
        out_file = tmp_path / "curve.out"
        code, out, err = run(capsys, "phase-space", *argv, "--format", fmt,
                             "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
        assert not out_file.exists()

    def test_json_points_carry_residuals(self, capsys):
        code, out, _ = run(capsys, "phase-space", "--p", "2", "--q", "1",
                           "--h0", "2.0", "--samples", "41", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(abs(pt["residual"]) < 1e-12 for pt in payload)


@pytest.mark.parametrize("argv", [
    ["count", "--n", "2", "--p", "1", "--q", "1", "--order", "4"],
    ["enumerate", "--n", "2", "--order", "4"],
    ["verify-tables"],
    ["audit", "--order", "8", "--p", "2", "--q", "1", "--kind", "2"],
    ["spectrum", "--model", str(FIXTURE), "--pmax", "4"],
    ["phase-space", "--p", "2", "--q", "1", "--h0", "1.5"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    out_file = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out_file) in err and not out_file.parent.exists()


@pytest.mark.parametrize("argv", [
    ["count", "--n", "3", "--order", "6"],
    ["enumerate", "--n", "3", "--order", "6"],
    ["audit", "--order", "10", "--kind", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("p, q, message", [
    ("-1", "1", "p and q must be positive"),
    ("0", "1", "p and q must be positive"),
    ("2", "4", "p and q must be coprime"),
], ids=["negative", "zero", "common-factor"])
def test_bad_ladder_is_usage_error(capsys, argv, p, q, message):
    code, out, err = run(capsys, *argv, "--p", p, "--q", q)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def imports_of(argv: list[str]) -> set[str]:
    """Modules that ``python -X importtime argv`` imports; the run must succeed."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="module")
def bare_imports() -> set[str]:
    """Modules that a bare interpreter imports before running any code."""
    return imports_of(["-c", "pass"])


class TestPackaging:
    def test_module_entry_point(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "polyads", "count", "--n", "3", "--p", "2",
             "--q", "1", "--order", "10"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "85" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["-c", "import polyads.cli"],
        ["-m", "polyads", "count", "--n", "3", "--p", "2", "--q", "1", "--order", "10"],
    ])
    def test_census_path_leaves_numpy_unloaded(self, argv):
        imported = imports_of(argv)
        assert "polyads.cli" in imported
        assert "numpy" not in imported and "polyads.quantum" not in imported

    def test_quantum_import_leaves_the_cli_unloaded(self):
        imported = imports_of(["-c", "import polyads.quantum"])
        assert "polyads.quantum" in imported and "polyads.cli" not in imported

    def test_model_import_leaves_numpy_quantum_and_cli_unloaded(self):
        imported = imports_of(["-c", "import polyads.model"])
        assert "polyads.model" in imported
        assert not imported & {"numpy", "polyads.quantum", "polyads.cli"}

    def test_worked_model_loads_without_numpy(self):
        code = ("import sys; sys.modules['numpy'] = None\n"
                "from polyads.model import cloh_model\n"
                "assert cloh_model().slot_count() == 86\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
        assert proc.returncode == 0, proc.stderr

    def test_package_import_loads_no_submodule(self):
        imported = imports_of(["-c", "import polyads"])
        assert "polyads" in imported
        assert not {m for m in imported if m.startswith("polyads.")}

    @pytest.mark.parametrize("argv, used, unused", [
        (["count", "--n", "3", "--p", "2", "--q", "1", "--order", "10"],
         "polyads.counting",
         {"polyads.monomials", "polyads.model", "polyads.resonance", "polyads.zpoly"}),
        (["verify-tables"],
         "polyads.counting",
         {"polyads.monomials", "polyads.model", "polyads.resonance", "polyads.zpoly"}),
        (["enumerate", "--n", "3", "--p", "2", "--q", "1", "--order", "10", "--format", "json"],
         "polyads.monomials",
         {"polyads.counting", "polyads.model", "polyads.resonance", "polyads.zpoly"}),
        (["audit", "--order", "30", "--p", "2", "--q", "1", "--kind", "3"],
         "polyads.monomials",
         {"polyads.counting", "polyads.model", "polyads.resonance", "polyads.zpoly"}),
    ], ids=["count", "verify-tables", "enumerate", "audit"])
    def test_census_commands_import_only_their_module(self, argv, used, unused):
        imported = imports_of(["-m", "polyads", *argv])
        assert used in imported
        assert not imported & unused

    @pytest.mark.parametrize("argv, unloaded", [
        (["--help"], {"dataclasses", "fractions"}),
        (["count", "--n", "3", "--p", "2", "--q", "1", "--order", "10"],
         {"dataclasses", "fractions"}),
        (["verify-tables"], {"dataclasses", "fractions"}),
        (["enumerate", "--n", "3", "--p", "2", "--q", "1", "--order", "10", "--format", "json"],
         {"dataclasses", "fractions"}),
        (["audit", "--order", "30", "--p", "2", "--q", "1", "--kind", "3"],
         {"dataclasses", "fractions"}),
        (["spectrum", "--model", str(FIXTURE), "--pmax", "4"],
         {"polyads.resonance", "polyads.zpoly", "fractions"}),
    ], ids=["help", "count", "verify-tables", "enumerate", "audit", "spectrum"])
    def test_start_up_leaves_unused_modules_unloaded(self, bare_imports, argv, unloaded):
        # modules that site loads on some machines are not the package's doing
        imported = imports_of(["-m", "polyads", *argv]) - bare_imports
        assert "polyads.cli" in imported
        assert not imported & unloaded

    def test_spectrum_leaves_the_census_unloaded(self):
        imported = imports_of(["-m", "polyads", "spectrum", "--model", str(FIXTURE),
                               "--pmax", "4"])
        assert "polyads.quantum" in imported
        assert not imported & {"polyads.monomials", "polyads.counting"}

    def test_quantum_names_load_on_access(self):
        from polyads import quantum

        assert polyads.build_block is quantum.build_block
        for name in polyads.__all__:
            getattr(polyads, name)
        with pytest.raises(AttributeError):
            polyads.no_such_name

    def test_every_public_name_is_its_home_module_object(self):
        from polyads import counting, model, monomials, quantum, resonance, spec, zpoly

        assert polyads.totals is counting.totals
        assert polyads.GenMonomial is monomials.GenMonomial
        assert polyads.cloh_model is model.cloh_model
        assert polyads.spectrum is quantum.spectrum
        assert polyads.ResonanceSpec is spec.ResonanceSpec
        assert polyads.ResonanceSpec is resonance.ResonanceSpec
        assert polyads.ZPolynomial is zpoly.ZPolynomial
        modules = (counting, model, monomials, quantum, resonance, spec, zpoly)
        for name in polyads.__all__:
            if name != "__version__":
                assert any(vars(m).get(name) is getattr(polyads, name) for m in modules), name

    def test_star_import_binds_every_public_name(self):
        code = ("import polyads\nfrom polyads import *\n"
                "missing = [n for n in polyads.__all__ if n not in globals()]\n"
                "assert not missing, missing\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
        assert proc.returncode == 0, proc.stderr

    def test_dir_lists_every_public_name(self):
        assert set(polyads.__all__) <= set(dir(polyads))

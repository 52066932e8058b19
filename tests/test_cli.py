"""End-to-end command line checks and the model-file grammar."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyads
from polyads import resonance
from polyads.audit import brute_force_delta2
from polyads.cli import main
from polyads.model import (
    MAX_FILE_BYTES,
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
from polyads.spec import MAX_MODES

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
HEAD_21 = "n=2\np=2\nq=1\norder=6\n"


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
    # one slot per operator: drop a pair that a chosen slot, or an earlier
    # pair written the other way round, already names
    keys = {t.key for t in chosen}
    extras = []
    for r, lo in ladders:
        term = TermSpec("extra", r, lo, (0,) * n)
        if term.key not in keys:
            keys.add(term.key)
            extras.append(term)
    values = st.floats(allow_nan=False, allow_infinity=False)
    terms = []
    for t in draw(st.permutations(chosen + extras)):
        value = draw(values)
        terms.append(t._replace(coeff=value, coeff_text=repr(value)))
    return HamiltonianModel(spec=spec, order=order, terms=tuple(terms))


# the tokens a fuzzed term line is made of, the well-formed ones weighted up
_FUZZ_VALUES = (["0", "-2.5", "753.834", "3e-3", "1e308", "-1e308", "12345678901234567890"] * 3
                + ["nan", "inf", "-inf", "x"])
_FUZZ_FACTORS = (["1:1", "2:1", "3:1", "1:2", "2:2", "3:2", "1:3", "2:3", "1:1,2:1",
                  "2:1,3:1", "1:2,2:1", "1:1,2:2,3:1"] * 3
                 + ["-", "1:0", "4:1", "1", "1:12345678901234567890", "a:1", "1:1,1:2"])
_FUZZ_ARITY = {"omega": ["mode"], "dunham": ["factors"], "coupling": ["power", "factors"],
               "extra": ["factors", "factors"]}


@st.composite
def model_texts(draw):
    """Model-file text from a token alphabet: a mostly valid 2:1 header and
    mostly well-formed term lines, some with a token inserted, dropped or
    replaced, an `=` or a `#` comment."""
    header = [f"n={draw(st.sampled_from([2, 3]))}", "p=2", "q=1",
              f"order={draw(st.sampled_from([4, 6, 10]))}"]
    fault = draw(st.sampled_from([None] * 20 + ["drop", "q=2", "p=4", "order=3", "n=1",
                                                "order=12345678901234567890", "x=1"]))
    if fault == "drop":
        del header[draw(st.integers(0, 3))]
    elif fault is not None:
        key = fault.split("=")[0]
        header = [line for line in header if not line.startswith(f"{key}=")] + [fault]
    factors = st.sampled_from(_FUZZ_FACTORS)
    slot = {"mode": st.sampled_from(["1", "2", "3", "0", "12345678901234567890"]),
            "power": st.sampled_from(["1", "2", "3", "0", "-1"]), "factors": factors}
    any_token = st.one_of(st.sampled_from([*_FUZZ_ARITY, "-", "#", "=", "n=2"]), factors,
                          st.sampled_from(_FUZZ_VALUES))
    lines = []
    for kind in draw(st.lists(st.sampled_from(list(_FUZZ_ARITY)), min_size=1, max_size=6)):
        tokens = [kind, *(draw(slot[a]) for a in _FUZZ_ARITY[kind]),
                  draw(st.sampled_from(_FUZZ_VALUES))]
        noise = draw(st.sampled_from([None] * 12 + ["insert", "drop", "replace", "comment"]))
        if noise == "drop":
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif noise is not None:
            at = draw(st.integers(0, len(tokens) - (noise == "replace")))
            tokens[at:at + (noise == "replace")] = ["#" if noise == "comment" else
                                                    draw(any_token)]
        lines.append(" ".join(tokens))
    return "\n".join(draw(st.permutations(header)) + lines) + "\n"


class TestModelGrammar:
    @settings(max_examples=300, deadline=None)
    @given(text=model_texts(), pmax=st.integers(0, 12))
    def test_fuzzed_text_parses_or_is_refused(self, text, pmax):
        # hypothesis refuses function-scoped fixtures, so no tmp_path or capsys
        try:
            parse_model_text(text)
        except ModelFileError:
            parsed = False
        else:
            parsed = True
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.model")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["spectrum", "--model", path, "--pmax", str(pmax), "--n3max", "2"])
        assert code in (0, 2) and (parsed or code == 2)

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
        ("n=2\np=2\nq=1\norder=6\nomega 1 1.0\nq=1\n", 6, "header line after the first term"),
        ("n=2\np=two\nq=1\norder=6\n", 2, "bad integer for 'p'"),
        ("n=2\np=2\nq=1\norder=6\ncoupling x - 0.5\n", 5, "bad ladder power 'x'"),
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
        ("n=2\np=2\nq=1\norder=100000000\nomega 1 1.0\n", 4, "over the limit of 1000"),
        ("n=2\np=2\nq=1\norder=1000\ndunham 1:501 1.0\n", 5, "degree 1002 exceeds order 1000"),
    ])
    def test_rejects_with_line_number(self, text, line_no, needle):
        with pytest.raises(ModelFileError) as err:
            parse_model_text(text)
        assert err.value.line_no == line_no
        assert str(err.value).startswith(f"line {line_no}:")
        assert needle in str(err.value)

    @pytest.mark.parametrize("head, first, second", [
        (HEAD_21, "coupling 1 - 5.0", "extra 1:2 2:1 5.0"),
        (HEAD_21, "coupling 1 - 5.0", "extra 2:1 1:2 5.0"),
        (HEAD_21, "extra 1:2 2:1 5.0", "extra 2:1 1:2 -1.0"),
        (HEAD_21, "extra 2:1 1:2 5.0", "coupling 1 - 5.0"),
        ("n=3\np=2\nq=1\norder=6\n", "extra 1:2,3:1 2:1,3:1 1.0", "coupling 1 3:1 -1.0"),
        (HEAD_21, "extra 1:3 1:1,2:1 1.0", "coupling 1 1:1 2.0"),
    ], ids=["keyword", "transposed", "extra-transposed", "transposed-first",
            "number-spectator", "number-ladder"])
    def test_one_slot_per_operator(self, capsys, tmp_path, head, first, second):
        # every pair is a1+^2 a2 + h.c. in a 2:1 file, times N3 or N1 in the
        # last two, where the extra writes the number operator as a+ a
        with pytest.raises(ModelFileError) as err:
            parse_model_text(f"{head}{first}\n{second}\n")
        assert str(err.value) == f"line 6: duplicate term {second!r}"
        a, b = (parse_model_text(f"{head}{line}\n").terms[0] for line in (first, second))
        assert a.key == b.key
        empty = parse_model_text(head)
        with pytest.raises(ValueError, match="duplicate term"):
            HamiltonianModel(empty.spec, empty.order, (a, b))
        path = tmp_path / "twice.model"
        path.write_text(f"{head}{first}\n{second}\n")
        code, out, err = run(capsys, "spectrum", "--model", str(path), "--pmax", "4")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 6: duplicate term {second!r}\n"

    def test_mode_lowered_twice_is_its_own_slot(self):
        # a1+^3 a1^2 a2 = a1+ a2 N1 (N1 - 1) is the sum of two 1:1 coupling
        # slots, not one of them, so it is a slot beside both
        text = ("n=2\np=1\nq=1\norder=8\ncoupling 1 1:1 1.0\ncoupling 1 1:2 1.0\n"
                "extra 1:3 1:2,2:1 1.0\n")
        m = parse_model_text(text)
        assert len({t.key for t in m.terms}) == 3
        assert m.terms[2].key == ((3, 0), (2, 1), (0, 0))
        assert HamiltonianModel(m.spec, m.order, m.terms[::-1]).slot_count() == 3

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
        assert len({t.key for t in m.terms}) == 86

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


def stdout_of(*argv):
    """Exit code and stdout of ``main(argv)``; hypothesis refuses capsys."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(list(argv))
    return code, sink.getvalue()


def assert_stdlib_json(text):
    """``text`` is the ``json.dumps(..., indent=2)`` text of what it holds, and a newline."""
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


st_ladders = st.tuples(st.integers(1, 40), st.integers(1, 40)).filter(
    lambda pq: math.gcd(*pq) == 1)


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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, MAX_MODES), order=st.integers(0, 100_000), pq=st_ladders)
    def test_json_is_the_stdlib_text(self, n, order, pq):
        code, out = stdout_of("count", "--n", str(n), "--p", str(pq[0]), "--q", str(pq[1]),
                              "--order", str(order), "--format", "json")
        assert code == 0
        assert_stdlib_json(out)

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

    @pytest.mark.parametrize("n, order", [("65", "10"), ("100000", "100000")])
    def test_too_many_modes_is_usage_error(self, capsys, n, order):
        code, out, err = run(capsys, "count", "--n", n, "--p", "2", "--q", "1",
                             "--order", order)
        assert (code, out, err) == (2, "", "error: need n <= 64\n")


class TestEnumerateCommand:
    def test_json_census_size(self, capsys):
        # census operators, as count's n_op says: 55 number + 60 coupling at order 10,
        # the three degree-1 slots and s-1, s0 at order 3, the degree-1 slots at order 2
        for order, total in [(10, 115), (3, 5), (2, 3)]:
            code, out, _ = run(capsys, "enumerate", "--kind", "both", "--n", "3",
                               "--p", "2", "--q", "1", "--order", str(order),
                               "--format", "json")
            assert code == 0
            assert len(json.loads(out)) == total
            code, out, _ = run(capsys, "count", "--n", "3", "--p", "2", "--q", "1",
                               "--order", str(order), "--format", "json")
            assert json.loads(out)["n_op"] == total

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
        (("8", "3", "2", "30"), "json",
         "83f466da0927efb9f8c7e41ca02fc06ef250b897d74b08f19d39bf6b57ca44f6"),
        (("8", "3", "2", "30"), "table",
         "1415d0779b3c2bbcc1e78b558d080d42465c53d5e12c84ccb8f07430f279b163"),
    ], ids=["6-1:1-30-json", "6-2:1-30-json", "6-3:1-30-json", "6-3:2-30-json",
            "6-3:2-30-table", "3-2:1-12-json", "3-2:1-12-table", "8-3:2-30-json",
            "8-3:2-30-table"])
    def test_output_digest_pinned(self, capsys, tmp_path, sizes, fmt, digest):
        # the 6-mode 3:2 order-30 and the 2:1 order-12 digests were taken
        # while the census was still collected in a set and sorted by
        # GenMonomial.sort_key; the other 6-mode order-30 ones while every
        # record of the JSON census was still built from a GenMonomial; the
        # 8-mode JSON one is that of the stdlib encoder's re-dump, and its
        # table ends with "total 498909", the JSON's record count
        n, p, q, order = sizes
        out_file = tmp_path / "census.out"
        code, out, _ = run(capsys, "enumerate", "--n", n, "--p", p, "--q", q,
                           "--order", order, "--format", fmt, "--out", str(out_file))
        assert (code, out) == (0, "")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


    def test_neither_format_builds_a_monomial(self, capsys, monkeypatch):
        from polyads.monomials import GenMonomial, enumerate_dunham

        def refuse(cls, *fields):
            raise AssertionError("GenMonomial built")

        monkeypatch.setattr(GenMonomial, "__new__", refuse)
        args = ("enumerate", "--n", "3", "--p", "2", "--q", "1", "--order", "12")
        code, table, _ = run(capsys, *args)
        assert code == 0
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == int(table.split()[-1]) == len(table.splitlines()) - 1
        with pytest.raises(AssertionError, match="GenMonomial built"):
            enumerate_dunham(3, 12)  # the guard bites where monomials are built

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "dunham", "--n", "1200", "--order", "4"], "need n <= 64"),
        (["--n", "2", "--order", "1001"], "need N <= 1000"),
        (["--kind", "coupling", "--n", "2", "--order", "1000"],
         "census of 41917000 records is over the limit of 500000"),
        (["--n", "40", "--order", "8"],
         "census of 41767930 exponent entries is over the limit of 8000000"),
        (["--n", "64", "--p", "2", "--q", "1", "--order", "8"],
         "census of 818804 records is over the limit of 500000"),
    ], ids=["modes", "order", "coupling-records", "entries", "records"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_oversized_census_is_usage_error(self, capsys, tmp_path, argv, message, fmt):
        out_file = tmp_path / "census.out"
        code, out, err = run(capsys, "enumerate", *argv, "--format", fmt,
                             "--out", str(out_file))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_negative_coupling_order_is_usage_error(self, capsys, tmp_path, fmt):
        out_file = tmp_path / "census.out"
        code, out, err = run(capsys, "enumerate", "--kind", "coupling", "--n", "2",
                             "--order", "-5", "--format", fmt, "--out", str(out_file))
        assert (code, out, err) == (2, "", "error: need N >= 0\n")
        assert not out_file.exists()

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
        # the grid shows the value that was checked, not the reference
        grid = out.split("\n\n")[1]
        assert "10  10      4       3       1" in grid.splitlines()
        assert "1234" not in grid

    def test_grids_print_the_frozen_cells(self, capsys):
        from polyads.counting import DELTA1_REFERENCE, DELTA2_REFERENCE, TOTALS_REFERENCE_N10
        code, out, _ = run(capsys, "verify-tables")
        assert code == 0
        *grids, _ = out.split("\n\n")
        cells = {}
        for table, grid in zip(("table1", "table2", "table3"), grids):
            _, head, *body = grid.splitlines()
            columns = [int(c[4:]) if c.startswith("p+q=") else c for c in head.split()[1:]]
            for line in body:
                row, *values = map(int, line.split())
                cells.update({(table, row, c): v for c, v in zip(columns, values)})
        frozen = {("table1", *key): v for key, v in DELTA1_REFERENCE.items()}
        frozen.update({("table2", *key): v for key, v in DELTA2_REFERENCE.items()})
        frozen.update({("table3", s, c): v for s, row in TOTALS_REFERENCE_N10.items()
                       for c, v in zip(("n_coef", "n_op", "n_c"), row)})
        assert len(cells) == 124
        assert cells == frozen

    def test_failed_totals_cell_is_named_by_column_and_count(self, capsys, monkeypatch):
        import polyads.counting as counting
        monkeypatch.setitem(counting.TOTALS_REFERENCE_N10, 3, (38, 54, 34))
        code, out, _ = run(capsys, "verify-tables")
        assert code == 1
        assert "table3: 11/12 cells match" in out
        assert "MISMATCH table3[p+q=3,n_coef]: expected 38, got 37" in out
        code, out, _ = run(capsys, "verify-tables", "--format", "json")
        assert code == 1
        assert json.loads(out)["failures"] == [
            {"cell": "table3[p+q=3,n_coef]", "expected": 38, "got": 37}]

    def test_json_with_failures_is_the_stdlib_text(self, capsys, monkeypatch):
        import polyads.counting as counting
        monkeypatch.setitem(counting.DELTA2_REFERENCE, (10, 3), 1234)
        monkeypatch.setitem(counting.TOTALS_REFERENCE_N10, 3, (38, 54, 34))
        code, out, _ = run(capsys, "verify-tables", "--format", "json")
        assert code == 1
        assert_stdlib_json(out)
        assert [f["cell"] for f in json.loads(out)["failures"]] == [
            "table2[N=10,p+q=3]", "table3[p+q=3,n_coef]"]

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["cells"] == 124
        assert data["failures"] == []

    # digests taken while the closed forms were evaluated in Fraction arithmetic and the
    # table text was the verdict alone, which is now the text after the grids' blank lines
    @pytest.mark.parametrize("fmt,digest", [
        ("json", "e8b04e40be0f28a857e28cd48a09f4b94bc1150325e83651de0fedb59ae1aca6"),
        ("table", "6745326f34c4a511b9c69ce78ba4e3f66adfb5286c8914aba73c81ed07907b24"),
    ])
    def test_output_digest_pinned(self, capsys, tmp_path, fmt, digest):
        out_file = tmp_path / "verify.out"
        code, out, _ = run(capsys, "verify-tables", "--format", fmt, "--out", str(out_file))
        assert (code, out) == (0, "")
        text = out_file.read_bytes()
        assert hashlib.sha256(text.split(b"\n\n")[-1]).hexdigest() == digest
        if fmt == "table":  # the whole text, grids included
            assert (hashlib.sha256(text).hexdigest()
                    == "afb738b9443bd86de0f0f7903c830205eeb616a93813194239c0d7ca752f331c")


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

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(0, 1000), pq=st_ladders, kind=st.sampled_from(["2", "3"]))
    def test_json_is_the_stdlib_text(self, order, pq, kind):
        code, out = stdout_of("audit", "--order", str(order), "--p", str(pq[0]),
                              "--q", str(pq[1]), "--kind", kind, "--format", "json")
        assert code == 0
        assert_stdlib_json(out)

    @pytest.mark.parametrize("order, message", [
        ("-5", "need N >= 0"), ("1001", "need N <= 1000"), ("100000000", "need N <= 1000"),
    ])
    def test_order_out_of_range_is_usage_error(self, capsys, order, message):
        code, out, err = run(capsys, "audit", "--order", order, "--p", "2", "--q", "1",
                             "--kind", "3")
        assert (code, out, err) == (2, "", f"error: {message}\n")

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
        assert json.loads(out_file.read_text())["delta"] == brute_force_delta2(220, int(p), int(q))

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

    @pytest.mark.parametrize("data,message", [
        (b"n=3\np=2\nq=1\norder=10\n\xff\nomega 1 1.0\n",
         "line 5: not UTF-8: byte 0xff (invalid start byte)"),
        (b"n=3\r\np=2\r\nq=1\rorder=10\n\nomega 1 1.0 # caf\xc3\xa9 \xe2\x82",
         "line 6: not UTF-8: byte 0xe2 (unexpected end of data)"),
    ], ids=["bad-byte", "truncated-at-end"])
    def test_non_utf8_model_names_path_and_line(self, capsys, tmp_path, data, message):
        bad = tmp_path / "latin.model"
        bad.write_bytes(data)
        code, out, err = run(capsys, "spectrum", "--model", str(bad), "--pmax", "4")
        assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_model_is_refused_before_it_is_opened(self, tmp_path):
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)
        # opening a FIFO that nobody writes would block: a timeout ends a hang
        proc = subprocess.run([sys.executable, "-m", "polyads", "spectrum", "--model", str(fifo),
                               "--pmax", "4"], capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: cannot read {fifo}: not a regular file\n"

    def test_model_file_size_limit(self, capsys, tmp_path):
        at_limit = tmp_path / "at_limit.model"
        at_limit.write_text(MINIMAL + "#" * (MAX_FILE_BYTES - len(MINIMAL) - 1) + "\n")
        assert at_limit.stat().st_size == MAX_FILE_BYTES
        assert run(capsys, "spectrum", "--model", str(at_limit), "--pmax", "4")[0] == 0
        over = tmp_path / "over.model"
        with open(over, "wb") as fh:
            fh.truncate(MAX_FILE_BYTES + 1)
        code, out, err = run(capsys, "spectrum", "--model", str(over), "--pmax", "4")
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {over}: over the limit of {MAX_FILE_BYTES} bytes\n"

    def test_directory_model_keeps_the_system_message(self, capsys, tmp_path):
        code, out, err = run(capsys, "spectrum", "--model", str(tmp_path), "--pmax", "4")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {tmp_path}: [Errno ")
        assert "Is a directory" in err

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

    @pytest.mark.parametrize("text, caps, message", [
        ("n=4\np=2\nq=1\norder=4\nomega 1 1.0\n", ("--pmax", "2"),
         "spectrum labeling is defined for 2 or 3 modes"),
        (MINIMAL, ("--pmax", "-1"), "caps are non-negative"),
        (MINIMAL, ("--pmax", "2", "--n3max", "-1"), "caps are non-negative"),
    ], ids=["four-modes", "negative-pmax", "negative-n3max"])
    def test_unsupported_request_exit_code(self, capsys, tmp_path, text, caps, message):
        model_file = tmp_path / "request.model"
        model_file.write_text(text)
        code, out, err = run(capsys, "spectrum", "--model", str(model_file), *caps)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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
        (["--p", "3", "--q", "2", "--h0", "3.0", "--sigma", "0.2", "0.1", "--samples", "57"],
         "json", 57, "97974b2e52c572d561650a4ed385a0e415adc63859ed06652debb9dc29d6d175"),
        (["--p", "3", "--q", "1", "--h0", "1.0", "--samples", "11"],
         "table", 11, "316e6bd0fee98b4a287dae976e4ae5b4aef5eee54b5e78375f2238a6dd3214ec"),
    ], ids=["origin-json", "origin-csv", "sigma-json", "sigma-csv", "two-sigma-json",
            "3:1-csv"])
    def test_output_digest_pinned(self, capsys, tmp_path, argv, fmt, rows, digest):
        # digests taken before PhaseCurvePoint lost its always-zero sigmam1p
        # field; the two-sigma one is that of the stdlib encoder's re-dump
        out_file = tmp_path / "curve.out"
        code, out, _ = run(capsys, "phase-space", *argv, "--format", fmt,
                           "--out", str(out_file))
        assert (code, out) == (0, f"rows {rows}\n")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("sigmas, expected", [
        (MAX_MODES - 2, (0, "rows 3\n", "")),
        (MAX_MODES - 1, (2, "", f"error: need n <= {MAX_MODES} oscillators\n")),
    ], ids=["at-mode-limit", "over-mode-limit"])
    def test_mode_limit(self, capsys, sigmas, expected):
        # the two resonant modes and one spectator per --sigma value
        assert run(capsys, "phase-space", "--p", "2", "--q", "1", "--h0", "1000",
                   "--samples", "3", "--out", os.devnull,
                   "--sigma", *["0.01"] * sigmas) == expected

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

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("h0, sigma, rows", [("2.5", "0.3", 41), ("0", "0", 1)],
                             ids=["curve", "origin"])
    def test_curve_computed_once_per_sample(self, capsys, monkeypatch, fmt, h0, sigma, rows):
        calls = []
        curve_rhs = resonance._curve_rhs

        def counted(*args):
            calls.append(args)
            return curve_rhs(*args)

        monkeypatch.setattr(resonance, "_curve_rhs", counted)
        code, _, err = run(capsys, "phase-space", "--p", "2", "--q", "1", "--h0", h0,
                           "--sigma", sigma, "--samples", "41", "--format", fmt)
        assert (code, err) == (0, f"rows {rows}\n")
        assert len(calls) == rows

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


@pytest.fixture(scope="module")
def numpy_imports() -> set[str]:
    """Modules that ``import numpy`` loads, which differ between releases."""
    return imports_of(["-c", "import numpy"])


class TestPackaging:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polyads", "count", "--n", "3", "--p", "2",
             "--q", "1", "--order", "10"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "85" in proc.stdout

    def test_process_entry_freezes_the_heap_at_exit(self):
        code = ("import atexit, gc, sys\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
                "sys.argv = ['polyads', 'count', '--n', '3', '--p', '2', '--q', '1',"
                " '--order', '10', '--format', 'json']\n"
                "from polyads.cli import run\n"
                "run()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n_coef"] == 85
        label, frozen = proc.stderr.split()
        assert label == "frozen" and int(frozen) > 0

    def test_main_in_process_does_not_freeze(self, capsys):
        frozen = gc.get_freeze_count()
        assert run(capsys, "count", "--n", "3", "--p", "2", "--q", "1", "--order", "10")[0] == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("argv, code, stream, start", [
        (["--help"], 0, "stdout", "usage: polyads"),
        ([], 2, "stderr", "usage: polyads"),
        (["count", "--n", "x"], 2, "stderr", "usage: polyads count"),
    ], ids=["help", "no-command", "bad-int"])
    def test_module_exit_codes(self, argv, code, stream, start):
        proc = subprocess.run([sys.executable, "-m", "polyads", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
        assert proc.returncode == code
        assert getattr(proc, stream).startswith(start)

    def test_installed_script_is_the_process_entry(self):
        # read as text: tomllib is not in every supported Python
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert '\n[project.scripts]\npolyads = "polyads.cli:run"\n' in pyproject

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

    def test_model_import_leaves_numpy_quantum_and_cli_unloaded(self, bare_imports):
        imported = imports_of(["-c", "import polyads.model"]) - bare_imports
        assert "polyads.model" in imported
        assert not imported & {"numpy", "polyads.quantum", "polyads.cli", "dataclasses"}

    def test_worked_model_loads_without_numpy(self):
        code = ("import sys; sys.modules['numpy'] = None\n"
                "from polyads.model import cloh_model\n"
                "assert cloh_model().slot_count() == 86\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
        assert proc.returncode == 0, proc.stderr

    def test_exact_algebra_import_loads_no_dataclasses(self, bare_imports):
        imported = imports_of(["-c", "import polyads.resonance"]) - bare_imports
        assert "polyads.resonance" in imported
        # json only when the phase-curve JSON writer runs
        assert not imported & {"dataclasses", "inspect", "json"}

    def test_package_import_loads_no_submodule(self):
        imported = imports_of(["-c", "import polyads"])
        assert "polyads" in imported
        assert not {m for m in imported if m.startswith("polyads.")}

    @pytest.mark.parametrize("argv, used, unused", [
        (["count", "--n", "3", "--p", "2", "--q", "1", "--order", "10"],
         "polyads.counting",
         {"polyads.census", "polyads.monomials", "polyads.audit", "polyads.model",
          "polyads.resonance", "polyads.zpoly"}),
        (["verify-tables"],
         "polyads.counting",
         {"polyads.census", "polyads.monomials", "polyads.audit", "polyads.model",
          "polyads.resonance", "polyads.zpoly"}),
        (["enumerate", "--n", "3", "--p", "2", "--q", "1", "--order", "10", "--format", "json"],
         "polyads.census",
         {"polyads.monomials", "polyads.audit", "polyads.counting", "polyads.model",
          "polyads.resonance", "polyads.zpoly"}),
        (["audit", "--order", "30", "--p", "2", "--q", "1", "--kind", "3"],
         "polyads.audit",
         {"polyads.census", "polyads.monomials", "polyads.counting", "polyads.model",
          "polyads.resonance", "polyads.zpoly"}),
    ], ids=["count", "verify-tables", "enumerate", "audit"])
    def test_census_commands_import_only_their_module(self, argv, used, unused):
        imported = imports_of(["-m", "polyads", *argv])
        assert used in imported
        assert not imported & unused

    @pytest.mark.parametrize("argv, unloaded", [
        (["--help"], {"dataclasses", "fractions", "json"}),
        (["count", "--n", "3", "--p", "2", "--q", "1", "--order", "10"],
         {"dataclasses", "fractions"}),
        (["verify-tables"], {"dataclasses", "fractions", "json"}),
        (["enumerate", "--n", "3", "--p", "2", "--q", "1", "--order", "10", "--format", "json"],
         {"dataclasses", "fractions", "json"}),
        (["audit", "--order", "30", "--p", "2", "--q", "1", "--kind", "3"],
         {"dataclasses", "fractions"}),
        (["count", "--n", "3", "--p", "2", "--q", "1", "--order", "10", "--format", "json"],
         {"json"}),
        (["audit", "--order", "30", "--p", "2", "--q", "1", "--kind", "3", "--format", "json"],
         {"json"}),
        (["verify-tables", "--format", "json"], {"json"}),
        (["spectrum", "--model", str(FIXTURE), "--pmax", "4"],
         {"polyads.resonance", "polyads.zpoly", "fractions", "dataclasses", "json"}),
        (["phase-space", "--p", "3", "--q", "2", "--h0", "3.0", "--sigma", "0.2",
          "--samples", "5"],
         {"polyads.zpoly", "fractions", "dataclasses", "json"}),
    ], ids=["help", "count", "verify-tables", "enumerate", "audit", "count-json", "audit-json",
            "verify-tables-json", "spectrum", "phase-space"])
    def test_start_up_leaves_unused_modules_unloaded(self, bare_imports, numpy_imports, argv,
                                                     unloaded):
        # modules that site loads on some machines, or that numpy loads, are
        # not the package's doing
        imported = imports_of(["-m", "polyads", *argv]) - bare_imports
        if "numpy" in imported:
            imported -= numpy_imports
        assert "polyads.cli" in imported
        assert not imported & unloaded

    def test_spectrum_leaves_the_census_unloaded(self):
        imported = imports_of(["-m", "polyads", "spectrum", "--model", str(FIXTURE),
                               "--pmax", "4"])
        assert "polyads.quantum" in imported
        assert not imported & {"polyads.census", "polyads.monomials", "polyads.audit",
                               "polyads.counting"}

    def test_quantum_names_load_on_access(self):
        from polyads import quantum

        assert polyads.build_block is quantum.build_block
        for name in polyads.__all__:
            getattr(polyads, name)
        with pytest.raises(AttributeError):
            polyads.no_such_name

    def test_every_public_name_is_its_home_module_object(self):
        from polyads import audit, counting, model, monomials, quantum, resonance, spec, zpoly

        assert polyads.totals is counting.totals
        assert polyads.GenMonomial is monomials.GenMonomial
        assert polyads.audit_counting is audit.audit_counting is monomials.audit_counting
        assert polyads.cloh_model is model.cloh_model
        assert polyads.spectrum is quantum.spectrum
        assert polyads.ResonanceSpec is spec.ResonanceSpec
        assert polyads.ResonanceSpec is resonance.ResonanceSpec
        assert polyads.ZPolynomial is zpoly.ZPolynomial
        modules = (audit, counting, model, monomials, quantum, resonance, spec, zpoly)
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


class TestBenchmarkTracer:
    def test_traced_census_steps_reach_every_bound_name(self, tmp_path):
        # the tracer wraps and calls polyads functions by attribute name, so a
        # name that moves without its binding reads 0 here
        size = ["--n", "3", "--p", "2", "--q", "1", "--order", "10"]
        steps = [["enumerate", *size, "--format", "json"], ["count", *size, "--format", "json"],
                 ["audit", "--order", "10", "--p", "2", "--q", "1", "--kind", "3",
                  "--format", "json"], ["verify-tables", "--format", "json"]]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"steps": [["cli", [*argv, "--out", str(tmp_path / str(i))]]
                                              for i, argv in enumerate(steps)],
                                    "probe_model": None}), encoding="utf-8")
        tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        proc = subprocess.run([sys.executable, str(tracer), "--plan", str(plan), "--trace", "1"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        assert metrics["monomials.couples"] > 0
        assert metrics["monomials.audit_counting.s"] > 0
        assert metrics["counting.cells"] == 124

"""The normalized Hamiltonian as data: its coefficient slots, the
model-file grammar and the worked ClOH model.

Model files are parsed and serialized here and nowhere else. The module
loads neither numpy nor the command line.
"""

from __future__ import annotations

import math
import os
import stat
from pathlib import Path
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

from .spec import MAX_MODES, MAX_ORDER, ResonanceSpec

TermKind = Literal["dunham", "coupling", "extra"]


_TermFields = NamedTuple("_TermFields", [
    ("kind", TermKind), ("raise_exps", tuple[int, ...]), ("lower_exps", tuple[int, ...]),
    ("num_exps", tuple[int, ...]), ("coeff", float), ("coeff_text", Optional[str])])


class TermSpec(_TermFields):
    """One coefficient slot: the operator a+^raise a^lower N^num plus its
    transpose, the three exponent vectors of length n each.

    The number string N^num stands rightmost, so the written (raising)
    member weighs its source ket. ``kind`` is the model-file keyword and
    restricts the shape: "dunham" is a number string alone (no ladder, the
    pair collapses to the one diagonal operator), "coupling" a power of the
    resonance ladder (see coupling_term) and "extra" a bare ladder pair with
    no number string. Every off-diagonal term shifts occupation. A named
    tuple, validated on every construction.
    """

    __slots__ = ()

    def __new__(cls, kind: TermKind, raise_exps: tuple[int, ...], lower_exps: tuple[int, ...],
                num_exps: tuple[int, ...], coeff: float = 0.0, coeff_text: Optional[str] = None):
        if kind not in ("dunham", "coupling", "extra"):
            raise ValueError(f"unknown term kind {kind!r}")
        if not len(raise_exps) == len(lower_exps) == len(num_exps):
            raise ValueError("raise, lower and number exponents need one length")
        if min(raise_exps + lower_exps + num_exps, default=0) < 0:
            raise ValueError("exponents are non-negative")
        if kind == "dunham":
            if any(raise_exps) or any(lower_exps):
                raise ValueError("dunham terms are pure number strings")
            if not any(num_exps):
                raise ValueError("dunham term needs at least one factor")
        elif raise_exps == lower_exps:
            raise ValueError(f"{kind} term must shift occupation")
        elif kind == "extra" and any(num_exps):
            raise ValueError("extra terms carry only ladder vectors")
        return tuple.__new__(cls, (kind, raise_exps, lower_exps, num_exps, coeff, coeff_text))

    @classmethod
    def _make(cls, fields: Iterable) -> "TermSpec":
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*fields)

    @property
    def key(self) -> tuple:
        """The slot's operator, whichever keyword and form wrote it.

        A pair whose shift is lexicographically negative is keyed as its
        transpose. Only an "extra" term can shift that way, and it carries
        no number string, so the swapped pair is the same operator. Then a
        mode lowered once and raised r >= 1 times moves that pair into the
        number string, a+^r a = a+^(r-1) N: the lowering acts first and N
        stands rightmost. A mode lowered twice stays, as a+ a^2 = a N - a
        is two slots.
        """
        raise_v, lower_v = self.raise_exps, self.lower_exps
        if self.shift < (0,) * len(self.shift):
            raise_v, lower_v = lower_v, raise_v
        moved = [int(lo == 1 and r > 0) for r, lo in zip(raise_v, lower_v)]
        return (tuple(r - k for r, k in zip(raise_v, moved)),
                tuple(lo - k for lo, k in zip(lower_v, moved)),
                tuple(e + k for e, k in zip(self.num_exps, moved)))

    @property
    def shift(self) -> tuple[int, ...]:
        """Occupation change of the raising branch; zero for diagonal terms."""
        return tuple(r - l for r, l in zip(self.raise_exps, self.lower_exps))

    @property
    def degree(self) -> int:
        """Polynomial degree in the oscillator variables."""
        return sum(self.raise_exps) + sum(self.lower_exps) + 2 * sum(self.num_exps)

    def coeff_str(self) -> str:
        return self.coeff_text if self.coeff_text is not None else repr(self.coeff)


def coupling_term(spec: ResonanceSpec, m: int, num_exps: Sequence[int],
                  coeff: float = 0.0, coeff_text: Optional[str] = None) -> TermSpec:
    """The coupling slot on the m-th power of the resonance ladder:
    a1+^(p m) a2^(q m) N^num_exps plus its transpose."""
    if m < 1:
        raise ValueError("ladder power must be positive")
    rest = (0,) * (spec.n - 2)
    return TermSpec("coupling", (spec.p * m, 0) + rest, (0, spec.q * m) + rest,
                    tuple(num_exps), coeff, coeff_text)


_ModelFields = NamedTuple("_ModelFields", [
    ("spec", ResonanceSpec), ("order", int), ("terms", tuple[TermSpec, ...])])


class HamiltonianModel(_ModelFields):
    """A resonance spec plus every coefficient slot, validated on every construction."""

    __slots__ = ()

    def __new__(cls, spec: ResonanceSpec, order: int, terms: tuple[TermSpec, ...]):
        seen = set()
        for t in terms:
            key = t.key
            if key in seen:
                raise ValueError(f"duplicate term {key}")
            seen.add(key)
            if len(t.num_exps) != spec.n:
                raise ValueError(f"term {key} does not match n={spec.n}")
            if t.degree > order:
                raise ValueError(f"term {key} has degree {t.degree}, over order {order}")
            m = t.raise_exps[0] // spec.p
            if t.kind == "coupling" and (
                    m < 1 or key != coupling_term(spec, m, t.num_exps).key):
                raise ValueError(f"term {key} is no power of the {spec.p}:{spec.q} ladder")
        return tuple.__new__(cls, (spec, order, terms))

    @classmethod
    def _make(cls, fields: Iterable) -> "HamiltonianModel":
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*fields)

    def dunham_terms(self) -> list[TermSpec]:
        return [t for t in self.terms if t.kind == "dunham"]

    def off_diagonal_terms(self) -> list[TermSpec]:
        return [t for t in self.terms if t.kind != "dunham"]

    def slot_count(self) -> int:
        return len(self.terms)

    def nonzero_count(self) -> int:
        return sum(1 for t in self.terms if t.coeff != 0.0)

    def operator_count(self) -> int:
        """Monomial count with each self-adjoint ladder pair counted twice."""
        return sum(1 if t.kind == "dunham" else 2 for t in self.terms)

    def without_couplings(self) -> "HamiltonianModel":
        """Copy with every off-diagonal coefficient set to zero."""
        terms = tuple(t if t.kind == "dunham" else t._replace(coeff=0.0, coeff_text="0")
                      for t in self.terms)
        return HamiltonianModel(self.spec, self.order, terms)


def census_terms(spec: ResonanceSpec, order: int) -> tuple[TermSpec, ...]:
    """Every coefficient slot of the order-N census, all zero.

    One TermSpec per number-only monomial plus one per coupling pair, in
    canonical order; the slot count matches the closed-form coefficient
    total. A pair's two monomials differ only in the mixed generator, and
    the m = -1 member stands for it, so only the m = -1 blocks are walked.
    """
    from .census import coupling_blocks, dunham_blocks
    from .monomials import census_monomials

    n, zero = spec.n, (0,) * spec.n
    blocks = dunham_blocks(n, order) + [
        block for block in coupling_blocks(n, order, spec.p, spec.q) if block[0] == -1]
    return tuple(TermSpec("dunham", zero, zero, exps, 0.0, "0") if m is None
                 else coupling_term(spec, k, exps, 0.0, "0")
                 for m, k, exps in census_monomials(n, blocks))


# -- the model-file grammar ------------------------------------------------

_HEADER_KEYS = ("n", "p", "q", "order")
# Largest model file read. Each term line holds three length-n vectors: at
# n = 64, a file of this size with 41,664 three-mode `dunham` lines parses
# with a peak of 79 MB. The shipped worked model is 2 KB.
MAX_FILE_BYTES = 2 ** 20
_TERM_USAGE = {
    "omega": "omega <mode> <value>",
    "dunham": "dunham <factors> <value>",
    "coupling": "coupling <power> <factors|-> <value>",
    "extra": "extra <raise> <lower> <value>",
}


class ModelFileError(ValueError):
    """Model file rejected; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_exps(token: str, n: int, line_no: int, allow_empty: bool) -> tuple[int, ...]:
    if token == "-":
        if not allow_empty:
            raise ModelFileError(line_no, "at least one mode:power factor needed")
        return (0,) * n
    exps = [0] * n
    for part in token.split(","):
        mode_s, sep, power_s = part.partition(":")
        if not sep:
            raise ModelFileError(line_no, f"bad factor {part!r}, expected mode:power")
        try:
            mode = int(mode_s)
            power = int(power_s)
        except ValueError:
            raise ModelFileError(line_no, f"bad factor {part!r}, expected integers") from None
        if not 1 <= mode <= n:
            raise ModelFileError(line_no, f"mode {mode} outside 1..{n}")
        if power < 1:
            raise ModelFileError(line_no, f"power {power} must be positive")
        if exps[mode - 1]:
            raise ModelFileError(line_no, f"mode {mode} repeated")
        exps[mode - 1] = power
    return tuple(exps)


def _parse_value(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ModelFileError(line_no, f"bad coefficient {token!r}") from None
    if not math.isfinite(value):
        raise ModelFileError(line_no, f"coefficient {token!r} is not finite")
    return value


def _header_spec(header: dict[str, tuple[int, int]], line_no: int, missing_msg: str
                 ) -> tuple[ResonanceSpec, int]:
    """Spec and order from header keys mapped to (value, line), else ModelFileError."""
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ModelFileError(line_no, f"{missing_msg} {missing}")
    (n, n_line), (p, p_line), (q, q_line), (order, order_line) = (
        header[k] for k in _HEADER_KEYS)
    if n > MAX_MODES:
        raise ModelFileError(n_line, f"bad header: n is over the limit of {MAX_MODES} modes")
    try:
        spec = ResonanceSpec(n=n, p=p, q=q)
    except ValueError as exc:
        raise ModelFileError(max(n_line, p_line, q_line), f"bad header: {exc}") from None
    if order < 4:
        raise ModelFileError(order_line, "order must be at least 4")
    if order > MAX_ORDER:
        raise ModelFileError(order_line, f"bad header: order is over the limit of {MAX_ORDER}")
    return spec, order


def parse_model_text(text: str) -> HamiltonianModel:
    """Parse model-file text. Header lines first, then one term per line."""
    header: dict[str, tuple[int, int]] = {}
    terms: list[TermSpec] = []
    seen: set[tuple] = set()
    spec: Optional[ResonanceSpec] = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            if terms:
                raise ModelFileError(line_no, "header line after the first term")
            key, _, value_s = line.partition("=")
            key = key.strip()
            if key not in _HEADER_KEYS:
                raise ModelFileError(line_no, f"unknown header key {key!r}")
            if key in header:
                raise ModelFileError(line_no, f"duplicate header key {key!r}")
            try:
                value = int(value_s.strip())
            except ValueError:
                raise ModelFileError(line_no, f"bad integer for {key!r}") from None
            header[key] = (value, line_no)
            continue

        if spec is None:
            spec, order = _header_spec(header, line_no, "term before header keys")

        parts = line.split()
        kind = parts[0]
        usage = _TERM_USAGE.get(kind)
        if usage is None:
            raise ModelFileError(line_no, f"unknown term kind {kind!r}")
        if len(parts) != len(usage.split()):
            raise ModelFileError(line_no, f"expected: {usage}")
        zero = (0,) * spec.n
        coeff, coeff_text = _parse_value(parts[-1], line_no), parts[-1]
        try:
            if kind == "coupling":
                try:
                    m_exp = int(parts[1])
                except ValueError:
                    raise ModelFileError(line_no, f"bad ladder power {parts[1]!r}") from None
                term = coupling_term(spec, m_exp, _parse_exps(parts[2], spec.n, line_no, True),
                                     coeff, coeff_text)
            elif kind == "extra":
                term = TermSpec("extra", _parse_exps(parts[1], spec.n, line_no, True),
                                _parse_exps(parts[2], spec.n, line_no, True), zero,
                                coeff, coeff_text)
            else:
                token = f"{parts[1]}:1" if kind == "omega" else parts[1]
                term = TermSpec("dunham", zero, zero,
                                _parse_exps(token, spec.n, line_no, False), coeff, coeff_text)
        except ModelFileError:
            raise
        except ValueError as exc:
            raise ModelFileError(line_no, str(exc)) from None
        if term.degree > order:
            raise ModelFileError(line_no, f"degree {term.degree} exceeds order {order}")
        key = term.key
        if key in seen:
            raise ModelFileError(line_no, f"duplicate term {line!r}")
        seen.add(key)
        terms.append(term)

    if spec is None:
        spec, order = _header_spec(header, len(text.splitlines()) + 1,
                                   "missing header keys")
    return HamiltonianModel(spec=spec, order=order, terms=tuple(terms))


def parse_model_file(path: str) -> HamiltonianModel:
    """The model in the file at ``path``. Anything but a regular file, or a
    file over MAX_FILE_BYTES, raises OSError before it is opened, so that a
    FIFO cannot block the read and a device cannot fill memory."""
    info = os.stat(path)
    # a directory goes on to fail in read_bytes, with the system's message
    if not stat.S_ISREG(info.st_mode) and not stat.S_ISDIR(info.st_mode):
        raise OSError("not a regular file")
    if info.st_size > MAX_FILE_BYTES:
        raise OSError(f"over the limit of {MAX_FILE_BYTES} bytes")
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        bad = f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        raise ModelFileError(line_no, bad) from None
    return parse_model_text(text)


def _exps_token(exps: Sequence[int]) -> str:
    parts = [f"{k}:{r}" for k, r in enumerate(exps, start=1) if r]
    return ",".join(parts) if parts else "-"


def serialize_model(model: HamiltonianModel) -> str:
    """Model back to file text; coefficient texts are kept verbatim."""
    spec = model.spec
    lines = [f"n={spec.n}", f"p={spec.p}", f"q={spec.q}", f"order={model.order}"]
    for t in model.terms:
        value = t.coeff_str()
        if t.kind == "dunham":
            if sum(t.num_exps) == 1:
                mode = next(k for k, r in enumerate(t.num_exps, start=1) if r)
                lines.append(f"omega {mode} {value}")
            else:
                lines.append(f"dunham {_exps_token(t.num_exps)} {value}")
        elif t.kind == "coupling":
            lines.append(f"coupling {t.raise_exps[0] // spec.p} "
                         f"{_exps_token(t.num_exps)} {value}")
        else:
            lines.append(f"extra {_exps_token(t.raise_exps)} "
                         f"{_exps_token(t.lower_exps)} {value}")
    return "\n".join(lines) + "\n"


# -- the worked model ------------------------------------------------------


def cloh_model() -> HamiltonianModel:
    """The worked three-mode 2:1 model at order 10.

    86 coefficient slots: every number-only and coupling slot of the order
    10 census (zeros included) plus one explicit 3:1 ladder pair between
    modes 2 and 3, written in self-adjoint form. 28 of them are nonzero.
    """
    return parse_model_file(str(Path(__file__).with_name("data") / "cloh.model"))

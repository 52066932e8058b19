"""The normalized Hamiltonian as data: its coefficient slots, the
model-file grammar and the worked ClOH model.

Model files are parsed and serialized here and nowhere else. The module
loads neither numpy nor the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, Optional, Sequence

from .spec import ResonanceSpec

TermKind = Literal["dunham", "coupling", "extra"]


@dataclass(frozen=True)
class TermSpec:
    """One coefficient slot: the operator a+^raise a^lower N^num plus its
    transpose, the three exponent vectors of length n each.

    The number string N^num stands rightmost, so the written (raising)
    member weighs its source ket. ``kind`` is the model-file keyword and
    restricts the shape: "dunham" is a number string alone (no ladder, the
    pair collapses to the one diagonal operator), "coupling" a power of the
    resonance ladder (see coupling_term) and "extra" a bare ladder pair with
    no number string. Every off-diagonal term shifts occupation.
    """

    kind: TermKind
    raise_exps: tuple[int, ...]
    lower_exps: tuple[int, ...]
    num_exps: tuple[int, ...]
    coeff: float = 0.0
    coeff_text: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("dunham", "coupling", "extra"):
            raise ValueError(f"unknown term kind {self.kind!r}")
        if not len(self.raise_exps) == len(self.lower_exps) == len(self.num_exps):
            raise ValueError("raise, lower and number exponents need one length")
        if min(self.raise_exps + self.lower_exps + self.num_exps, default=0) < 0:
            raise ValueError("exponents are non-negative")
        if self.kind == "dunham":
            if any(self.raise_exps) or any(self.lower_exps):
                raise ValueError("dunham terms are pure number strings")
            if not any(self.num_exps):
                raise ValueError("dunham term needs at least one factor")
        elif not any(self.shift):
            raise ValueError(f"{self.kind} term must shift occupation")
        elif self.kind == "extra" and any(self.num_exps):
            raise ValueError("extra terms carry only ladder vectors")

    @property
    def key(self) -> tuple:
        return (self.kind, self.raise_exps, self.lower_exps, self.num_exps)

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


@dataclass(frozen=True)
class HamiltonianModel:
    """A resonance spec plus the full list of coefficient slots."""

    spec: ResonanceSpec
    order: int
    terms: tuple[TermSpec, ...]

    def __post_init__(self):
        spec = self.spec
        seen = set()
        for t in self.terms:
            key = t.key
            if key in seen:
                raise ValueError(f"duplicate term {key}")
            seen.add(key)
            if len(t.num_exps) != spec.n:
                raise ValueError(f"term {key} does not match n={spec.n}")
            if t.degree > self.order:
                raise ValueError(f"term {key} has degree {t.degree}, over order {self.order}")
            m = t.raise_exps[0] // spec.p
            if t.kind == "coupling" and (
                    m < 1 or key != coupling_term(spec, m, t.num_exps).key):
                raise ValueError(f"term {key} is no power of the {spec.p}:{spec.q} ladder")

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
        terms = tuple(t if t.kind == "dunham" else replace(t, coeff=0.0, coeff_text="0")
                      for t in self.terms)
        return HamiltonianModel(self.spec, self.order, terms)


def census_terms(spec: ResonanceSpec, order: int) -> tuple[TermSpec, ...]:
    """Every coefficient slot of the order-N census, all zero.

    One TermSpec per number-only monomial plus one per coupling pair, in
    canonical order; the slot count matches the closed-form coefficient
    total. A pair's two monomials differ only in the mixed generator, and
    the m = -1 member stands for it.
    """
    from .monomials import enumerate_coupling, enumerate_dunham

    zero = (0,) * spec.n
    terms = [TermSpec("dunham", zero, zero, mono.num_exps, 0.0, "0")
             for mono in enumerate_dunham(spec.n, order)]
    terms += [coupling_term(spec, mono.m_exp, mono.num_exps, 0.0, "0")
              for mono in enumerate_coupling(spec.n, order, spec.p, spec.q)
              if mono.m_part == -1]
    return tuple(terms)


# -- the model-file grammar ------------------------------------------------

_HEADER_KEYS = ("n", "p", "q", "order")
# Most modes a model file may declare. The parser builds length-n exponent
# vectors for every term line, so a mistyped n must fail before any of them
# is allocated; 64 is above any vibrational model the grammar is for (a
# 22-atom molecule has 3 * 22 - 6 = 60 modes).
MAX_MODES = 64
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
        if term.key in seen:
            raise ModelFileError(line_no, f"duplicate term {line!r}")
        seen.add(term.key)
        terms.append(term)

    if spec is None:
        spec, order = _header_spec(header, len(text.splitlines()) + 1,
                                   "missing header keys")
    return HamiltonianModel(spec=spec, order=order, terms=tuple(terms))


def parse_model_file(path: str) -> HamiltonianModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model_text(fh.read())


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

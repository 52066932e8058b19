"""Fock-space assembly and diagonalization of the normalized Hamiltonian.

Number-operator strings act diagonally (occupation to the power, by the
normal-form convention adopted for the quantum transcription), coupling
terms shift quanta between the resonant pair, and everything is blocked by
the conserved polyad labels. Matrices are assembled symmetrically: per term
only the raising branch is evaluated, with its number factors taken on the
source ket, and the amplitude is written at [target, source] and
[source, target]. Coefficients are real so this is exactly the Hermitian
operator pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Literal, Optional, Sequence, TextIO

import numpy as np

from .monomials import GenMonomial, enumerate_coupling, enumerate_dunham, sort_monomials
from .resonance import ResonanceSpec

FockState = tuple[int, ...]

TermKind = Literal["dunham", "coupling", "extra"]


@dataclass(frozen=True)
class TermSpec:
    """One coefficient slot of the Hamiltonian.

    kind "dunham": diagonal product of number operators N_k^{r_k}.
    kind "coupling": the self-adjoint pair built on the m-th power of the
    resonance ladder, times an optional number string (num_exps).
    kind "extra": an explicit ladder pair given by raise/lower exponent
    vectors (no number string).
    """

    kind: TermKind
    num_exps: tuple[int, ...] = ()
    m_exp: int = 0
    raise_exps: Optional[tuple[int, ...]] = None
    lower_exps: Optional[tuple[int, ...]] = None
    coeff: float = 0.0
    coeff_text: Optional[str] = None

    def __post_init__(self):
        if self.kind == "dunham":
            if self.m_exp or self.raise_exps or self.lower_exps:
                raise ValueError("dunham terms are pure number strings")
            if sum(self.num_exps) < 1:
                raise ValueError("dunham term needs at least one factor")
        elif self.kind == "coupling":
            if self.m_exp < 1:
                raise ValueError("coupling term needs a positive ladder power")
            if self.raise_exps or self.lower_exps:
                raise ValueError("coupling ladder is implied by the resonance")
        elif self.kind == "extra":
            if self.raise_exps is None or self.lower_exps is None:
                raise ValueError("extra term needs raise and lower vectors")
            if self.m_exp or self.num_exps:
                raise ValueError("extra terms carry only ladder vectors")
            if any(e < 0 for e in self.raise_exps + self.lower_exps):
                raise ValueError("ladder exponents are non-negative")
            if self.raise_exps == self.lower_exps:
                raise ValueError("extra term must shift occupation")
        else:
            raise ValueError(f"unknown term kind {self.kind!r}")

    @property
    def key(self) -> tuple:
        if self.kind == "dunham":
            return ("dunham", self.num_exps)
        if self.kind == "coupling":
            return ("coupling", self.m_exp, self.num_exps)
        return ("extra", self.raise_exps, self.lower_exps)

    def coeff_str(self) -> str:
        return self.coeff_text if self.coeff_text is not None else repr(self.coeff)


@dataclass(frozen=True)
class HamiltonianModel:
    """A resonance spec plus the full list of coefficient slots."""

    spec: ResonanceSpec
    order: int
    terms: tuple[TermSpec, ...]

    def __post_init__(self):
        n = self.spec.n
        seen = set()
        for t in self.terms:
            if t.key in seen:
                raise ValueError(f"duplicate term {t.key}")
            seen.add(t.key)
            vecs = [t.num_exps] if t.kind != "extra" else [t.raise_exps, t.lower_exps]
            for v in vecs:
                if v and len(v) != n:
                    raise ValueError(f"term {t.key} does not match n={n}")

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


# -- ladder arithmetic -----------------------------------------------------


def _falling(n: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= n - j
    return out


def _rising(n: int, k: int) -> int:
    out = 1
    for j in range(1, k + 1):
        out *= n + j
    return out


def _ladder(f: FockState, raise_v: Sequence[int], lower_v: Sequence[int]
            ) -> Optional[tuple[FockState, float]]:
    # normal order: annihilators first, then creators
    sq = 1
    target = list(f)
    for k, low in enumerate(lower_v):
        if low:
            if target[k] < low:
                return None
            sq *= _falling(target[k], low)
            target[k] -= low
    for k, high in enumerate(raise_v):
        if high:
            sq *= _rising(target[k], high)
            target[k] += high
    return tuple(target), math.sqrt(sq)


def _number_factor(f: FockState, exps: Sequence[int]) -> float:
    out = 1.0
    for n_k, r in zip(f, exps):
        if r:
            out *= float(n_k) ** r
    return out


def ladder_form(t: TermSpec, spec: ResonanceSpec
                ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(raise, lower, num_exps) of the written (raising) member of a term.

    A dunham term has an empty ladder. A coupling term raises mode 1 by
    p m and lowers mode 2 by q m; an extra term carries its own ladder and
    no number string.
    """
    n = spec.n
    if t.kind == "dunham":
        return (0,) * n, (0,) * n, t.num_exps
    if t.kind == "coupling":
        rest = (0,) * (n - 2)
        return (spec.p * t.m_exp, 0) + rest, (0, spec.q * t.m_exp) + rest, t.num_exps
    return t.raise_exps, t.lower_exps, ()


def term_shift(t: TermSpec, spec: ResonanceSpec) -> Optional[tuple[int, ...]]:
    """Occupation change of the raising branch; None for diagonal terms."""
    if t.kind == "dunham":
        return None
    raise_v, lower_v, _ = ladder_form(t, spec)
    return tuple(r - l for r, l in zip(raise_v, lower_v))


def raising_branch(t: TermSpec, f: FockState, spec: ResonanceSpec
                   ) -> Optional[tuple[FockState, float]]:
    """The written (raising) member of the pair applied to ``f``.

    Number factors are evaluated on the incoming state, matching the
    operator order with the number string rightmost.
    """
    if t.kind == "dunham":
        return None
    raise_v, lower_v, num_exps = ladder_form(t, spec)
    digits = _number_factor(f, num_exps)
    if digits == 0.0:
        return None
    hop = _ladder(f, raise_v, lower_v)
    if hop is None:
        return None
    target, amp = hop
    return target, digits * amp


def apply_term(t: TermSpec, f: FockState, spec: ResonanceSpec
               ) -> list[tuple[FockState, float]]:
    """Action of one self-adjoint term (both ladder branches) on a state.

    Diagonal terms return [(f, product of n_k^{r_k})]. Coupling terms are
    the pair R D + (R D)^T with the number string D rightmost in the
    written (raising) member, so the raising branch evaluates D on the
    incoming state and the transposed branch on the outgoing one. Extra
    terms are the plain ladder pair. Annihilation below the vacuum, or a
    vanishing number factor, silently drops a branch.
    """
    if t.kind == "dunham":
        amp = _number_factor(f, t.num_exps)
        return [(f, amp)] if amp != 0.0 else []
    out: list[tuple[FockState, float]] = []
    up = raising_branch(t, f, spec)
    if up is not None:
        out.append(up)
    raise_v, lower_v, num_exps = ladder_form(t, spec)
    hop = _ladder(f, lower_v, raise_v)
    if hop is not None:
        target, amp = hop
        digits = _number_factor(target, num_exps)
        if digits != 0.0:
            out.append((target, digits * amp))
    return out


# -- conserved labels ------------------------------------------------------


def polyad_lattice(spec: ResonanceSpec) -> list[tuple[int, ...]]:
    """The conventional labeling lattice: P = q n1 + p n2, then n3..nn."""
    n = spec.n
    rows = [tuple([spec.q, spec.p] + [0] * (n - 2))]
    for k in range(3, n + 1):
        rows.append(tuple(1 if j == k - 1 else 0 for j in range(n)))
    return rows


def _hermite(rows: Sequence[Sequence[int]], cols: int) -> tuple[list[list[int]], int]:
    """Row Hermite normal form of ``rows`` over their first ``cols`` columns.

    Python-int row operations; columns past ``cols`` ride along. Returns the
    reduced rows and the rank: rows past the rank are zero over ``cols``.
    """
    a = [list(r) for r in rows]
    rank = 0
    for c in range(cols):
        live = [i for i in range(rank, len(a)) if a[i][c]]
        if not live:
            continue
        while len(live) > 1:
            top = min(live, key=lambda i: abs(a[i][c]))
            for i in live:
                if i != top:
                    f = a[i][c] // a[top][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[top])]
            live = [i for i in live if a[i][c]]
        a[rank], a[live[0]] = a[live[0]], a[rank]
        if a[rank][c] < 0:
            a[rank] = [-x for x in a[rank]]
        pivot = a[rank]
        for i in range(rank):
            f = a[i][c] // pivot[c]
            a[i] = [x - f * y for x, y in zip(a[i], pivot)]
        rank += 1
    return a, rank


def conserved_lattice(model: HamiltonianModel) -> list[tuple[int, ...]]:
    """Z-basis of the true conserved labels, in row Hermite normal form.

    The lattice of integer vectors v with v . s = 0 for every off-diagonal
    shift vector s of the model; every such v is an integer combination of
    the rows. The basis is canonical: pivots (first nonzero entries) are
    positive, pivot columns strictly increase, and every entry above a
    pivot lies in [0, pivot). With no off-diagonal terms every occupation
    number is conserved and the basis is the identity.
    """
    n = model.spec.n
    # zero coefficients are census placeholders, not operators of the model
    shifts = [term_shift(t, model.spec) for t in model.off_diagonal_terms()
              if t.coeff != 0.0]
    k = len(shifts)
    # rows of [S^T | I]: past the rank, the I part spans the integer kernel
    rows = [[s[i] for s in shifts] + [int(i == j) for j in range(n)] for i in range(n)]
    reduced, rank = _hermite(rows, k)
    kernel, _ = _hermite([r[k:] for r in reduced[rank:]], n)
    return [tuple(r) for r in kernel]


def state_label(f: FockState, lattice: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(sum(v * o for v, o in zip(row, f)) for row in lattice)


# -- blocks ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolyadBlock:
    """One conserved-label block: basis, matrix and its spectrum."""

    label: tuple[int, ...]
    basis: tuple[FockState, ...]
    matrix: np.ndarray
    eigenvalues: tuple[float, ...]


# Largest caps box a call allocates: every candidate occupation vector is
# one int64 row, about 100 MB at n = 3.
MAX_BOX_STATES = 2 ** 22
# Largest sum of dim ** 2 over the blocks of a call: one float64 buffer
# holds every block matrix, so this holds it to 32 MB.
MAX_MATRIX_ENTRIES = 2 ** 22


def _number_factors(occ: np.ndarray, exps: Sequence[int]) -> np.ndarray:
    """_number_factor over the rows of ``occ``, with the same roundings.

    Powers are repeated products: like float ** int, they are exact while
    every n_k ** r_k stays below 2 ** 53.
    """
    out = np.ones(len(occ))
    for k, r in enumerate(exps):
        if r:
            base = occ[:, k].astype(float)
            power = base
            for _ in range(r - 1):
                power = power * base
            out = out * power
    return out


def _blocks(model: HamiltonianModel, caps: Sequence[int],
            lattice: Sequence[Sequence[int]],
            select: Callable[[np.ndarray], np.ndarray]) -> list[PolyadBlock]:
    """Assemble the blocks of the caps box whose labels pass ``select``.

    ``select`` maps the labels of the box rows to a mask. Blocks come in
    label order, each basis lexicographic. Caps over MAX_BOX_STATES
    candidates, or blocks over MAX_MATRIX_ENTRIES entries in all, raise
    ValueError before anything is allocated or assembled.

    A state's key is its box row, and each term is applied once to every
    kept state. A term whose shift changes the label leaves every block and
    is projected out whole; any other lands in the source's own block,
    unless it falls below the vacuum or past the caps, where it is dropped.
    Ladder amplitudes are square roots of exact integer products. An
    element [a, b], a before b in the basis, sums the raising branches from
    a, whose shifts are lexicographically positive, before those from b,
    whose shifts are negative. Running the positive shifts first, each
    group in model order, therefore gives the matrix assembled state by
    state. The block matrices are views of one buffer.
    """
    spec = model.spec
    n = spec.n
    dims = [max(c, -1) + 1 for c in caps]
    size = math.prod(dims)
    if size > MAX_BOX_STATES:
        raise ValueError(f"caps {tuple(caps)} span {size} candidate states, "
                         f"over the limit of {MAX_BOX_STATES}")
    lat = np.array(lattice, dtype=np.int64).reshape(len(lattice), n)
    box = np.indices(dims).reshape(n, -1).T
    labels = box @ lat.T
    rows = np.flatnonzero(select(labels))
    uniq, inverse, dim = np.unique(labels[rows], axis=0, return_inverse=True,
                                   return_counts=True)
    rows = rows[np.argsort(inverse.ravel(), kind="stable")]  # by label, then box order
    area = dim ** 2
    entries = int(area.sum())
    if entries > MAX_MATRIX_ENTRIES:
        raise ValueError(f"blocks hold {entries} matrix entries, "
                         f"over the limit of {MAX_MATRIX_ENTRIES}")
    where = np.full(size, -1)
    where[rows] = np.arange(len(rows))
    first, offset = np.cumsum(dim) - dim, np.cumsum(area) - area
    local = np.arange(len(rows)) - np.repeat(first, dim)  # position in the block
    width, base = np.repeat(dim, dim), np.repeat(offset, dim)
    diagonal = base + local * (width + 1)
    occ = box[rows]
    buf = np.zeros(entries)
    terms = [t for t in model.terms if t.coeff != 0.0]
    terms.sort(key=lambda t: (term_shift(t, spec) or (0,) * n) < (0,) * n)
    for t in terms:
        raise_v, lower_v, num_exps = ladder_form(t, spec)
        shift = np.subtract(raise_v, lower_v)
        if np.any(lat @ shift):
            continue
        digits = _number_factors(occ, num_exps)
        if t.kind == "dunham":
            buf[diagonal] += t.coeff * digits
            continue
        target = occ + shift
        src = np.flatnonzero((digits != 0.0) & np.all(occ >= lower_v, axis=1)
                             & np.all(target < dims, axis=1))
        col, row = local[src], local[where[np.ravel_multi_index(target[src].T, dims)]]
        sq = np.ones(len(src), dtype=object)
        for k, (low, high) in enumerate(zip(lower_v, raise_v)):
            for j in [*range(low), *range(low - high, low)]:
                sq = sq * (occ[src, k] - j).astype(object)
        amp = np.fromiter(map(math.sqrt, sq), dtype=float, count=len(sq))
        val = t.coeff * (digits[src] * amp)
        buf[base[src] + row * width[src] + col] += val  # distinct within one term
        buf[base[src] + col * width[src] + row] += val
    states = list(map(tuple, occ.tolist()))
    blocks = []
    for label, i, d, o in zip(uniq.tolist(), first.tolist(), dim.tolist(), offset.tolist()):
        mat = buf[o:o + d * d].reshape(d, d)
        eig = tuple(float(x) for x in np.linalg.eigvalsh(mat))
        blocks.append(PolyadBlock(label=tuple(label), basis=tuple(states[i:i + d]),
                                  matrix=mat, eigenvalues=eig))
    return blocks


def build_block(model: HamiltonianModel, label: Sequence[int],
                caps: Sequence[int],
                lattice: Sequence[Sequence[int]] | None = None) -> PolyadBlock:
    """The block of one label: every occupation vector below the caps with
    that lattice label, in lexicographic order; ValueError if none has."""
    if len(caps) != model.spec.n:
        raise ValueError("caps must cover every mode")
    if lattice is None:
        lattice = polyad_lattice(model.spec)
    label = tuple(label)
    if len(label) != len(lattice):
        raise ValueError("label length must match the lattice")
    blocks = _blocks(model, caps, lattice, lambda labels: np.all(labels == label, axis=1))
    if not blocks:
        raise ValueError(f"no basis states for label {label}")
    return blocks[0]


def dunham_energy(f: FockState, model: HamiltonianModel) -> float:
    """Diagonal energy of a basis state from the number-string terms only."""
    return sum(t.coeff * _number_factor(f, t.num_exps)
               for t in model.dunham_terms())


def spectrum(model: HamiltonianModel, pmax: int, n3max: int
             ) -> tuple[list[PolyadBlock], list[tuple[int, int, int, float]]]:
    """Every nonempty block with P <= pmax (and n3 <= n3max for three modes).

    Any coprime p:q works; a P with no states has no block. Returns the
    blocks and flat rows (P, n3, index, energy), n3 = 0 for two modes,
    ordered by label then by ascending energy within the block. Caps over
    MAX_BOX_STATES candidates, or blocks over MAX_MATRIX_ENTRIES entries
    in all, raise ValueError before any block is built.
    """
    spec = model.spec
    if spec.n not in (2, 3):
        raise ValueError("spectrum labeling is defined for 2 or 3 modes")
    if pmax < 0 or n3max < 0:
        raise ValueError("caps are non-negative")
    caps = (pmax // spec.q, pmax // spec.p, n3max)[:spec.n]
    blocks = _blocks(model, caps, polyad_lattice(spec), lambda labels: labels[:, 0] <= pmax)
    rows = [(*(b.label + (0,))[:2], idx, energy)
            for b in blocks for idx, energy in enumerate(b.eigenvalues)]
    return blocks, rows


def write_spectrum_csv(out: TextIO, rows: Iterable[tuple[int, int, int, float]]) -> int:
    out.write("P,n3,index,energy_cm1\n")
    count = 0
    for P, n3, idx, energy in rows:
        out.write(f"{P},{n3},{idx},{energy:.10g}\n")
        count += 1
    return count


# -- the worked model ------------------------------------------------------

# Fitted coefficient values for the worked three-mode 2:1 model, keyed by
# number-string exponents (diagonal slots) and by (ladder power, exponents)
# (coupling slots). Absent slots are zero. Texts are kept verbatim so the
# shipped model file round-trips.

_CLOH_DUNHAM_TEXT: dict[tuple[int, int, int], str] = {
    (1, 0, 0): "753.834", (0, 1, 0): "1258.914", (0, 0, 1): "3777.067",
    (2, 0, 0): "-7.123", (0, 2, 0): "3.204", (0, 0, 2): "-80.277",
    (1, 1, 0): "-10.637", (0, 1, 1): "-19.985",
    (3, 0, 0): "0.0825", (0, 0, 3): "-0.3619",
    (1, 2, 0): "-0.2503", (1, 0, 2): "-0.0532", (0, 1, 2): "-1.9534",
    (2, 1, 0): "-0.0802",
    (4, 0, 0): "-0.00171", (0, 4, 0): "-0.04117",
    (0, 2, 2): "-0.15070",
    (1, 3, 0): "-0.01229", (0, 1, 3): "0.13189",
    (1, 1, 2): "0.02381",
    (0, 5, 0): "0.00151",
    (0, 2, 3): "-0.00066",
}

_CLOH_COUPLING_TEXT: dict[tuple[int, tuple[int, int, int]], str] = {
    (1, (1, 0, 0)): "-0.24939", (1, (0, 0, 1)): "-0.76017",
    (1, (2, 0, 0)): "0.00583", (1, (0, 0, 2)): "-0.01158",
    (1, (1, 1, 0)): "0.04075",
}

_CLOH_EXTRA = (((0, 0, 1), (0, 3, 0)), "0.19520")


def census_terms(spec: ResonanceSpec, order: int) -> tuple[TermSpec, ...]:
    """Every coefficient slot of the order-N census, all zero.

    One TermSpec per number-only monomial plus one per deduplicated
    coupling pair, in canonical order; the slot count matches the
    closed-form coefficient total.
    """
    terms: list[TermSpec] = []
    for mono in sort_monomials(enumerate_dunham(spec.n, order)):
        terms.append(TermSpec(kind="dunham", num_exps=mono.num_exps,
                              coeff=0.0, coeff_text="0"))
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for mono in sort_monomials(enumerate_coupling(spec.n, order, spec.p, spec.q)):
        slot = (mono.m_exp, mono.num_exps)
        if slot in seen:
            continue  # one coefficient serves the pair
        seen.add(slot)
        terms.append(TermSpec(kind="coupling", m_exp=mono.m_exp,
                              num_exps=mono.num_exps, coeff=0.0, coeff_text="0"))
    return tuple(terms)


def cloh_model() -> HamiltonianModel:
    """The worked three-mode 2:1 model at order 10.

    86 coefficient slots: every number-only and coupling slot of the order
    10 census (zeros included) plus one explicit 3:1 ladder pair between
    modes 2 and 3, written in self-adjoint form. 28 of them are nonzero.
    """
    spec = ResonanceSpec(n=3, p=2, q=1)
    terms: list[TermSpec] = []
    for slot in census_terms(spec, 10):
        if slot.kind == "dunham":
            text = _CLOH_DUNHAM_TEXT.get(slot.num_exps, "0")
        else:
            text = _CLOH_COUPLING_TEXT.get((slot.m_exp, slot.num_exps), "0")
        terms.append(replace(slot, coeff=float(text), coeff_text=text))
    (raise_v, lower_v), text = _CLOH_EXTRA
    terms.append(TermSpec(kind="extra", raise_exps=raise_v, lower_exps=lower_v,
                          coeff=float(text), coeff_text=text))
    return HamiltonianModel(spec=spec, order=10, terms=tuple(terms))

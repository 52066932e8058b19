"""Fock-space assembly and diagonalization of the normalized Hamiltonian.

Number-operator strings act diagonally (occupation to the power, by the
normal-form convention adopted for the quantum transcription), coupling
terms shift quanta between the resonant pair, and everything is blocked by
the conserved polyad labels. Matrices are assembled symmetrically: per term
only the raising branch is evaluated, with its number factors taken on the
source ket, and the amplitude is written at [target, source] and
[source, target]. Coefficients are real so this is exactly the Hermitian
operator pair.

The model itself, its terms and the worked ClOH model live in
:mod:`polyads.model`; this module assembles, diagonalizes and writes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TextIO

import numpy as np

from .model import HamiltonianModel, TermSpec
from .spec import ResonanceSpec

FockState = tuple[int, ...]


# -- ladder arithmetic -----------------------------------------------------


def _ladder(f: FockState, raise_v: Sequence[int], lower_v: Sequence[int]
            ) -> Optional[tuple[FockState, float]]:
    # normal order: annihilators first, then creators; the squared amplitude
    # is the exact integer of _ladder_table
    if any(v < low for v, low in zip(f, lower_v)):
        return None
    moves = list(zip(f, lower_v, raise_v))
    sq = math.prod(math.perm(v, low) * math.perm(v - low + high, high) for v, low, high in moves)
    return tuple(v - low + high for v, low, high in moves), math.sqrt(sq)


def _number_factor(f: FockState, exps: Sequence[int]) -> float:
    out = 1.0
    for n_k, r in zip(f, exps):
        if r:
            out *= float(n_k) ** r
    return out


def raising_branch(t: TermSpec, f: FockState, spec: ResonanceSpec
                   ) -> Optional[tuple[FockState, float]]:
    """The written (raising) member of the pair applied to ``f``.

    Number factors are evaluated on the incoming state, matching the
    operator order with the number string rightmost. ``spec`` is unused,
    since the term carries its own ladder; it stays because
    ``perfbench/tracer.py`` passes it.
    """
    if t.kind == "dunham":
        return None
    digits = _number_factor(f, t.num_exps)
    if digits == 0.0:
        return None
    hop = _ladder(f, t.raise_exps, t.lower_exps)
    if hop is None:
        return None
    target, amp = hop
    return target, digits * amp


def apply_term(t: TermSpec, f: FockState, spec: ResonanceSpec
               ) -> list[tuple[FockState, float]]:
    """Action of one self-adjoint term (both ladder branches) on a state.

    Diagonal terms return [(f, product of n_k^{r_k})]. Other terms are the
    pair R D + (R D)^T with the number string D rightmost in the written
    (raising) member, so the raising branch evaluates D on the incoming
    state and the transposed branch on the outgoing one. Annihilation
    below the vacuum, or a vanishing number factor, silently drops a
    branch. ``spec`` is unused and passed on to raising_branch, whose
    signature ``perfbench/tracer.py`` fixes.
    """
    if t.kind == "dunham":
        amp = _number_factor(f, t.num_exps)
        return [(f, amp)] if amp != 0.0 else []
    out: list[tuple[FockState, float]] = []
    up = raising_branch(t, f, spec)
    if up is not None:
        out.append(up)
    hop = _ladder(f, t.lower_exps, t.raise_exps)
    if hop is not None:
        target, amp = hop
        digits = _number_factor(target, t.num_exps)
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
    shifts = [t.shift for t in model.off_diagonal_terms() if t.coeff != 0.0]
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


def _ladder_table(low: int, high: int, dim: int) -> list[int]:
    """Squared amplitude of a+^high a^low on one mode, over occupations
    0..dim-1: the exact integer v!/(v-low)! * (v-low+high)!/(v-low)!, and 0
    where the ladder falls below the vacuum or lands past dim - 1."""
    return [math.perm(v, low) * math.perm(v - low + high, high)
            if low <= v and v - low + high < dim else 0 for v in range(dim)]


def _blocks(model: HamiltonianModel, caps: Sequence[int],
            lattice: Sequence[Sequence[int]],
            select: Callable[[np.ndarray], np.ndarray]) -> list[PolyadBlock]:
    """Assemble the blocks of the caps box whose labels pass ``select``.

    ``select`` maps the labels of the box rows to a mask. Blocks come in
    label order, each basis lexicographic. Caps over MAX_BOX_STATES
    candidates, or blocks over MAX_MATRIX_ENTRIES entries in all, raise
    ValueError before anything is allocated or assembled; so does a block
    with an entry that is not finite, before it is diagonalised.

    A state's key is its box row, and each term is applied once to every
    kept state. A term whose shift changes the label leaves every block and
    is projected out whole; any other lands in the source's own block,
    unless it falls below the vacuum or past the caps, where it is dropped.
    The target's box row is the source's plus the shift dotted with the
    C-order strides of the box. Ladder amplitudes are square roots of exact
    integer products, gathered from one table per mode (_ladder_table, built
    once per call for each (low, high, dim)) that is 0 wherever the branch
    is dropped. While the product of the tables' maxima stays below 2**63
    the products are int64, else Python ints; the cast to float rounds to
    nearest either way, as math.sqrt does. An element [a, b], a before b in
    the basis, sums the raising branches from a, whose shifts are
    lexicographically positive, before those from b, whose shifts are
    negative. Running the positive shifts first, each group in model order,
    therefore gives the matrix assembled state by state. The block matrices
    are views of one buffer.
    """
    n = model.spec.n
    dims = [max(c, -1) + 1 for c in caps]
    size = math.prod(dims)
    if size > MAX_BOX_STATES:
        raise ValueError(f"caps {tuple(caps)} span {size} candidate states, "
                         f"over the limit of {MAX_BOX_STATES}")
    lat = np.array(lattice, dtype=np.int64).reshape(len(lattice), n)
    box = np.indices(dims).reshape(n, -1).T
    labels = box @ lat.T
    rows = np.flatnonzero(select(labels))
    # by label, then by box row, which is lexicographic order
    order = np.lexsort((rows, *labels[rows].T[::-1]))
    rows = rows[order]
    keys = labels[rows]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    first = np.flatnonzero(new)
    dim = np.diff(first, append=len(rows))
    area = dim ** 2
    entries = int(area.sum())
    if entries > MAX_MATRIX_ENTRIES:
        raise ValueError(f"blocks hold {entries} matrix entries, "
                         f"over the limit of {MAX_MATRIX_ENTRIES}")
    where = np.full(size, -1)
    where[rows] = np.arange(len(rows))
    offset = np.cumsum(area) - area
    local = np.arange(len(rows)) - np.repeat(first, dim)  # position in the block
    width, base = np.repeat(dim, dim), np.repeat(offset, dim)
    diagonal = base + local * (width + 1)
    occ = box[rows]
    strides = [math.prod(dims[k + 1:]) for k in range(n)]
    buf = np.zeros(entries)
    ladder_table = functools.cache(_ladder_table)  # terms share tables; this call only
    terms = [t for t in model.terms if t.coeff != 0.0]
    terms.sort(key=lambda t: t.shift < (0,) * n)
    # huge coefficients overflow to inf here; the check below rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        for t in terms:
            if np.any(lat @ t.shift):
                continue
            digits = _number_factors(occ, t.num_exps)
            if t.kind == "dunham":
                buf[diagonal] += t.coeff * digits
                continue
            tables = [(k, ladder_table(low, high, dims[k]))
                      for k, (low, high) in enumerate(zip(t.lower_exps, t.raise_exps))
                      if low or high]
            dtype = np.int64 if math.prod(max(tab) for _, tab in tables) < 2 ** 63 else object
            sq = np.ones(len(occ), dtype=dtype)
            for k, tab in tables:
                sq = sq * np.array(tab, dtype=dtype)[occ[:, k]]
            src = np.flatnonzero((digits != 0.0) & (sq != 0))
            try:
                amp = np.sqrt(sq[src].astype(float))
            except OverflowError:
                raise ValueError(f"term {t.key} has a ladder amplitude "
                                 f"past the float range") from None
            step = sum(s * stride for s, stride in zip(t.shift, strides))
            col, row = local[src], local[where[rows[src] + step]]
            val = t.coeff * (digits[src] * amp)
            buf[base[src] + row * width[src] + col] += val  # distinct within one term
            buf[base[src] + col * width[src] + row] += val
    bad = ~np.isfinite(buf)
    if bad.any():
        label = keys[first[np.searchsorted(offset, np.argmax(bad), side="right") - 1]]
        raise ValueError(f"block {tuple(label.tolist())} has matrix entries that are not finite")
    states = list(map(tuple, occ.tolist()))
    blocks = []
    for label, i, d, o in zip(keys[first].tolist(), first.tolist(), dim.tolist(),
                              offset.tolist()):
        mat = buf[o:o + d * d].reshape(d, d)
        blocks.append(PolyadBlock(label=tuple(label), basis=tuple(states[i:i + d]),
                                  matrix=mat,
                                  eigenvalues=tuple(np.linalg.eigvalsh(mat).tolist())))
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


def write_spectrum_json(out: TextIO, rows: Iterable[tuple[int, int, int, float]]) -> int:
    """The text of ``json.dump(records, out, indent=2)`` plus a newline, one
    record {"P", "n3", "index", "energy_cm1"} per row, written as it goes.

    Energies are finite floats, whose repr is the text json gives them.
    """
    count = 0
    for P, n3, idx, energy in rows:
        out.write(",\n" if count else "[\n")
        out.write(f'  {{\n    "P": {P},\n    "n3": {n3},\n    "index": {idx},\n'
                  f'    "energy_cm1": {energy!r}\n  }}')
        count += 1
    out.write("\n]\n" if count else "[]\n")
    return count

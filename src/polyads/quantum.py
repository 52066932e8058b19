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
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

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


class PolyadBlock:
    """One conserved-label block: its basis and its spectrum.

    A block holds a view of its occupation rows; ``basis``, the rows as a
    tuple of states, is built on first read and cached. The call that
    diagonalises a block does not keep its matrix. The first read of
    ``matrix`` assembles it again, through the same assembler, over the
    tight caps of the basis (the largest occupation of each mode), and
    caches it read-only: every branch that stays in the block stays in that
    box, so the entries are the same bit for bit, and no eigensolve runs.
    """

    __slots__ = ("label", "eigenvalues", "_occ", "_source", "_basis", "_matrix")

    def __init__(self, label: tuple[int, ...], occ: np.ndarray,
                 eigenvalues: tuple[float, ...], source: tuple):
        # source: the model and lattice that rebuild the matrix
        self.label, self.eigenvalues, self._occ, self._source = label, eigenvalues, occ, source
        self._basis = self._matrix = None

    @property
    def basis(self) -> tuple[FockState, ...]:
        if self._basis is None:
            self._basis = tuple(map(tuple, self._occ.tolist()))
        return self._basis

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            model, lattice = self._source
            caps = self._occ.max(axis=0).tolist()
            (_, _, (self._matrix,)), = _assemble(model, caps, lattice, _has_label(self.label))
            self._matrix.flags.writeable = False
        return self._matrix


# Largest caps box a call allocates: every candidate occupation vector is
# one int64 row, about 100 MB at n = 3.
MAX_BOX_STATES = 2 ** 22
# Largest sum of dim ** 2 over the blocks of a call: a bound on the
# assembly and eigensolve work of one call, not on its memory.
MAX_MATRIX_ENTRIES = 2 ** 22
# Largest sum of dim ** 2 assembled into one float64 buffer (512 KB); a
# larger block is a chunk of its own.
CHUNK_ENTRIES = 2 ** 16


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


def _has_label(label: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    return lambda labels: np.all(labels == label, axis=1)


def _assemble(model: HamiltonianModel, caps: Sequence[int],
              lattice: Sequence[Sequence[int]],
              select: Callable[[np.ndarray], np.ndarray]
              ) -> Iterator[tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]]:
    """Labels, occupation rows and matrices of the blocks of the caps box
    whose labels pass ``select``, one run of equal-size blocks at a time.

    ``select`` maps the labels of the box rows to a mask. Blocks come in
    label order, each basis lexicographic. Caps over MAX_BOX_STATES
    candidates, or blocks over MAX_MATRIX_ENTRIES entries in all, raise
    ValueError before anything is allocated or assembled; so does a chunk
    with an entry that is not finite, before any of its blocks is yielded.

    Consecutive blocks share one float64 buffer while their entries stay
    within CHUNK_ENTRIES. Each maximal run of k consecutive blocks of one
    dimension d in a chunk lies back to back in it, and comes as k labels,
    a (k, d, n) view of the occupation rows and a (k, d, d) view of the
    buffer: a consumer that keeps only what it derives from them holds at
    most two chunks at once. Each term's label test, ladder tables, integer
    type and box step are prepared once per call; the chunk loop only gathers.

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
    therefore gives the matrix assembled state by state.
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
    # the first block of each chunk; a chunk closes before it would pass
    # CHUNK_ENTRIES, so a block over that is a chunk of its own
    starts, filled = [], 0
    for i, a in enumerate(area.tolist()):
        if not starts or filled + a > CHUNK_ENTRIES:
            starts.append(i)
            filled = 0
        filled += a
    ends = starts[1:] + [len(area)]
    offset = np.cumsum(area) - area
    offset -= np.repeat(offset[starts], np.diff([*starts, len(area)]))  # within the chunk
    occ = box[rows]
    # per state: its position in its block, by box row, and the buffer
    # positions of the first entries of its column and of its row
    local = np.arange(len(rows)) - np.repeat(first, dim)
    width = np.repeat(dim, dim)
    column = np.repeat(offset, dim) + local
    row = column + local * (width - 1)
    position = np.full(size, -1)
    position[rows] = local
    strides = [math.prod(dims[k + 1:]) for k in range(n)]
    ladder_table = functools.cache(_ladder_table)  # terms share tables; this call only
    terms = [t for t in model.terms if t.coeff != 0.0 and not np.any(lat @ t.shift)]
    terms.sort(key=lambda t: t.shift < (0,) * n)
    prepared = []  # (term, ladder tables by mode, box step); no tables for Dunham terms
    for t in terms:
        if t.kind == "dunham":
            prepared.append((t, None, 0))
            continue
        tables = [(k, ladder_table(low, high, dims[k]))
                  for k, (low, high) in enumerate(zip(t.lower_exps, t.raise_exps))
                  if low or high]
        dtype = np.int64 if math.prod(max(tab) for _, tab in tables) < 2 ** 63 else object
        prepared.append((t, [(k, np.array(tab, dtype=dtype)) for k, tab in tables],
                         sum(s * stride for s, stride in zip(t.shift, strides))))
    for b0, b1 in zip(starts, ends):
        r0, r1 = first[b0], first[b1 - 1] + dim[b1 - 1]
        part, box_row = occ[r0:r1], rows[r0:r1]
        at_col, at_row, wide = column[r0:r1], row[r0:r1], width[r0:r1]
        buf = np.zeros(offset[b1 - 1] + area[b1 - 1])
        diagonal = np.zeros(len(part))  # only the Dunham terms write it, and nothing else
        # huge coefficients overflow to inf here; the check below rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            for t, tables, step in prepared:
                digits = _number_factors(part, t.num_exps)
                if tables is None:
                    diagonal += t.coeff * digits
                    continue
                (k, tab), *rest = tables
                sq = tab[part[:, k]]
                for k, tab in rest:
                    sq = sq * tab[part[:, k]]
                src = np.flatnonzero((digits != 0.0) & (sq != 0))
                try:
                    amp = np.sqrt(sq[src].astype(float))
                except OverflowError:
                    raise ValueError(f"term {(t.kind, t.raise_exps, t.lower_exps, t.num_exps)} "
                                     "has a ladder amplitude past the float range") from None
                val = t.coeff * (digits[src] * amp)
                target = position[box_row[src] + step]
                buf[at_col[src] + target * wide[src]] += val  # distinct within one term
                buf[at_row[src] + target] += val
            buf[at_row + local[r0:r1]] = diagonal
        bad = np.flatnonzero(~np.isfinite(buf))
        if len(bad):
            block = b0 + np.searchsorted(offset[b0:b1], bad[0], side="right") - 1
            raise ValueError(f"block {tuple(keys[first[block]].tolist())} has matrix entries "
                             "that are not finite")
        # where each run of blocks of one size starts, then the chunk's end
        runs = [b0, *(b0 + 1 + np.flatnonzero(np.diff(dim[b0:b1]))).tolist(), b1]
        for i, j in zip(runs, runs[1:]):
            o, d, s, k = offset[i], dim[i], first[i] - r0, j - i
            yield (list(map(tuple, keys[first[i:j]].tolist())),
                   part[s:s + k * d].reshape(k, d, n), buf[o:o + k * d * d].reshape(k, d, d))
        del buf


def _blocks(model: HamiltonianModel, caps: Sequence[int],
            lattice: Sequence[Sequence[int]],
            select: Callable[[np.ndarray], np.ndarray]
            ) -> Iterator[tuple[PolyadBlock, np.ndarray]]:
    """Each block of _assemble with its eigenvalues, one eigvalsh call per
    run of equal-size blocks, and the matrix they came from, a view that
    keeps its chunk alive."""
    source = (model, lattice)
    for labels, occ, mats in _assemble(model, caps, lattice, select):
        for label, rows, levels, mat in zip(labels, occ, np.linalg.eigvalsh(mats).tolist(), mats):
            yield PolyadBlock(label, rows, tuple(levels), source), mat


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
    found = list(_blocks(model, caps, lattice, _has_label(label)))
    if not found:
        raise ValueError(f"no basis states for label {label}")
    (block, mat), = found
    mat.flags.writeable = False
    block._matrix = mat  # assembled already: fill the property's cache
    return block


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
    in all, raise ValueError before any block is built; a block with an
    entry that is not finite raises it before anything is returned.

    Blocks are assembled and diagonalised one chunk of at most
    CHUNK_ENTRIES entries at a time (a larger block alone), and only their
    eigenvalues are kept, so memory follows the largest chunk and not the
    sum of dim ** 2. A returned block assembles its matrix again on first
    read of ``matrix``.

    A term whose shift changes (P, n3) is dropped whole: it couples no two
    states of one block, so it adds nothing to any level. In cloh.model
    that term is ``extra 3:1 2:3``. Blocking by the model's true conserved
    lattice (ROADMAP item 1) would keep it.
    """
    spec = model.spec
    if spec.n not in (2, 3):
        raise ValueError("spectrum labeling is defined for 2 or 3 modes")
    if pmax < 0 or n3max < 0:
        raise ValueError("caps are non-negative")
    caps = (pmax // spec.q, pmax // spec.p, n3max)[:spec.n]
    blocks = [b for b, _ in _blocks(model, caps, polyad_lattice(spec),
                                    lambda labels: labels[:, 0] <= pmax)]
    rows = [(P, n3, idx, energy) for b in blocks for P, n3 in [(b.label + (0,))[:2]]
            for idx, energy in enumerate(b.eigenvalues)]
    return blocks, rows


def write_spectrum_csv(out: TextIO, rows: Iterable[tuple[int, int, int, float]]) -> None:
    out.write("P,n3,index,energy_cm1\n")
    for P, n3, idx, energy in rows:
        out.write(f"{P},{n3},{idx},{energy:.10g}\n")


def write_spectrum_json(out: TextIO, rows: Iterable[tuple[int, int, int, float]]) -> None:
    """The text of ``json.dump(records, out, indent=2)`` plus a newline, one
    record {"P", "n3", "index", "energy_cm1"} per row, written as it goes.

    Energies are finite floats, whose repr is the text json gives them.
    """
    sep = "["  # what comes before the next record
    for P, n3, idx, energy in rows:
        out.write(f'{sep}\n  {{\n    "P": {P},\n    "n3": {n3},\n    "index": {idx},\n'
                  f'    "energy_cm1": {energy!r}\n  }}')
        sep = ","
    out.write("[]\n" if sep == "[" else "\n]\n")

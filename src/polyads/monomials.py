"""Enumeration of the independent monomials of the normalized Hamiltonian.

Monomials are products of powers of the invariant generators. One rule
gives the census at expansion order N: a power k of at most one mixed
generator (sigma_-1 or sigma_0) times action generators of total power t,
with (p+q) k + 2 t <= N. The number-only monomials (the Dunham family,
k = 0 and t >= 1, diagonal in the quantum picture) may use every action
generator; the coupling monomials (k >= 1) use at most two. The rule is a
list of blocks (m, k, t), each family's in canonical order
(:meth:`GenMonomial.sort_key`), so no caller sorts them. One memoised
recursion walks the exponent vectors of a block and builds each one
either as a tuple, for the :class:`GenMonomial` census, or as its JSON
text, which :func:`write_census_json` streams with no monomial built. The
closed-form counts are proved elsewhere (see :mod:`polyads.counting`);
here live the production enumerator, the direct brute-force oracles, and
the couple/class/multiplicity audit layer that explains why the raw sums
over-count and by exactly how much.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, KeysView, Literal, NamedTuple, Optional, TextIO


class _GenFields(NamedTuple):
    m_part: Optional[int]
    m_exp: int
    num_exps: tuple[int, ...]


class GenMonomial(_GenFields):
    """A product of generator powers.

    ``m_part`` is -1 or 0 for the mixed generator carried by a coupling
    monomial (None for the number-only family), ``m_exp`` its power and
    ``num_exps`` the powers of the n action generators. A named tuple, so it
    equals the plain tuple ``(m_part, m_exp, num_exps)``.
    """

    __slots__ = ()

    def __new__(cls, m_part: Optional[int], m_exp: int, num_exps: tuple[int, ...]):
        if m_part not in (None, -1, 0):
            raise ValueError("m_part must be None, -1 or 0")
        if (m_exp > 0) != (m_part is not None):
            raise ValueError("m_exp positive iff a mixed part is present")
        if m_exp < 0 or min(num_exps, default=0) < 0:
            raise ValueError("exponents are non-negative")
        return tuple.__new__(cls, (m_part, m_exp, num_exps))

    @classmethod
    def _make(cls, fields: Iterable) -> "GenMonomial":
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*fields)

    def z_degree(self, p: int, q: int) -> int:
        """Total degree in the underlying z variables."""
        return (p + q) * self.m_exp + 2 * sum(self.num_exps)

    def sort_key(self) -> tuple:
        # number-only first, then by mixed power; within a family graded by
        # total action degree with mode 1 leading
        rank = 0 if self.m_part is None else (1 if self.m_part == -1 else 2)
        return (rank, self.m_exp, sum(self.num_exps),
                tuple(-e for e in self.num_exps))

    def label(self) -> str:
        parts = []
        if self.m_part is not None:
            parts.append(f"s{self.m_part}" + (f"^{self.m_exp}" if self.m_exp > 1 else ""))
        for k, e in enumerate(self.num_exps, start=1):
            if e:
                parts.append(f"s{k}" + (f"^{e}" if e > 1 else ""))
        return " ".join(parts) if parts else "1"


def sort_monomials(monos: Iterable[GenMonomial]) -> list[GenMonomial]:
    return sorted(monos, key=GenMonomial.sort_key)


# JSON text of each m_part
_M_JSON = {None: "null", -1: '"-1"', 0: '"0"'}
# what json.dumps(indent=2) puts between two action exponents of a record,
# and after the last one up to the end of the record
_EXP_SEP = ",\n      "
_RECORD_TAIL = "\n    ]\n  }"


def _record_head(m_part: Optional[int], m_exp: int) -> str:
    """JSON text of a census record up to its first action exponent."""
    return (f'  {{\n    "m": {_M_JSON[m_part]},\n    "mExp": {m_exp},\n'
            f'    "numExps": [\n      ')


def monomials_to_json(monos: Iterable[GenMonomial]) -> str:
    """Serialize monomials, in the order given, as the JSON array text that
    ``json.dumps(records, indent=2)`` gives, without its pure-Python encoder."""
    records = [_record_head(m, k) + _EXP_SEP.join(map(str, exps)) + _RECORD_TAIL if exps
               # an empty vector closes on the line it opens
               else _record_head(m, k).rstrip() + "]\n  }"
               for m, k, exps in monos]
    if not records:
        return "[]"
    # the brackets go into the end records, so the one join is the only copy
    records[0] = "[\n" + records[0]
    records[-1] += "\n]"
    return ",\n".join(records)


# -- enumeration -----------------------------------------------------------

# One block of the census rule: the monomials m_part^m_exp times every
# action vector of the given total with at most ``support`` nonzero entries.
Block = tuple[Optional[int], int, int, int]


def _tuple_row(e: int, rest: tuple[int, ...] = ()) -> tuple[int, ...]:
    return (e, *rest)


def _text_row(e: int, rest: Optional[str] = None) -> str:
    return str(e) if rest is None else f"{e}{_EXP_SEP}{rest}"


def _exponent_vectors(n: int, total: int, support: int, memo: dict, row: Callable) -> list:
    """Length-n vectors with the given total and at most ``support`` nonzero
    entries, in descending lexicographic order. Each one is built by
    ``row(e, rest)`` from its first entry and the row of the others, or
    ``row(e)`` when it has one entry: _tuple_row gives tuples and _text_row
    the exponents' JSON text. ``memo`` keeps each list built, keyed by the
    other arguments, so one memo serves one kind of row."""
    key = (n, total, support)
    rows = memo.get(key)
    if rows is None:
        if n == 1:
            rows = [row(total)] if total == 0 or support else []
        else:
            rows = [row(e, rest) for e in range(total if support else 0, -1, -1)
                    for rest in _exponent_vectors(n - 1, total - e, support - (e > 0), memo, row)]
        memo[key] = rows
    return rows


def dunham_blocks(n: int, N: int) -> list[Block]:
    """The number-only blocks of the census rule up to expansion order N.

    Every exponent vector with 1 <= total <= E(N/2) is in them, the degree-1
    vectors included (their coefficients are the harmonic frequencies), so
    the census size matches the Dunham coefficient count.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if N < 4:
        raise ValueError("need N >= 4")
    return [(None, 0, t, n) for t in range(1, N // 2 + 1)]


def _check_ladder(p: int, q: int) -> None:
    # ResonanceSpec's p:q checks, less its q <= p, without loading dataclasses
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")


def coupling_blocks(n: int, N: int, p: int, q: int) -> list[Block]:
    """The coupling blocks of the census rule up to expansion order N.

    For each mixed generator m in {-1, 0}: every m^k times at most two
    action generators s_i^g s_j^r with k >= 1 and (p+q) k + 2(g+r) <= N.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _check_ladder(p, q)
    pq = p + q
    return [(m, k, t, 2) for m in (-1, 0) for k in range(1, N // pq + 1)
            for t in range((N - pq * k) // 2 + 1)]


def census_monomials(n: int, blocks: Iterable[Block]) -> KeysView[GenMonomial]:
    """The monomials of ``blocks``, in block order, as an ordered set; the
    blocks of dunham_blocks and coupling_blocks come in sort_key order."""
    memo: dict = {}
    return dict.fromkeys(
        GenMonomial(m, k, exps)
        for m, k, t, support in blocks
        for exps in _exponent_vectors(n, t, support, memo, _tuple_row)
    ).keys()


def write_census_json(fh: TextIO, n: int, blocks: Iterable[Block]) -> None:
    """Write the monomials of ``blocks`` to ``fh`` as the text of
    ``json.dumps(records, indent=2)`` and a newline, one block at a time.

    Each block is its record head and the memoised JSON texts of its
    exponent vectors, joined in one piece; no GenMonomial is built.
    """
    memo: dict = {}
    empty = True
    for m, k, t, support in blocks:
        rows = _exponent_vectors(n, t, support, memo, _text_row)
        if rows:
            head = _record_head(m, k)
            fh.write(("[\n" if empty else ",\n") + head)
            fh.write(f"{_RECORD_TAIL},\n{head}".join(rows))
            fh.write(_RECORD_TAIL)
            empty = False
    fh.write("[]\n" if empty else "\n]\n")


def enumerate_dunham(n: int, N: int) -> KeysView[GenMonomial]:
    """Number-only monomials up to expansion order N, in canonical order
    (the monomials of :func:`dunham_blocks`)."""
    return census_monomials(n, dunham_blocks(n, N))


def enumerate_coupling(n: int, N: int, p: int, q: int) -> KeysView[GenMonomial]:
    """Coupling monomials up to expansion order N, in canonical order
    (the monomials of :func:`coupling_blocks`)."""
    return census_monomials(n, coupling_blocks(n, N, p, q))


def brute_force_delta1(N: int, p: int, q: int) -> int:
    """Count distinct (p2, q2), both >= 1, with (p+q) p2 + 2 q2 <= N."""
    pq = p + q
    total = 0
    for p2 in range(1, max(0, (N - 2) // pq) + 1):
        total += max(0, (N - pq * p2) // 2)
    return total


def brute_force_delta2(N: int, p: int, q: int) -> int:
    """Count distinct (p3, gamma, r3), all >= 1, with (p+q) p3 + 2(gamma+r3) <= N."""
    pq = p + q
    total = 0
    for p3 in range(1, max(0, (N - 4) // pq) + 1):
        q3_max = (N - pq * p3) // 2
        for q3 in range(2, q3_max + 1):
            total += q3 - 1
    return total


# -- audit layer -----------------------------------------------------------


class _CoupleFields(NamedTuple):
    kind: Literal[2, 3]
    kprime: int
    qj: int
    gamma: Optional[int]


class CoupleC(_CoupleFields):
    """Exponent bookkeeping unit of the order-by-order sums.

    2-couples are (class index k', q2); 3-couples carry in addition the
    split gamma of q3 into the two action exponents, each split being its
    own couple in the population sums. A named tuple that validates on
    every construction, as :class:`GenMonomial` does.
    """

    __slots__ = ()

    def __new__(cls, kind: Literal[2, 3], kprime: int, qj: int, gamma: Optional[int] = None):
        if kind not in (2, 3):
            raise ValueError("kind is 2 or 3")
        if kprime < 1 or qj < 1:
            raise ValueError("class index and exponent are positive")
        if kind == 3:
            if gamma is None or not (1 <= gamma < qj):
                raise ValueError("3-couples need 1 <= gamma < qj")
        elif gamma is not None:
            raise ValueError("2-couples carry no gamma")
        return tuple.__new__(cls, (kind, kprime, qj, gamma))

    @classmethod
    def _make(cls, fields: Iterable) -> "CoupleC":
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*fields)

    def appearance_order(self, p: int, q: int) -> int:
        return self.kprime * (p + q) + 2 * self.qj


def cumulative_multiplicity(c: CoupleC, N: int, p: int, q: int) -> int:
    """How many expansion orders <= N contain couple ``c``.

    Zero before the couple first appears, then one more per order across
    its presence window, saturating at p+q once the window is passed
    (a switch-off couple).
    """
    n_app = c.appearance_order(p, q)
    if N < n_app:
        return 0
    return min(N - n_app + 1, p + q)


def _couple_classes(N: int, p: int, q: int, kind: Literal[2, 3]) -> Iterator[tuple[int, int]]:
    """(k', qj) of each class of couples appearing at some order <= N. A
    kind-2 class is one couple; a kind-3 class holds qj - 1, one per split
    gamma, all with the appearance order of the class. Checks p and q when
    called, before the first class is drawn."""
    _check_ladder(p, q)
    pq = p + q
    offset = 2 if kind == 2 else 4
    return ((kprime, qj) for kprime in range(1, max(0, (N - offset) // pq) + 1)
            for qj in range(offset // 2, (N - pq * kprime) // 2 + 1))


def iter_couples(N: int, p: int, q: int, kind: Literal[2, 3]) -> Iterator[CoupleC]:
    """All couples of the given kind appearing at some order <= N."""
    if kind == 2:
        return (CoupleC(2, kprime, qj) for kprime, qj in _couple_classes(N, p, q, 2))
    return (CoupleC(3, kprime, qj, gamma) for kprime, qj in _couple_classes(N, p, q, 3)
            for gamma in range(1, qj))


def lambda_raw(N: int, p: int, q: int, kind: Literal[2, 3]) -> int:
    """Raw (multiplicity-weighted) monomial count of the order-by-order sums.

    Parity-dispatched closed forms; equal to the direct sums
    sum_delta E((delta-(p+q))/2) for kind 2 and
    sum_beta Q3(Q3-1)/2 for kind 3, and also to the total cumulative
    multiplicity over all couples.
    """
    _check_ladder(p, q)
    pq = p + q
    if kind == 2:
        if N < pq + 2:
            return 0
        K = N - pq - 2
        if K % 2 == 0:
            val = (N - pq) ** 2
        else:
            val = (N - pq - 1) * (N - pq + 1)
        assert val % 4 == 0
        return val // 4
    if N < pq + 4:
        return 0
    K = N - pq - 4
    if K % 2 == 0:
        val = (N - pq - 2) * (N - pq - 1) * (N - pq)
    else:
        val = (N - pq - 3) * (N - pq - 1) * (N - pq + 1)
    assert val % 24 == 0
    return val // 24


def lambda_raw_direct(N: int, p: int, q: int, kind: Literal[2, 3]) -> int:
    """Same quantity as :func:`lambda_raw` by literal summation."""
    pq = p + q
    total = 0
    if kind == 2:
        for delta in range(pq + 2, N + 1):
            total += (delta - pq) // 2
    else:
        for beta in range(pq + 4, N + 1):
            q3_top = (beta - pq) // 2
            total += q3_top * (q3_top - 1) // 2
    return total


class MultiplicityAudit(NamedTuple):
    """Populations of the couple classes at order N.

    ``pop_class_kprime`` and ``pop_other_classes`` sum cumulative
    multiplicities over the couples still present, split by whether the
    couple sits in the top class k' = E((N-offset)/(p+q)); ``switched_off_alpha``
    sums the (maximal) multiplicities of the couples already switched off;
    ``present_without_multiplicity`` counts present couples once each.
    ``delta`` is the deduplicated monomial count recovered from them.
    """

    N: int
    p: int
    q: int
    kind: Literal[2, 3]
    lambda1_raw: int
    lambda2_raw: int
    pop_class_kprime: int
    pop_other_classes: int
    switched_off_alpha: int
    present_without_multiplicity: int
    delta: int


def audit_counting(N: int, p: int, q: int, kind: Literal[2, 3]) -> MultiplicityAudit:
    """Tally every couple's cumulative multiplicity by direct summation,
    one class of couples at a time (a kind-3 couple's multiplicity does not
    depend on its split gamma).

    Not a closed form: this is the independent audit the closed-form
    theorems are checked against. Orders below the first appearance
    threshold produce an all-zero audit.
    """
    classes = _couple_classes(N, p, q, kind)  # checks p and q
    pq = p + q
    kprime_top = (N - (2 if kind == 2 else 4)) // pq
    pop_top = 0
    pop_rest = 0
    alpha = 0
    present = 0
    for kprime, qj in classes:
        size = 1 if kind == 2 else qj - 1
        # cumulative_multiplicity of each couple in the class; all have appeared by N
        n_app = kprime * pq + 2 * qj
        mu = min(N - n_app + 1, pq)
        if N > n_app + pq - 1:
            alpha += size * mu  # switch-off couples, mu saturated at p+q
        else:
            present += size
            if kprime == kprime_top:
                pop_top += size * mu
            else:
                pop_rest += size * mu
    assert alpha % pq == 0
    return MultiplicityAudit(
        N=N, p=p, q=q, kind=kind,
        lambda1_raw=lambda_raw(N, p, q, 2), lambda2_raw=lambda_raw(N, p, q, 3),
        pop_class_kprime=pop_top,
        pop_other_classes=pop_rest,
        switched_off_alpha=alpha,
        present_without_multiplicity=present,
        delta=alpha // pq + present,
    )

"""The monomial census as :class:`GenMonomial` values.

Monomials are products of powers of the invariant generators. Here the
vectors of the census rule's blocks (:mod:`polyads.census`) become
GenMonomials, in canonical order (:meth:`GenMonomial.sort_key`).
"""

from __future__ import annotations

from typing import Iterable, KeysView, NamedTuple, Optional

# re-exported: the benchmark's perfbench/tracer.py binds both by name on this module
from .audit import audit_counting, iter_couples
from .census import Block, _prefix_chunks, coupling_blocks, dunham_blocks


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

    def label(self) -> str:
        parts = []
        if self.m_part is not None:
            parts.append(f"s{self.m_part}" + (f"^{self.m_exp}" if self.m_exp > 1 else ""))
        for k, e in enumerate(self.num_exps, start=1):
            if e:
                parts.append(f"s{k}" + (f"^{e}" if e > 1 else ""))
        return " ".join(parts) if parts else "1"

    def z_degree(self, p: int, q: int) -> int:
        """Total degree in the underlying z variables."""
        return (p + q) * self.m_exp + 2 * sum(self.num_exps)

    def sort_key(self) -> tuple:
        # number-only first, then by mixed power; within a family graded by
        # total action degree with mode 1 leading
        rank = 0 if self.m_part is None else (1 if self.m_part == -1 else 2)
        return (rank, self.m_exp, sum(self.num_exps),
                tuple(-e for e in self.num_exps))


def sort_monomials(monos: Iterable[GenMonomial]) -> list[GenMonomial]:
    return sorted(monos, key=GenMonomial.sort_key)


def monomials_to_json(monos: Iterable[GenMonomial]) -> str:
    """Serialize monomials, in the order given, as the JSON array text of
    ``json.dumps(records, indent=2)``."""
    import json

    return json.dumps([{"m": None if m is None else str(m), "mExp": k, "numExps": list(exps)}
                       for m, k, exps in monos], indent=2)


def _tuple_row(length: int, e: int, rest: tuple[int, ...] = ()) -> tuple[int, ...]:
    return (e, *rest)


def census_monomials(n: int, blocks: Iterable[Block]) -> KeysView[GenMonomial]:
    """The monomials of ``blocks``, in block order, as an ordered set; the
    blocks of dunham_blocks and coupling_blocks come in sort_key order. Each
    block is walked one prefix of :func:`_prefix_chunks` at a time."""
    memo: dict = {}
    return dict.fromkeys(
        GenMonomial(m, k, (*prefix, *rest))
        for m, k, t, support in blocks
        for prefix, rests in _prefix_chunks(n, t, support, memo, _tuple_row)
        for rest in rests
    ).keys()


def enumerate_dunham(n: int, N: int) -> KeysView[GenMonomial]:
    """Number-only monomials up to expansion order N, in canonical order
    (the monomials of :func:`dunham_blocks`)."""
    return census_monomials(n, dunham_blocks(n, N))


def enumerate_coupling(n: int, N: int, p: int, q: int) -> KeysView[GenMonomial]:
    """Coupling monomials up to expansion order N, in canonical order
    (the monomials of :func:`coupling_blocks`)."""
    return census_monomials(n, coupling_blocks(n, N, p, q))

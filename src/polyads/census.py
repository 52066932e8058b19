"""The census rule and its streaming writers, which ``enumerate`` runs.

At expansion order N the census holds a power k of at most one mixed
generator (sigma_-1 or sigma_0) times action generators of total power t,
with (p+q) k + 2 t <= N: the number-only (Dunham) family, k = 0 and t >= 1,
may use every action generator, and the coupling family, k >= 1, at most
two. The rule is a list of blocks (m, k, t), each family's in canonical
order. Every census walk streams a block through :func:`_prefix_chunks`, one
prefix of its first one or two exponents at a time, over the memoised suffix
rows of :func:`_suffix_rows`; the writers build no monomial.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional, TextIO

from .spec import MAX_CENSUS_ENTRIES, MAX_CENSUS_RECORDS, MAX_MODES, check_ladder, check_order

# One block of the census rule: the monomials m_part^m_exp times every
# action vector of the given total with at most ``support`` nonzero entries.
Block = tuple[Optional[int], int, int, int]

# what json.dumps(indent=2) puts between two action exponents of a record
_EXP_SEP = ",\n      "


def _text_row(length: int, e: int, rest: Optional[str] = None) -> str:
    return str(e) if rest is None else f"{e}{_EXP_SEP}{rest}"


def _label_row(n: int) -> Callable:
    """The row builder of the labels of length-n vectors: the row of a
    suffix of a given length is the label text of modes n-length+1..n, ""
    when they are all zero."""
    def row(length: int, e: int, rest: str = "") -> str:
        if not e:
            return rest
        part = f"s{n - length + 1}" + (f"^{e}" if e > 1 else "")
        return f"{part} {rest}" if rest else part
    return row


def _suffix_rows(n: int, total: int, support: int, memo: dict, row: Callable) -> list:
    """Length-n vectors with the given total and at most ``support`` nonzero
    entries, in descending lexicographic order, each built by ``row(n, e,
    rest)`` from its length, first entry and the row of the others, or by
    ``row(1, e)``: monomials._tuple_row gives tuples, _text_row the exponents' JSON
    text and _label_row the label text. ``memo`` keeps one list per clamped key, so
    one memo serves one kind of row; census walks call it via _prefix_chunks."""
    key = (n, total, min(support, n))
    rows = memo.get(key)
    if rows is None:
        if n == 1:
            rows = [row(1, total)] if total == 0 or support else []
        else:
            rows = [row(n, e, rest) for e in range(total if support else 0, -1, -1)
                    for rest in _suffix_rows(n - 1, total - e, support - 1 if e else support,
                                             memo, row)]
        memo[key] = rows
    return rows


def _prefix_chunks(n: int, total: int, support: int, memo: dict, row: Callable) -> Iterator[tuple]:
    """The vectors of :func:`_suffix_rows`, in order, as (prefix, memoised suffix rows); the
    prefix is two entries if n > 3 and over two may be nonzero, else one (none at n = 1)."""
    levels = 2 if n > 3 and support > 2 else min(1, n - 1)
    pairs = [((), total, support)]
    for _ in range(levels):
        pairs = [((*prefix, e), t - e, s - 1 if e else s)
                 for prefix, t, s in pairs for e in range(t if s else 0, -1, -1)]
    for prefix, t, s in pairs:
        rows = _suffix_rows(n - levels, t, s, memo, row)
        if rows:
            yield prefix, rows


def dunham_blocks(n: int, N: int) -> list[Block]:
    """The number-only blocks of the census rule up to expansion order N.

    Every exponent vector with 1 <= total <= E(N/2) is in them, the degree-1
    vectors included (their coefficients are the harmonic frequencies), so
    the census size matches the Dunham coefficient count.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    check_order(N)
    return [(None, 0, t, n) for t in range(1, N // 2 + 1)]


def coupling_blocks(n: int, N: int, p: int, q: int) -> list[Block]:
    """The coupling blocks of the census rule up to expansion order N.

    For each mixed generator m in {-1, 0}: every m^k times at most two
    action generators s_i^g s_j^r with k >= 1 and (p+q) k + 2(g+r) <= N.
    A negative N, or one over MAX_ORDER, raises ValueError.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    check_ladder(p, q)
    check_order(N)
    pq = p + q
    return [(m, k, t, 2) for m in (-1, 0) for k in range(1, N // pq + 1)
            for t in range((N - pq * k) // 2 + 1)]


def check_census(n: int, blocks: list[Block]) -> None:
    """Refuse, before any vector is built, a census of ``blocks`` over
    MAX_MODES modes (the enumeration recurses once per mode), over
    MAX_CENSUS_RECORDS records, or whose memo would hold over
    MAX_CENSUS_ENTRIES exponent entries.

    Records and entries are counted with math.comb. C(n, j) C(t-1, j-1) vectors of length
    n have j nonzero entries and total t. The entries counted are, for each
    support s, those of the vectors of every length m <= n with at most s
    nonzero entries and a total up to the largest block total t of that
    support, of which C(m, j) C(t, j) have j nonzero entries. Every walk of
    the census memoises only suffixes, none longer than n - 2 with over two
    nonzero entries, so the count is an upper bound on the entries held.
    """
    if n > MAX_MODES:
        raise ValueError(f"need n <= {MAX_MODES}")
    records = sum(sum(math.comb(n, j) * math.comb(t - 1, j - 1)
                      for j in range(1, min(support, n) + 1)) if t else 1
                  for _, _, t, support in blocks)
    if records > MAX_CENSUS_RECORDS:
        raise ValueError(f"census of {records} records is over the limit of {MAX_CENSUS_RECORDS}")
    tops: dict[int, int] = {}
    for _, _, t, support in blocks:
        tops[support] = max(t, tops.get(support, 0))
    entries = sum(m * math.comb(m, j) * math.comb(t, j) for support, t in tops.items()
                  for m in range(1, n + 1) for j in range(min(support, m) + 1))
    if entries > MAX_CENSUS_ENTRIES:
        raise ValueError(f"census of {entries} exponent entries is over the limit of "
                         f"{MAX_CENSUS_ENTRIES}")


def write_census_table(fh: TextIO, n: int, blocks: Iterable[Block]) -> None:
    """Write the label of each monomial of ``blocks`` to ``fh``, one a line,
    then ``total <count>``, one prefix of :func:`_prefix_chunks` at a time.

    A label is the mixed part and the prefix label before the memoised
    label of the suffix; no GenMonomial is built.
    """
    memo: dict = {}
    heads: dict = {}  # the head of each (mixed part, prefix): prefixes recur from block to block
    row = _label_row(n)
    total = 0
    for m, k, t, support in blocks:
        mixed = "" if m is None else f"s{m}" + (f"^{k}" if k > 1 else "")
        for prefix, labels in _prefix_chunks(n, t, support, memo, row):
            head = heads.get((mixed, prefix)) or heads.setdefault((mixed, prefix), " ".join(
                filter(None, [mixed, *map(row, range(n, 0, -1), prefix)])))
            lead = f"{head} " if head else ""
            if not labels[0]:  # one record, whose zero-total suffix is labelled ""
                lead, labels = "", [head or "1"]
            fh.write(lead + f"\n{lead}".join(labels) + "\n")
            total += len(labels)
    fh.write(f"total {total}\n")


def write_census_json(fh: TextIO, n: int, blocks: Iterable[Block]) -> None:
    """Write the monomials of ``blocks`` to ``fh`` as the text of
    ``json.dumps(records, indent=2)`` and a newline, one prefix of
    :func:`_prefix_chunks` at a time.

    The memoised JSON texts of a prefix's suffixes are joined in one piece
    by the tail of a record, the head of the next and the prefix text, so
    no text longer than a suffix is built; no GenMonomial is built.
    """
    memo: dict = {}
    leads: dict = {}  # the JSON text of each prefix, which recurs from block to block
    tail = "\n    ]\n  }"
    empty = True
    for m, k, t, support in blocks:
        m_text = "null" if m is None else f'"{m}"'
        head = f'  {{\n    "m": {m_text},\n    "mExp": {k},\n    "numExps": [\n      '
        for prefix, texts in _prefix_chunks(n, t, support, memo, _text_row):
            lead = head + (leads.get(prefix) or leads.setdefault(
                prefix, "".join([f"{e}{_EXP_SEP}" for e in prefix])))
            fh.write(("[\n" if empty else ",\n") + lead)
            fh.write(f"{tail},\n{lead}".join(texts))
            fh.write(tail)
            empty = False
    fh.write("[]\n" if empty else "\n]\n")

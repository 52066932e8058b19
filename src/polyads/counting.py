"""Closed-form counts of the normalized-Hamiltonian monomials.

The deduplicated 2- and 3-monomial counts per sum depend only on N and p+q
and split into parity cases; the totals then follow from the census sizes.
Several pieces of the formulas (the /2, /4, /8, /16 and /48 ones) are not
termwise integral, so each count sums integer numerators over one common
denominator and asserts that the division is exact.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def _decompose(N: int, pq: int, offset: int) -> tuple[int, int]:
    # N = k'(p+q) + offset + i with i in [0, p+q-1]; valid only for k' >= 1
    kprime = (N - offset) // pq
    i = (N - offset) % pq
    return kprime, i


def _check_ladder(p: int, q: int) -> None:
    # ResonanceSpec's p:q checks, less its q <= p, without loading dataclasses
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")


def _as_int(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    assert rem == 0, f"non-integer count {num}/{den}"
    return quot


def delta1_closed(N: int, p: int, q: int) -> int:
    """Independent 2-monomials per sum at order N (0 below threshold)."""
    _check_ladder(p, q)
    pq = p + q
    if N < pq + 2:
        return 0
    k, i = _decompose(N, pq, 2)
    half_i = i // 2
    # numerators over the common denominator 4
    if pq % 2 == 0:
        num = k * (4 * (1 + half_i) + (k - 1) * pq)
    elif k % 2 == 0:
        num = k * ((k - 1) * pq + 2 * i + 3)
    else:
        num = 4 * (1 + half_i) + (k - 1) * (k * pq + 2 * i + 3)
    return _as_int(num, 4)


def delta2_closed(N: int, p: int, q: int) -> int:
    """Independent 3-monomials per sum at order N (0 below threshold)."""
    _check_ladder(p, q)
    pq = p + q
    if N < pq + 4:
        return 0
    k, i = _decompose(N, pq, 4)
    e_half = i // 2
    eps = i - 2 * e_half
    # numerators over the common denominator 48: the /2 head, the /8 middle,
    # the /48 bulk and, for odd p+q, the /16 tail
    head = 24 * (e_half + 1) * (e_half + 2)
    mid = 6 * (k - 1) * (i * (i + 6) - 4 * eps * e_half - 7 * eps + 8)
    if pq % 2 == 0:
        bulk = k * (k - 1) * pq * ((2 * k - 1) * pq + 6 * (i + 3 - eps))
        tail = 0
    else:
        bulk = k * (k - 1) * pq * ((2 * k - 1) * pq + 3 * (2 * i + 5))
        if k % 2 == 0:
            tail = 3 * k * (2 * eps - 1) * (4 * e_half + pq + 5 + 2 * eps)
        else:
            tail = 3 * (k - 1) * (2 * eps - 1) * (4 * e_half - pq + 5 + 2 * eps)
    return _as_int(head + bulk + mid + tail, 48)


def lambda_dunham(n: int, N: int) -> int:
    """Size of the number-only census: sum_l C(n,l) C(Q0,l), Q0 = E(N/2)."""
    q0 = N // 2
    return sum(math.comb(n, l) * math.comb(q0, l)
               for l in range(1, min(n, q0) + 1))


class CountReport(NamedTuple):
    """All counting outputs for one (n, N, p, q)."""

    n: int
    N: int
    p: int
    q: int
    Q0: int
    Q1: int
    delta1: int
    delta2: int
    lam: int
    n_coef: int
    n_op: int
    n_c: int

    def as_dict(self) -> dict[str, int]:
        return {
            "n": self.n, "N": self.N, "p": self.p, "q": self.q,
            "Q0": self.Q0, "Q1": self.Q1,
            "delta1": self.delta1, "delta2": self.delta2, "lambda": self.lam,
            "n_coef": self.n_coef, "n_op": self.n_op, "n_c": self.n_c,
        }


def totals(n: int, N: int, p: int, q: int) -> CountReport:
    """Coefficient, monomial and coupling-monomial totals at order N.

    One formula serves every n >= 2: the n = 2 closed form Q0(Q0+3)/2 is
    the same number as the census size lambda.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if N < 0:
        raise ValueError("need N >= 0")
    d1 = delta1_closed(N, p, q)  # these two check p and q
    d2 = delta2_closed(N, p, q)
    q0 = N // 2
    q1 = N // (p + q)
    lam = lambda_dunham(n, N)
    pairs = n * (n - 1) // 2
    n_coef = lam + q1 + n * d1 + pairs * d2
    n_c = 2 * q1 + 2 * n * d1 + 2 * pairs * d2
    n_op = lam + n_c
    return CountReport(n=n, N=N, p=p, q=q, Q0=q0, Q1=q1,
                       delta1=d1, delta2=d2, lam=lam,
                       n_coef=n_coef, n_op=n_op, n_c=n_c)


# -- regression baselines --------------------------------------------------
# Frozen reference values, indexed by (N, p+q) for the delta tables and by
# p+q for the totals at n = 2, N = 10. verify-tables compares regenerated
# cells against these.

DELTA1_REFERENCE: dict[tuple[int, int], int] = {
    (4, 2): 1, (4, 3): 0, (4, 4): 0, (4, 5): 0,
    (5, 2): 1, (5, 3): 1, (5, 4): 0, (5, 5): 0,
    (6, 2): 3, (6, 3): 1, (6, 4): 1, (6, 5): 0,
    (7, 2): 3, (7, 3): 2, (7, 4): 1, (7, 5): 1,
    (8, 2): 6, (8, 3): 3, (8, 4): 2, (8, 5): 1,
    (9, 2): 6, (9, 3): 4, (9, 4): 2, (9, 5): 2,
    (10, 2): 10, (10, 3): 5, (10, 4): 4, (10, 5): 2,
    (11, 2): 10, (11, 3): 7, (11, 4): 4, (11, 5): 3,
    (12, 2): 15, (12, 3): 8, (12, 4): 6, (12, 5): 4,
    (13, 2): 15, (13, 3): 10, (13, 4): 6, (13, 5): 5,
    (14, 2): 21, (14, 3): 12, (14, 4): 9, (14, 5): 6,
    (15, 2): 21, (15, 3): 14, (15, 4): 9, (15, 5): 7,
    (16, 2): 28, (16, 3): 16, (16, 4): 12, (16, 5): 8,
    (17, 2): 28, (17, 3): 19, (17, 4): 12, (17, 5): 10,
    (18, 2): 36, (18, 3): 21, (18, 4): 16, (18, 5): 11,
}

DELTA2_REFERENCE: dict[tuple[int, int], int] = {
    (6, 2): 1, (6, 3): 0, (6, 4): 0, (6, 5): 0,
    (7, 2): 1, (7, 3): 1, (7, 4): 0, (7, 5): 0,
    (8, 2): 4, (8, 3): 1, (8, 4): 1, (8, 5): 0,
    (9, 2): 4, (9, 3): 3, (9, 4): 1, (9, 5): 1,
    (10, 2): 10, (10, 3): 4, (10, 4): 3, (10, 5): 1,
    (11, 2): 10, (11, 3): 7, (11, 4): 3, (11, 5): 3,
    (12, 2): 20, (12, 3): 9, (12, 4): 7, (12, 5): 3,
    (13, 2): 20, (13, 3): 14, (13, 4): 7, (13, 5): 6,
    (14, 2): 35, (14, 3): 17, (14, 4): 13, (14, 5): 7,
    (15, 2): 35, (15, 3): 24, (15, 4): 13, (15, 5): 11,
    (16, 2): 56, (16, 3): 29, (16, 4): 22, (16, 5): 13,
    (17, 2): 56, (17, 3): 38, (17, 4): 22, (17, 5): 18,
    (18, 2): 84, (18, 3): 45, (18, 4): 34, (18, 5): 21,
}

# (n_coef, n_op, n_c) at n = 2, N = 10, by p+q
TOTALS_REFERENCE_N10: dict[int, tuple[int, int, int]] = {
    2: (55, 90, 70),
    3: (37, 54, 34),
    4: (33, 46, 26),
    5: (27, 34, 14),
}

# one coprime representative per p+q column
_REPRESENTATIVE = {2: (1, 1), 3: (2, 1), 4: (3, 1), 5: (3, 2)}


def regenerate_table(which: int) -> list[tuple]:
    """Recompute one of the three reference tables cell by cell.

    Table 1: rows (N, p+q, delta1) for N in 4..18, p+q in 2..5.
    Table 2: same layout for delta2, N in 6..18.
    Table 3: rows (p+q, n_coef, n_op, n_c) at n = 2, N = 10.
    """
    if which == 1:
        return [(N, s, delta1_closed(N, *_REPRESENTATIVE[s]))
                for N in range(4, 19) for s in range(2, 6)]
    if which == 2:
        return [(N, s, delta2_closed(N, *_REPRESENTATIVE[s]))
                for N in range(6, 19) for s in range(2, 6)]
    if which == 3:
        rows = []
        for s in range(2, 6):
            rep = totals(2, 10, *_REPRESENTATIVE[s])
            rows.append((s, rep.n_coef, rep.n_op, rep.n_c))
        return rows
    raise ValueError("table index is 1, 2 or 3")


def verify_tables() -> list[tuple[str, tuple, int, int, bool]]:
    """Compare every regenerated cell against the frozen references.

    Returns (table name, cell key, expected, got, ok) per cell, in a
    deterministic order.
    """
    report = []
    for N, s, got in regenerate_table(1):
        exp = DELTA1_REFERENCE[(N, s)]
        report.append(("table1", (N, s), exp, got, exp == got))
    for N, s, got in regenerate_table(2):
        exp = DELTA2_REFERENCE[(N, s)]
        report.append(("table2", (N, s), exp, got, exp == got))
    for s, n_coef, n_op, n_c in regenerate_table(3):
        exp3 = TOTALS_REFERENCE_N10[s]
        for name, exp, got in zip(("n_coef", "n_op", "n_c"), exp3,
                                  (n_coef, n_op, n_c)):
            report.append(("table3", (s, name), exp, got, exp == got))
    return report

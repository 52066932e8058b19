"""Independent checks of the closed forms of :mod:`polyads.counting`: the
brute-force counters, and the couple/class/multiplicity audit that ``audit``
runs, which explains why the raw order-by-order sums over-count, and by how much.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Literal, NamedTuple, Optional

from .spec import check_ladder, check_order


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
    every construction, as :class:`polyads.monomials.GenMonomial` does.
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
    check_ladder(p, q)
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
    check_ladder(p, q)
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
    threshold produce an all-zero audit; a negative order, or one over
    MAX_ORDER, raises ValueError.
    """
    check_order(N)
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

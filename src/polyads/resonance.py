"""Invariant generators, their bracket relations and the reduced phase space.

The p:q resonance between oscillators 1 and 2 singles out n+2 monomials that
generate the invariants of the harmonic flow: two mixed monomials exchanging
quanta between the resonant pair and the n action monomials z_k z_k*. This
module builds them, checks the bracket algebra and the defining relation that
ties them together, and samples the reduced-phase-space curve.
:class:`ResonanceSpec` lives in :mod:`polyads.spec`, which loads no exact
algebra, and is re-exported here. The exact algebra (:mod:`polyads.zpoly`
and :mod:`fractions`) is imported by the functions that use it, so sampling
a curve, which works in floats, loads neither.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence, TextIO

from .spec import ResonanceSpec

if TYPE_CHECKING:
    from .zpoly import ZPolynomial


class GeneratorSet:
    """The n+2 invariant generators, keyed by id in {-1, 0, 1..n}."""

    __slots__ = ("n", "p", "q", "sigma")

    def __init__(self, n: int, p: int, q: int, sigma: dict[int, ZPolynomial]):
        self.n, self.p, self.q, self.sigma = n, p, q, sigma

    def ids(self) -> list[int]:
        return [-1, 0] + list(range(1, self.n + 1))

    def __getitem__(self, k: int) -> ZPolynomial:
        return self.sigma[k]


def generators(spec: ResonanceSpec) -> GeneratorSet:
    """Build the generator monomials for ``spec``.

    id -1 is z1*^p z2^q, id 0 is z1^p z2*^q, and id k >= 1 is z_k z_k*.
    Every one of them lies in the kernel of the harmonic adjoint.
    """
    from .zpoly import ZPolynomial

    n, p, q = spec.n, spec.p, spec.q
    zeros = [0] * n
    sig: dict[int, ZPolynomial] = {}

    a = list(zeros); b = list(zeros)
    b[0] = p; a[1] = q
    sig[-1] = ZPolynomial.monomial(n, a, b)

    a = list(zeros); b = list(zeros)
    a[0] = p; b[1] = q
    sig[0] = ZPolynomial.monomial(n, a, b)

    for k in range(1, n + 1):
        e = list(zeros)
        e[k - 1] = 1
        sig[k] = ZPolynomial.monomial(n, e, e)
    return GeneratorSet(n=n, p=p, q=q, sigma=sig)


def h0_polynomial(spec: ResonanceSpec) -> ZPolynomial:
    """The quadratic part -i sum_k w_k z_k z_k* with exact frequencies."""
    from .zpoly import CR_MINUS_I, ComplexRational, ZPolynomial

    gens = generators(spec)
    acc = ZPolynomial.zero(spec.n)
    for k, w in enumerate(spec.exact_omegas(), start=1):
        acc = acc + gens[k] * ComplexRational.of(w)
    return acc * CR_MINUS_I


def ad_h0(f: ZPolynomial, spec: ResonanceSpec) -> ZPolynomial:
    """Bracket of the quadratic part with ``f``; zero iff f is invariant."""
    from .zpoly import poisson_bracket

    if f.n != spec.n:
        raise ValueError("polynomial dimension does not match spec")
    return poisson_bracket(h0_polynomial(spec), f)


def flow_h0(z0: Sequence[complex], t: float, spec: ResonanceSpec) -> tuple[complex, ...]:
    """Harmonic flow: each component picks up the phase e^{-i w_k t}."""
    if len(z0) != spec.n:
        raise ValueError("initial point does not match spec")
    omegas = spec.float_omegas()
    return tuple(complex(z) * complex(math.cos(w * t), -math.sin(w * t))
                 for z, w in zip(z0, omegas))


# -- bracket table ---------------------------------------------------------


class BracketCheck(NamedTuple):
    """One entry of the generator bracket table."""

    pair: tuple[int, int]
    expected: ZPolynomial
    computed: ZPolynomial

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


def verify_bracket_table(spec: ResonanceSpec) -> list[BracketCheck]:
    """Compute every generator pair bracket and compare to the closed forms.

    Pairs run in id order, so each listed pair has its lower id first; the
    closed form of every unlisted pair is zero.
    """
    from .zpoly import ComplexRational, ZPolynomial, poisson_bracket

    gens = generators(spec)
    p, q = spec.p, spec.q
    table: dict[tuple[int, int], ZPolynomial] = {
        (-1, 1): gens[-1] * ComplexRational.of(0, p),
        (-1, 2): gens[-1] * ComplexRational.of(0, -q),
        (0, 1): gens[0] * ComplexRational.of(0, -p),
        (0, 2): gens[0] * ComplexRational.of(0, q),
        (-1, 0): (gens[1] ** (p - 1)) * (gens[2] ** (q - 1))
                 * (gens[2] * (p * p) - gens[1] * (q * q)) * ComplexRational.of(0, 1),
    }
    zero = ZPolynomial.zero(spec.n)
    ids = gens.ids()
    out = []
    for idx, j in enumerate(ids):
        for k in ids[idx + 1:]:
            out.append(BracketCheck(pair=(j, k), expected=table.get((j, k), zero),
                                    computed=poisson_bracket(gens[j], gens[k])))
    return out


def syzygy_residual(spec: ResonanceSpec) -> ZPolynomial:
    """Residual of the relation tying the four resonant generators.

    ((s0 + s-1)/2)^2 + ((s0 - s-1)/(2i))^2 - s1^p s2^q, which expands to
    s0 s-1 - s1^p s2^q and must vanish identically.
    """
    from fractions import Fraction

    from .zpoly import ComplexRational

    gens = generators(spec)
    half = ComplexRational.of(Fraction(1, 2))
    minus_half_i = ComplexRational.of(0, Fraction(-1, 2))  # 1/(2i)
    s_plus = (gens[0] + gens[-1]) * half
    s_minus = (gens[0] - gens[-1]) * minus_half_i
    return s_plus * s_plus + s_minus * s_minus - (gens[1] ** spec.p) * (gens[2] ** spec.q)


# -- reduced phase space ---------------------------------------------------


class PhaseCurvePoint(NamedTuple):
    """One sample of the reduced phase space cross-section sigma_-1' = 0:
    sigma1, the sigma0' values over it (upper branch first) and the defect
    of the curve's relation there."""

    sigma1: float
    branches: tuple[float, ...]
    residual: float


# Most samples one curve takes.
MAX_SAMPLES = 10 ** 5


def _curve_rhs(spec: ResonanceSpec, h0: float, fixed_sigma: Sequence[float],
               sigma1: float) -> float:
    omegas = spec.float_omegas()
    w2 = omegas[1]
    rest = h0 / w2 - (spec.q / spec.p) * sigma1
    for w, s in zip(omegas[2:], fixed_sigma):
        rest -= (w / w2) * s
    return sigma1 ** spec.p * rest ** spec.q


def phase_curve_residual(spec: ResonanceSpec, h0: float, fixed_sigma: Sequence[float],
                         sigma1: float, sigma0p: float) -> float:
    """Defect of the reduced-phase-space relation at (sigma1, sigma0p)."""
    return sigma0p ** 2 - _curve_rhs(spec, h0, fixed_sigma, sigma1)


def phase_curve(spec: ResonanceSpec, h0: float,
                fixed_sigma: Sequence[float] = (),
                samples: int = 101) -> list[PhaseCurvePoint]:
    """Sample the sigma_-1' = 0 cross-section of the reduced phase space.

    sigma1 runs over its admissible interval [0, (p/q)(h0/w2 - rest)], and
    each sample carries both branches sigma0' = +/- sqrt(rhs). A length
    zero interval collapses to the one point at the origin, with the one
    branch 0.

    Raises
    ------
    ValueError
        If h0 is too small for a nonempty admissible interval, h0 or a
        fixed action is not finite, a sample's right-hand side overflows a
        float, or fewer than 2 or more than MAX_SAMPLES samples are
        requested.
    """
    if not 2 <= samples <= MAX_SAMPLES:
        raise ValueError(f"need between 2 and {MAX_SAMPLES} samples")
    if len(fixed_sigma) != max(spec.n - 2, 0):
        raise ValueError("fixed_sigma must cover modes 3..n")
    if not all(map(math.isfinite, (h0, *fixed_sigma))):
        raise ValueError("h0 and the fixed actions must be finite")
    if any(s < 0 for s in fixed_sigma):
        raise ValueError("action values are non-negative")
    omegas = spec.float_omegas()
    w2 = omegas[1]
    budget = h0 / w2 - sum((w / w2) * s for w, s in zip(omegas[2:], fixed_sigma))
    if budget < 0:
        raise ValueError("h0 below the minimum for the requested actions")
    top = (spec.p / spec.q) * budget
    grid = [top * idx / (samples - 1) for idx in range(samples)] if top else [0.0]
    points: list[PhaseCurvePoint] = []
    for s1 in grid:
        try:
            rhs = _curve_rhs(spec, h0, fixed_sigma, s1)
        except OverflowError:
            rhs = math.inf
        if not math.isfinite(rhs):
            raise ValueError(f"curve overflows a float at sigma1 = {s1!r}")
        root = math.sqrt(max(rhs, 0.0))
        branches = (root, -root) if top else (0.0,)  # the origin's one branch is +0
        points.append(PhaseCurvePoint(s1, branches, root ** 2 - rhs))
    return points


def write_phase_curve_csv(out: TextIO, points: Sequence[PhaseCurvePoint]) -> None:
    """Write the points of ``phase_curve`` as CSV, one row per point."""
    out.write("sigma1,sigma0p_plus,sigma0p_minus,residual\n")
    out.write("".join(f"{pt.sigma1:.17g},{pt.branches[0]:.17g},{pt.branches[-1]:.17g},"
                      f"{pt.residual:.17g}\n" for pt in points))


def write_phase_curve_json(out: TextIO, points: Sequence[PhaseCurvePoint]) -> None:
    """Write the points of ``phase_curve`` as indented JSON, one record per
    branch."""
    import json

    json.dump([{"sigma1": pt.sigma1, "sigma0p": sigma0p, "residual": pt.residual}
               for pt in points for sigma0p in pt.branches], out, indent=2)
    out.write("\n")

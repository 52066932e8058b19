"""Operator census and quantum assembly for p:q resonance Hamiltonians.

The package splits along the natural fault lines of the problem: exact
polynomial algebra over the oscillator variables (:mod:`polyads.zpoly`),
the invariant generators with their bracket relations and reduced phase
space (:mod:`polyads.resonance`), the monomial census with its brute-force
oracles and population audit (:mod:`polyads.monomials`), the closed-form
counting theorems and frozen reference tables (:mod:`polyads.counting`),
Fock-space assembly and block diagonalization (:mod:`polyads.quantum`),
and a command line front end (:mod:`polyads.cli`).

The :mod:`polyads.quantum` names load on first access, so numpy is imported
only by code that builds spectra.
"""

from .counting import (
    CountReport,
    delta1_closed,
    delta2_closed,
    lambda_dunham,
    regenerate_table,
    totals,
    verify_tables,
)
from .monomials import (
    CoupleC,
    GenMonomial,
    MultiplicityAudit,
    audit_counting,
    brute_force_delta1,
    brute_force_delta2,
    cumulative_multiplicity,
    enumerate_coupling,
    enumerate_dunham,
    lambda_raw,
    monomials_to_json,
    sort_monomials,
)
from .resonance import (
    GeneratorSet,
    PhaseCurvePoint,
    ResonanceSpec,
    ad_h0,
    flow_h0,
    generators,
    h0_polynomial,
    phase_curve,
    syzygy_residual,
    verify_bracket_table,
)
from .zpoly import ComplexRational, ZMonomial, ZPolynomial, poisson_bracket

__version__ = "0.1.0"


def __getattr__(name: str):
    # names in __all__ left unbound here live in polyads.quantum
    if name in __all__:
        from . import quantum

        return getattr(quantum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ComplexRational",
    "CountReport",
    "CoupleC",
    "FockState",
    "GenMonomial",
    "GeneratorSet",
    "HamiltonianModel",
    "MultiplicityAudit",
    "PhaseCurvePoint",
    "PolyadBlock",
    "ResonanceSpec",
    "TermSpec",
    "ZMonomial",
    "ZPolynomial",
    "ad_h0",
    "apply_term",
    "audit_counting",
    "brute_force_delta1",
    "brute_force_delta2",
    "build_block",
    "census_terms",
    "cloh_model",
    "conserved_lattice",
    "coupling_term",
    "cumulative_multiplicity",
    "delta1_closed",
    "delta2_closed",
    "dunham_energy",
    "enumerate_coupling",
    "enumerate_dunham",
    "flow_h0",
    "generators",
    "h0_polynomial",
    "lambda_dunham",
    "lambda_raw",
    "monomials_to_json",
    "phase_curve",
    "poisson_bracket",
    "polyad_lattice",
    "regenerate_table",
    "sort_monomials",
    "spectrum",
    "syzygy_residual",
    "totals",
    "verify_bracket_table",
    "verify_tables",
    "__version__",
]

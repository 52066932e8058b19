"""Operator census and quantum assembly for p:q resonance Hamiltonians.

The package splits along the natural fault lines of the problem: the
problem sizes of one resonant system (:mod:`polyads.spec`), exact
polynomial algebra over the oscillator variables (:mod:`polyads.zpoly`),
the invariant generators with their bracket relations and reduced phase
space (:mod:`polyads.resonance`), the monomial census with its brute-force
oracles and population audit (:mod:`polyads.monomials`), the closed-form
counting theorems and frozen reference tables (:mod:`polyads.counting`),
the model's coefficient slots, its file grammar and the worked ClOH model
(:mod:`polyads.model`), Fock-space assembly and block diagonalization
(:mod:`polyads.quantum`), and a command line front end (:mod:`polyads.cli`).

Importing the package loads none of its submodules. Each public name is
looked up in its home module on first access, so a caller pays only for
the modules it uses: numpy, for one, is imported only by code that builds
spectra.
"""

import importlib

__version__ = "0.1.0"

# home module of each public name
_HOME = {
    name: module
    for module, names in {
        "counting": ("CountReport", "delta1_closed", "delta2_closed", "lambda_dunham",
                     "regenerate_table", "totals", "verify_tables"),
        "monomials": ("CoupleC", "GenMonomial", "MultiplicityAudit", "audit_counting",
                      "brute_force_delta1", "brute_force_delta2", "cumulative_multiplicity",
                      "enumerate_coupling", "enumerate_dunham", "lambda_raw",
                      "monomials_to_json", "sort_monomials"),
        "model": ("HamiltonianModel", "TermSpec", "census_terms", "cloh_model",
                  "coupling_term"),
        "quantum": ("FockState", "PolyadBlock", "apply_term", "build_block",
                    "conserved_lattice", "dunham_energy", "polyad_lattice", "spectrum"),
        "resonance": ("GeneratorSet", "PhaseCurvePoint", "ad_h0", "flow_h0", "generators",
                      "h0_polynomial", "phase_curve", "syzygy_residual",
                      "verify_bracket_table"),
        "spec": ("ResonanceSpec",),
        "zpoly": ("ComplexRational", "ZMonomial", "ZPolynomial", "poisson_bracket"),
    }.items()
    for name in names
}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Exact-algebra workload: the library path that has no command line.

Builds two rational-coefficient Hamiltonians on the census of the resonance
named in the input file, each a sum of products of the invariant generators,
takes their Poisson bracket and applies the harmonic adjoint to the result.
It then checks the generator bracket table and the syzygy. The bracket of
two invariants is invariant, so every residual it writes must be exactly 0.

    python perfbench/algebra.py --input IN.json --out OUT.json

Functions are looked up on their modules at call time, so the span recorder
in ``tracer.py`` sees every call.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction

from polyads import monomials, resonance, zpoly


def hamiltonian(gens, census, coeffs) -> zpoly.ZPolynomial:
    """Sum of coefficient times generator product over the census."""
    acc = zpoly.ZPolynomial.zero(gens.n)
    for mono, (num, den) in zip(census, coeffs, strict=True):
        term = zpoly.ZPolynomial.one(gens.n)
        if mono.m_part is not None:
            term = term * gens[mono.m_part] ** mono.m_exp
        for k, e in enumerate(mono.num_exps, start=1):
            if e:
                term = term * gens[k] ** e
        acc = acc + term * zpoly.ComplexRational.of(Fraction(num, den))
    return acc


def run(data: dict) -> dict:
    n, p, q, order = data["n"], data["p"], data["q"], data["order"]
    spec = resonance.ResonanceSpec(n=n, p=p, q=q)
    census = monomials.sort_monomials(
        monomials.enumerate_dunham(n, order) | monomials.enumerate_coupling(n, order, p, q))
    gens = resonance.generators(spec)
    h1 = hamiltonian(gens, census, data["h1"])
    h2 = hamiltonian(gens, census, data["h2"])
    bracket = zpoly.poisson_bracket(h1, h2)
    drift = resonance.ad_h0(bracket, spec)
    table = resonance.verify_bracket_table(spec)
    syzygy = resonance.syzygy_residual(spec)
    return {
        "census_size": len(census),
        "bracket_terms": bracket.num_terms(),
        "ad_h0_terms": drift.num_terms(),
        "bracket_table_failures": sum(1 for entry in table if not entry.ok),
        "syzygy_terms": syzygy.num_terms(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.input, encoding="utf-8") as fh:
        data = json.load(fh)
    result = run(data)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

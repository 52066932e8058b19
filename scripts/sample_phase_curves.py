"""Sample reduced-phase-space cross sections for a few resonance ratios.

For each (p, q) the script writes one CSV per energy value and prints the
curve's maximum excursion together with where it sits, which is enough to
eyeball the flattening of the curve as p + q grows.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from polyads import ResonanceSpec, phase_curve
from polyads.resonance import write_phase_curve_csv

RATIOS = [(1, 1), (2, 1), (3, 1), (3, 2)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--energies", type=float, nargs="+", default=[0.5, 1.0, 2.0],
                        help="h0 values in units of the second frequency")
    parser.add_argument("--samples", type=int, default=201)
    parser.add_argument("--outdir", type=Path, default=Path("phase_curves"))
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    for p, q in RATIOS:
        spec = ResonanceSpec(n=2, p=p, q=q)
        w2 = spec.float_omegas()[1]
        for h_rel in args.energies:
            h0 = h_rel * w2
            points = phase_curve(spec, h0, (), args.samples)
            peak = max(points, key=lambda pt: pt.branches[0])
            path = args.outdir / f"curve_p{p}q{q}_h{h_rel:g}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                write_phase_curve_csv(fh, points)
            print(f"p={p} q={q} h0/w2={h_rel:g}: max sigma0' = {peak.branches[0]:.6f} "
                  f"at sigma1 = {peak.sigma1:.6f} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

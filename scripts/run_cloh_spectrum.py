"""Diagonalize the worked three-mode 2:1 model and write its level list.

Builds every polyad block up to the requested caps, writes the CSV level
list, and prints a short digest: block count, level count, and the lowest
levels of the first few polyads with their diagonal-only counterparts so
the size of the resonance shifts is visible at a glance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from polyads import cloh_model, dunham_energy, spectrum
from polyads.quantum import write_spectrum_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=38)
    parser.add_argument("--n3max", type=int, default=7)
    parser.add_argument("--out", type=Path, default=Path("cloh_levels.csv"))
    args = parser.parse_args()

    model = cloh_model()
    blocks, rows = spectrum(model, args.pmax, args.n3max)
    with open(args.out, "w", encoding="utf-8") as fh:
        count = write_spectrum_csv(fh, rows)
    print(f"{len(blocks)} blocks, {count} levels -> {args.out}")

    print("\nlowest level per small polyad (full vs diagonal-only, cm-1):")
    for block in blocks:
        P, n3 = block.label
        if P > 6 or n3 > 0:
            continue
        bare = min(dunham_energy(f, model) for f in block.basis)
        full = block.eigenvalues[0]
        print(f"  P={P} n3={n3}: {full:12.4f}  vs  {bare:12.4f}  "
              f"(shift {full - bare:+8.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

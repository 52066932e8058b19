"""Regenerate the counting tables and check them against the frozen cells.

Prints the two delta tables over the published (N, p+q) grid and the totals
table at order 10, each cell computed from the closed forms, then replays
the frozen-reference comparison and exits nonzero on any mismatch.
"""

from __future__ import annotations

import argparse
import sys

from polyads import regenerate_table, verify_tables


def print_delta_table(which: int) -> None:
    rows = regenerate_table(which)
    pq_values = sorted({pq for _, pq, _ in rows})
    n_values = sorted({N for N, _, _ in rows})
    cell = {(N, pq): v for N, pq, v in rows}
    header = "N   " + "".join(f"p+q={pq:<4}" for pq in pq_values)
    print(header)
    for N in n_values:
        line = f"{N:<4}" + "".join(f"{cell[(N, pq)]:<8}" for pq in pq_values)
        print(line)


def print_totals_table() -> None:
    print("p+q  n_coef  n_op  n_c")
    for pq, n_coef, n_op, n_c in regenerate_table(3):
        print(f"{pq:<5}{n_coef:<8}{n_op:<6}{n_c}")


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    print("== single-action coupling deltas ==")
    print_delta_table(1)
    print()
    print("== two-action coupling deltas ==")
    print_delta_table(2)
    print()
    print("== totals for two modes at order 10 ==")
    print_totals_table()

    failures = [r for r in verify_tables() if not r[4]]
    print()
    if failures:
        for table, key, expected, got, _ in failures:
            print(f"MISMATCH {table} {key}: expected {expected}, got {got}")
        return 1
    print("all frozen cells match")
    return 0


if __name__ == "__main__":
    sys.exit(main())

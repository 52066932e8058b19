"""Command line front end.

Subcommands cover the counting reports, monomial census dumps, the frozen
reference-table check, the appendix-style multiplicity audit, quantum
spectra from a model file, and reduced-phase-space curves. This module
holds argument parsing, dispatch and output only: model files are read by
:mod:`polyads.model`, and everything numerical is delegated.

Exit codes: 0 success, 1 verification failure, 2 usage, parse or output error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from typing import Iterator, Optional, Sequence, TextIO


# -- output plumbing -------------------------------------------------------


@contextlib.contextmanager
def _output(out_path: Optional[str]) -> Iterator[TextIO]:
    """The file at ``out_path``, or stdout when no path is given."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out_path: Optional[str]) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _json(value, pad: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)``, without importing json, for
    what the records here hold: ints, names that need no escape, lists, dicts."""
    inner = pad + "  "
    if isinstance(value, dict):
        items, ends = [f'"{key}": {_json(v, inner)}' for key, v in value.items()], "{}"
    elif isinstance(value, list):
        items, ends = [_json(v, inner) for v in value], "[]"
    else:
        return f'"{value}"' if isinstance(value, str) else str(value)
    return f"{ends[0]}{inner}{f',{inner}'.join(items)}{pad}{ends[1]}" if items else ends


def _emit_record(data: dict, args: argparse.Namespace) -> None:
    """One flat record as indented JSON, or as an aligned key/value table."""
    if args.format == "json":
        text = _json(data) + "\n"
    else:
        width = max(map(len, data))
        text = "".join(f"{k.ljust(width)}  {v}\n" for k, v in data.items())
    _emit(text, args.out)


# -- subcommands -----------------------------------------------------------
# Each one imports what it uses when it runs, so that a census command starts
# without numpy or the exact algebra.


def _cmd_count(args: argparse.Namespace) -> int:
    from .counting import totals

    _emit_record(totals(args.n, args.order, args.p, args.q).as_dict(), args)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .census import (check_census, coupling_blocks, dunham_blocks, write_census_json,
                         write_census_table)

    blocks = []
    if args.kind in ("dunham", "both"):
        blocks += dunham_blocks(args.n, args.order)
    if args.kind in ("coupling", "both"):
        blocks += coupling_blocks(args.n, args.order, args.p, args.q)
    check_census(args.n, blocks)
    write = write_census_json if args.format == "json" else write_census_table
    with _output(args.out) as fh:
        write(fh, args.n, blocks)
    return 0


_GRIDS = {"table1": ("single-action coupling deltas", "N", "p+q={}", 3),
          "table2": ("two-action coupling deltas", "N", "p+q={}", 3),
          "table3": ("totals for two modes at order 10", "p+q", "{}", 2)}


def _grid(rows: list, title: str, corner: str, heading: str, gap: int) -> str:
    """The checked values of one table's cells under ``title``: a row per key[0] and a
    column per key[1], each column as wide as its heading and ``gap`` blanks."""
    cells = {key: got for _, key, _, got, _ in rows}
    cols = dict.fromkeys(c for _, c in cells)
    head = [corner, *map(heading.format, cols)]
    body = [[r, *(cells[r, c] for c in cols)] for r in dict.fromkeys(r for r, _ in cells)]
    lines = ("".join(f"{v:<{len(h) + gap}}" for v, h in zip(row, head)).rstrip()
             for row in [head, *body])
    return "\n".join([f"== {title} ==", *lines]) + "\n"


def _cmd_verify_tables(args: argparse.Namespace) -> int:
    from .counting import verify_tables

    rows = verify_tables()
    per_table: dict[str, list] = {}
    for row in rows:
        per_table.setdefault(row[0], []).append(row)
    failures = [row for row in rows if not row[4]]

    def cell_name(table: str, key: tuple) -> str:
        if isinstance(key[1], str):
            return f"{table}[p+q={key[0]},{key[1]}]"
        return f"{table}[N={key[0]},p+q={key[1]}]"

    if args.format == "json":
        payload = {
            "cells": len(rows),
            "tables": {t: len(v) for t, v in sorted(per_table.items())},
            "failures": [
                {"cell": cell_name(t, key), "expected": exp, "got": got}
                for t, key, exp, got, _ in failures
            ],
        }
        _emit(_json(payload) + "\n", args.out)
    else:
        lines = [_grid(cells, *_GRIDS[table]) + "\n" for table, cells in per_table.items()]
        for table, table_rows in sorted(per_table.items()):
            good = sum(1 for r in table_rows if r[4])
            lines.append(f"{table}: {good}/{len(table_rows)} cells match\n")
        for t, key, exp, got, _ in failures:
            lines.append(f"MISMATCH {cell_name(t, key)}: expected {exp}, got {got}\n")
        verdict = ("all tables verified" if not failures
                   else f"{len(failures)} cells differ")
        lines.append(verdict + "\n")
        _emit("".join(lines), args.out)
    return 1 if failures else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .audit import audit_counting

    _emit_record(audit_counting(args.order, args.p, args.q, args.kind)._asdict(), args)
    return 0


def parse_model_file(path: str) -> "HamiltonianModel":
    """The model in the file at ``path``, with the path in every error.

    The spectrum command's loader, and the name under which the benchmark
    tracer times the parse. It imports :mod:`polyads.model` when called, so
    that the census commands start without it.
    """
    from . import model

    try:
        return model.parse_model_file(path)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from None
    except model.ModelFileError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from .quantum import spectrum, write_spectrum_csv, write_spectrum_json

    blocks, rows = spectrum(parse_model_file(args.model), args.pmax, args.n3max)
    with _output(args.out) as fh:
        if args.format == "json":
            write_spectrum_json(fh, rows)
        else:
            write_spectrum_csv(fh, rows)
    summary = f"blocks {len(blocks)} levels {len(rows)}\n"
    (sys.stdout if args.out else sys.stderr).write(summary)
    return 0


def _cmd_phase_space(args: argparse.Namespace) -> int:
    from .resonance import (ResonanceSpec, phase_curve, write_phase_curve_csv,
                            write_phase_curve_json)

    fixed = tuple(args.sigma)
    spec = ResonanceSpec(n=2 + len(fixed), p=args.p, q=args.q)
    # flag value is h0 over the second frequency; rescale to the
    # exact-unit convention (second frequency = p) phase_curve expects
    points = phase_curve(spec, args.h0 * spec.float_omegas()[1], fixed, args.samples)
    with _output(args.out) as fh:
        if args.format == "json":
            write_phase_curve_json(fh, points)
        else:
            write_phase_curve_csv(fh, points)
    summary = f"rows {len(points)}\n"
    (sys.stdout if args.out else sys.stderr).write(summary)
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyads",
        description="Operator census and quantum assembly for p:q resonance Hamiltonians.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table",
                        help="output style (CSV commands emit CSV in table mode)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[common],
                             help="coefficient and operator totals")
    p_count.add_argument("--n", type=int, required=True, help="number of modes")
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--q", type=int, required=True)
    p_count.add_argument("--order", type=int, required=True,
                         help="maximum expansion order")
    p_count.set_defaults(func=_cmd_count)

    p_enum = sub.add_parser("enumerate", parents=[common],
                            help="dump the monomial census")
    p_enum.add_argument("--kind", choices=("dunham", "coupling", "both"),
                        default="both")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--p", type=int, default=1)
    p_enum.add_argument("--q", type=int, default=1)
    p_enum.add_argument("--order", type=int, required=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser("verify-tables", parents=[common],
                              help="check every frozen reference-table cell")
    p_verify.set_defaults(func=_cmd_verify_tables)

    p_audit = sub.add_parser("audit", parents=[common],
                             help="couple population audit at one order")
    p_audit.add_argument("--order", type=int, required=True)
    p_audit.add_argument("--p", type=int, required=True)
    p_audit.add_argument("--q", type=int, required=True)
    p_audit.add_argument("--kind", type=int, choices=(2, 3), required=True,
                         help="2-monomial or 3-monomial family")
    p_audit.set_defaults(func=_cmd_audit)

    p_spec = sub.add_parser("spectrum", parents=[common],
                            help="diagonalize a model file block by block")
    p_spec.add_argument("--model", required=True, help="model file path")
    p_spec.add_argument("--pmax", type=int, required=True,
                        help="largest polyad label")
    p_spec.add_argument("--n3max", type=int, default=0,
                        help="largest spectator occupation")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_phase = sub.add_parser("phase-space", parents=[common],
                             help="sample the reduced phase-space curve")
    p_phase.add_argument("--p", type=int, required=True)
    p_phase.add_argument("--q", type=int, required=True)
    p_phase.add_argument("--h0", type=float, required=True,
                         help="energy divided by the second harmonic frequency")
    p_phase.add_argument("--samples", type=int, default=101)
    p_phase.add_argument("--sigma", type=float, nargs="*", default=[],
                         help="fixed actions of the spectator modes")
    p_phase.set_defaults(func=_cmd_phase_space)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry: ``main`` on ``sys.argv``, then exit with its code.

    Freezing the heap as the process leaves, argparse exits included, keeps
    the interpreter's exit collections from walking every module object it
    is about to free. ``main`` never freezes, as it also runs in process.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()

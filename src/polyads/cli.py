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
import json
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


def _kv_table(pairs: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in pairs)


# -- subcommands -----------------------------------------------------------
# Each one imports what it uses when it runs, so that a census command starts
# without numpy or the exact algebra.


def _cmd_count(args: argparse.Namespace) -> int:
    from .counting import totals

    data = totals(args.n, args.order, args.p, args.q).as_dict()
    if args.format == "json":
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        _emit(_kv_table(list(data.items())), args.out)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .monomials import census_monomials, coupling_blocks, dunham_blocks, write_census_json

    blocks = []
    if args.kind in ("dunham", "both"):
        blocks += dunham_blocks(args.n, args.order)
    if args.kind in ("coupling", "both"):
        blocks += coupling_blocks(args.n, args.order, args.p, args.q)
    with _output(args.out) as fh:
        if args.format == "json":
            write_census_json(fh, args.n, blocks)
        else:
            monos = census_monomials(args.n, blocks)
            fh.write("".join(m.label() + "\n" for m in monos))
            fh.write(f"total {len(monos)}\n")
    return 0


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
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = []
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
    from .monomials import audit_counting

    data = audit_counting(args.order, args.p, args.q, args.kind)._asdict()
    if args.format == "json":
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        _emit(_kv_table(list(data.items())), args.out)
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
    from .resonance import ResonanceSpec, phase_curve, phase_curve_residual, write_phase_curve_csv

    fixed = tuple(args.sigma)
    n = 2 + len(fixed)
    spec = ResonanceSpec(n=n, p=args.p, q=args.q)
    # flag value is h0 over the second frequency; rescale to the
    # exact-unit convention (second frequency = p) phase_curve expects
    h0 = args.h0 * spec.float_omegas()[1]
    points = phase_curve(spec, h0, fixed, args.samples)
    with _output(args.out) as fh:
        if args.format == "json":
            payload = [
                {
                    "sigma1": pt.sigma1,
                    "sigma0p": pt.sigma0p,
                    "residual": phase_curve_residual(spec, h0, fixed, pt),
                }
                for pt in points
            ]
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            write_phase_curve_csv(fh, points, spec, h0, fixed)
    # one row per sample: two branch points each, or the origin alone
    summary = f"rows {(len(points) + 1) // 2}\n"
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


if __name__ == "__main__":
    sys.exit(main())

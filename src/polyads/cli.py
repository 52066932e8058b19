"""Command line front end.

Subcommands cover the counting reports, monomial census dumps, the frozen
reference-table check, the appendix-style multiplicity audit, quantum
spectra from a model file, and reduced-phase-space curves. Model files are
parsed and serialized here; everything numerical is delegated.

Exit codes: 0 success, 1 verification failure, 2 usage, parse or output error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Iterator, Optional, Sequence, TextIO

_HEADER_KEYS = ("n", "p", "q", "order")
# Most modes a model file may declare. The parser builds length-n exponent
# vectors for every term line, so a mistyped n must fail before any of them
# is allocated; 64 is above any vibrational model the grammar is for (a
# 22-atom molecule has 3 * 22 - 6 = 60 modes).
MAX_MODES = 64
_TERM_USAGE = {
    "omega": "omega <mode> <value>",
    "dunham": "dunham <factors> <value>",
    "coupling": "coupling <power> <factors|-> <value>",
    "extra": "extra <raise> <lower> <value>",
}


class ModelFileError(ValueError):
    """Model file rejected; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_exps(token: str, n: int, line_no: int, allow_empty: bool) -> tuple[int, ...]:
    if token == "-":
        if not allow_empty:
            raise ModelFileError(line_no, "at least one mode:power factor needed")
        return (0,) * n
    exps = [0] * n
    for part in token.split(","):
        mode_s, sep, power_s = part.partition(":")
        if not sep:
            raise ModelFileError(line_no, f"bad factor {part!r}, expected mode:power")
        try:
            mode = int(mode_s)
            power = int(power_s)
        except ValueError:
            raise ModelFileError(line_no, f"bad factor {part!r}, expected integers") from None
        if not 1 <= mode <= n:
            raise ModelFileError(line_no, f"mode {mode} outside 1..{n}")
        if power < 1:
            raise ModelFileError(line_no, f"power {power} must be positive")
        if exps[mode - 1]:
            raise ModelFileError(line_no, f"mode {mode} repeated")
        exps[mode - 1] = power
    return tuple(exps)


def _parse_value(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ModelFileError(line_no, f"bad coefficient {token!r}") from None
    if not math.isfinite(value):
        raise ModelFileError(line_no, f"coefficient {token!r} is not finite")
    return value


def _header_spec(header: dict[str, tuple[int, int]], line_no: int, missing_msg: str
                 ) -> tuple["ResonanceSpec", int]:
    """Spec and order from header keys mapped to (value, line), else ModelFileError."""
    from .spec import ResonanceSpec

    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ModelFileError(line_no, f"{missing_msg} {missing}")
    (n, n_line), (p, p_line), (q, q_line), (order, order_line) = (
        header[k] for k in _HEADER_KEYS)
    if n > MAX_MODES:
        raise ModelFileError(n_line, f"bad header: n is over the limit of {MAX_MODES} modes")
    try:
        spec = ResonanceSpec(n=n, p=p, q=q)
    except ValueError as exc:
        raise ModelFileError(max(n_line, p_line, q_line), f"bad header: {exc}") from None
    if order < 4:
        raise ModelFileError(order_line, "order must be at least 4")
    return spec, order


def parse_model_text(text: str) -> "HamiltonianModel":
    """Parse model-file text. Header lines first, then one term per line."""
    from .quantum import HamiltonianModel, TermSpec, coupling_term

    header: dict[str, tuple[int, int]] = {}
    terms: list[TermSpec] = []
    seen: set[tuple] = set()
    spec: Optional["ResonanceSpec"] = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            if terms:
                raise ModelFileError(line_no, "header line after the first term")
            key, _, value_s = line.partition("=")
            key = key.strip()
            if key not in _HEADER_KEYS:
                raise ModelFileError(line_no, f"unknown header key {key!r}")
            if key in header:
                raise ModelFileError(line_no, f"duplicate header key {key!r}")
            try:
                value = int(value_s.strip())
            except ValueError:
                raise ModelFileError(line_no, f"bad integer for {key!r}") from None
            header[key] = (value, line_no)
            continue

        if spec is None:
            spec, order = _header_spec(header, line_no, "term before header keys")

        parts = line.split()
        kind = parts[0]
        usage = _TERM_USAGE.get(kind)
        if usage is None:
            raise ModelFileError(line_no, f"unknown term kind {kind!r}")
        if len(parts) != len(usage.split()):
            raise ModelFileError(line_no, f"expected: {usage}")
        zero = (0,) * spec.n
        coeff, coeff_text = _parse_value(parts[-1], line_no), parts[-1]
        try:
            if kind == "coupling":
                try:
                    m_exp = int(parts[1])
                except ValueError:
                    raise ModelFileError(line_no, f"bad ladder power {parts[1]!r}") from None
                term = coupling_term(spec, m_exp, _parse_exps(parts[2], spec.n, line_no, True),
                                     coeff, coeff_text)
            elif kind == "extra":
                term = TermSpec("extra", _parse_exps(parts[1], spec.n, line_no, True),
                                _parse_exps(parts[2], spec.n, line_no, True), zero,
                                coeff, coeff_text)
            else:
                token = f"{parts[1]}:1" if kind == "omega" else parts[1]
                term = TermSpec("dunham", zero, zero,
                                _parse_exps(token, spec.n, line_no, False), coeff, coeff_text)
        except ModelFileError:
            raise
        except ValueError as exc:
            raise ModelFileError(line_no, str(exc)) from None
        if term.degree > order:
            raise ModelFileError(line_no, f"degree {term.degree} exceeds order {order}")
        if term.key in seen:
            raise ModelFileError(line_no, f"duplicate term {line!r}")
        seen.add(term.key)
        terms.append(term)

    if spec is None:
        spec, order = _header_spec(header, len(text.splitlines()) + 1,
                                   "missing header keys")
    return HamiltonianModel(spec=spec, order=order, terms=tuple(terms))


def parse_model_file(path: str) -> "HamiltonianModel":
    with open(path, encoding="utf-8") as fh:
        return parse_model_text(fh.read())


def _exps_token(exps: Sequence[int]) -> str:
    parts = [f"{k}:{r}" for k, r in enumerate(exps, start=1) if r]
    return ",".join(parts) if parts else "-"


def serialize_model(model: "HamiltonianModel", comment: Optional[str] = None) -> str:
    """Model back to file text; coefficient texts are kept verbatim."""
    lines: list[str] = []
    if comment:
        lines.extend(f"# {c}".rstrip() for c in comment.splitlines())
    spec = model.spec
    lines.append(f"n={spec.n}")
    lines.append(f"p={spec.p}")
    lines.append(f"q={spec.q}")
    lines.append(f"order={model.order}")
    for t in model.terms:
        value = t.coeff_str()
        if t.kind == "dunham":
            if sum(t.num_exps) == 1:
                mode = next(k for k, r in enumerate(t.num_exps, start=1) if r)
                lines.append(f"omega {mode} {value}")
            else:
                lines.append(f"dunham {_exps_token(t.num_exps)} {value}")
        elif t.kind == "coupling":
            lines.append(f"coupling {t.raise_exps[0] // spec.p} "
                         f"{_exps_token(t.num_exps)} {value}")
        else:
            lines.append(f"extra {_exps_token(t.raise_exps)} "
                         f"{_exps_token(t.lower_exps)} {value}")
    return "\n".join(lines) + "\n"


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


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from .quantum import spectrum, write_spectrum_csv, write_spectrum_json

    try:
        model = parse_model_file(args.model)
    except OSError as exc:
        raise OSError(f"cannot read {args.model}: {exc}") from None
    except ModelFileError as exc:
        raise ValueError(f"{args.model}: {exc}") from None
    blocks, rows = spectrum(model, args.pmax, args.n3max)
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

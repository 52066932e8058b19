"""One workload unit run in this process, with or without tracing.

    python perfbench/tracer.py --plan PLAN.json --trace 0|1 [--spans OUT.json --trace-id ID]

PLAN.json holds the unit's steps, in order, and the model file for the
lattice probe (or null). ``cli`` steps call ``polyads.cli.main`` and
``algebra`` steps call ``algebra.main``, so they write the same output files
as the subprocess runs that ``run.py`` times. The last line printed is JSON:
``{"unit_s": ..., "metrics": {...}}``; ``metrics`` is empty without tracing.

With tracing on, a span recorder replaces the module attributes listed in
TIMED and COUNTED by wrappers, in every loaded ``polyads`` module that binds
the same function (the CLI imports several by name). Each span has a name,
start, end and parent; spans of one process share a trace id, stay in memory
and are written to ``--spans`` when the process ends. Self times are derived
from the spans afterwards, and counts that need extra work (dropped
elements, nonzeros, couples) are computed after the unit, outside every span.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from polyads import cli, counting, monomials, quantum, resonance, zpoly

import algebra

# span name -> (owner, attribute)
TIMED = {
    "quantum.spectrum": (quantum, "spectrum"),
    "quantum.build_block": (quantum, "build_block"),
    "quantum.eigvalsh": (np.linalg, "eigvalsh"),
    "cli.main": (cli, "main"),
    "cli.parse_model_file": (cli, "parse_model_file"),
    "monomials.enumerate_dunham": (monomials, "enumerate_dunham"),
    "monomials.enumerate_coupling": (monomials, "enumerate_coupling"),
    "monomials.sort_monomials": (monomials, "sort_monomials"),
    "monomials.monomials_to_json": (monomials, "monomials_to_json"),
    "monomials.audit_counting": (monomials, "audit_counting"),
    "counting.totals": (counting, "totals"),
    "counting.verify_tables": (counting, "verify_tables"),
    "resonance.generators": (resonance, "generators"),
    "resonance.ad_h0": (resonance, "ad_h0"),
    "resonance.verify_bracket_table": (resonance, "verify_bracket_table"),
    "resonance.syzygy_residual": (resonance, "syzygy_residual"),
    "zpoly.poisson_bracket": (zpoly, "poisson_bracket"),
}
# called too often for a span each: counted only
COUNTED = {
    "quantum.state_label": (quantum, "state_label"),
    "zpoly.mul": (zpoly.ZPolynomial, "__mul__"),
}

# what each span keeps of its call for the counts taken after the unit;
# each must be cheap, because it runs inside the parent span
KEEP = {
    "quantum.spectrum": lambda args, result: (args[0], result[0]),
    "monomials.enumerate_dunham": lambda args, result: len(result),
    "monomials.enumerate_coupling": lambda args, result: len(result),
    "monomials.audit_counting": lambda args, result: args,
    "counting.verify_tables": lambda args, result: result,
    "zpoly.poisson_bracket": lambda args, result: result.num_terms(),
}


class Recorder:
    """In-memory spans, call counts and kept results of one traced process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, parent index or None, start ns, end ns]
        self.calls: Counter[str] = Counter()
        self.kept: dict[str, list] = {}
        self._open: list[int] = []

    def timed(self, name: str, fn):
        keep = KEEP.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self._open[-1] if self._open else None, time.perf_counter_ns(), 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._open.pop()
            if keep is not None:
                self.kept.setdefault(name, []).append(keep(args, result))
            return result
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Rebind every name that refers to a listed function."""
        owners = [m for k, m in sys.modules.items() if k == "polyads" or k.startswith("polyads.")]
        for table, make in ((TIMED, self.timed), (COUNTED, self.counted)):
            for name, (owner, attr) in table.items():
                original = getattr(owner, attr)
                wrapped = make(name, original)
                for holder in [owner, *owners]:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)

    # -- derived figures ---------------------------------------------------

    def seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name. A span nested in one of
        the same name counts only towards the outer one's inclusive time."""
        children = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        inclusive: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            own[name] += (end - start - children[i]) / 1e9
            up = parent
            while up is not None and self.spans[up][0] != name:
                up = self.spans[up][1]
            if up is None:
                inclusive[name] += (end - start) / 1e9
        return dict(inclusive), dict(own)

    def write(self, path: Path) -> None:
        spans = [{"trace": self.trace_id, "id": i, "name": n, "parent": p,
                  "start_ns": s, "end_ns": e} for i, (n, p, s, e) in enumerate(self.spans)]
        path.write_text(json.dumps({"trace_id": self.trace_id, "spans": spans,
                                    "calls": dict(self.calls)}), encoding="utf-8")


def run_unit(plan: dict) -> tuple[float, int]:
    """Run the plan's steps; returns seconds taken and CLI output bytes."""
    printed = 0
    start = time.perf_counter()
    for kind, argv in plan["steps"]:
        if kind == "cli":
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            printed += len(sink.getvalue().encode())
        else:
            code = algebra.main(argv)
        if code != 0:
            raise SystemExit(f"step {kind} {argv} exited with {code}")
    elapsed = time.perf_counter() - start
    written = sum(os.path.getsize(argv[argv.index("--out") + 1])
                  for kind, argv in plan["steps"] if kind == "cli")
    return elapsed, printed + written


def dropped_elements(model, blocks) -> int:
    """Raising-branch elements whose target falls outside their block."""
    dropped = 0
    terms = [t for t in model.off_diagonal_terms() if t.coeff != 0.0]
    for block in blocks:
        index = set(block.basis)
        for state in block.basis:
            for t in terms:
                hop = quantum.raising_branch(t, state, model.spec)
                if hop is not None and hop[0] not in index:
                    dropped += 1
    return dropped


def layer_metrics(rec: Recorder, output_bytes: int) -> dict[str, float]:
    inclusive, own = rec.seconds()
    kept = rec.kept
    blocks = [b for _, bs in kept.get("quantum.spectrum", []) for b in bs]
    dims = [len(b.basis) for b in blocks]
    states = sum(dims)
    label_calls = rec.calls["quantum.state_label"]
    table = [cell for result in kept.get("counting.verify_tables", []) for cell in result]
    out = {
        "quantum.spectrum.s": inclusive.get("quantum.spectrum", 0.0),
        "quantum.build_block.self_s": own.get("quantum.build_block", 0.0),
        "quantum.eigvalsh.s": inclusive.get("quantum.eigvalsh", 0.0),
        "quantum.eigvalsh.calls": sum(1 for s in rec.spans if s[0] == "quantum.eigvalsh"),
        "quantum.state_label.calls": label_calls,
        "quantum.basis_yield": states / label_calls if label_calls else 0.0,
        "quantum.blocks": len(blocks),
        "quantum.states": states,
        "quantum.block_dim.max": max(dims, default=0),
        "quantum.matrix_nnz": sum(int(np.count_nonzero(b.matrix)) for b in blocks),
        "quantum.eig_flops": sum(4 * d ** 3 / 3 for d in dims),
        "quantum.dropped_elements": sum(dropped_elements(model, bs)
                                        for model, bs in kept.get("quantum.spectrum", [])),
        "quantum.conserved_lattice.s": inclusive.get("quantum.conserved_lattice", 0.0),
        "cli.parse_model_file.s": inclusive.get("cli.parse_model_file", 0.0),
        "cli.main.self_s": own.get("cli.main", 0.0),
        "cli.output_bytes": output_bytes,
        "monomials.census_size": sum(kept.get("monomials.enumerate_dunham", []))
        + sum(kept.get("monomials.enumerate_coupling", [])),
        "monomials.couples": sum(sum(1 for _ in monomials.iter_couples(N, p, q, kind))
                                 for N, p, q, kind in kept.get("monomials.audit_counting", [])),
        "counting.cells": len(table),
        "counting.cells_failed": sum(1 for cell in table if not cell[4]),
        "zpoly.poisson_bracket.calls": sum(1 for s in rec.spans if s[0] == "zpoly.poisson_bracket"),
        "zpoly.mul.calls": rec.calls["zpoly.mul"],
        "zpoly.result_terms": sum(kept.get("zpoly.poisson_bracket", [])),
    }
    for name in ("monomials.enumerate_dunham", "monomials.enumerate_coupling",
                 "monomials.sort_monomials", "monomials.monomials_to_json",
                 "monomials.audit_counting", "counting.totals", "counting.verify_tables",
                 "resonance.generators", "resonance.ad_h0", "resonance.verify_bracket_table",
                 "resonance.syzygy_residual", "zpoly.poisson_bracket"):
        out[f"{name}.s"] = inclusive.get(name, 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="in-process run of one workload unit")
    parser.add_argument("--plan", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans")
    parser.add_argument("--trace-id", default="")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    if not args.trace:
        unit_s, _ = run_unit(plan)
        print(json.dumps({"unit_s": unit_s, "metrics": {}}))
        return 0

    parse, lattice = cli.parse_model_file, quantum.conserved_lattice
    rec = Recorder(args.trace_id)
    rec.install()
    unit_s, output_bytes = run_unit(plan)
    if plan["probe_model"]:
        # standalone probe, not on the CLI path; its first call imports sympy
        rec.timed("quantum.conserved_lattice", lattice)(parse(plan["probe_model"]))
    metrics = layer_metrics(rec, output_bytes)
    if args.spans:
        rec.write(Path(args.spans))
    print(json.dumps({"unit_s": unit_s, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

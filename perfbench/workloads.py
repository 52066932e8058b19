"""Seeded inputs, invocations and output checks for the four workloads.

A workload is a list of invocations. An invocation is a list of steps, each
one program run: ``("cli", argv)`` is ``python -m polyads argv`` and
``("algebra", argv)`` is ``python perfbench/algebra.py argv``. Every step
writes its result to a file under the invocation's own directory, and the
invocation's check reads those files back. The checks recount what the
program reports from the generated inputs alone (occupation vectors,
diagonal energies, brute census counts), so they do not trust the code path
being timed.

The seed decides every generated input and nothing else: the same seed gives
byte-identical files, and each seed gives the same amount of work, so runs on
different seeds measure the same thing.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("spectrum-3mode", "spectrum-2mode", "census", "algebra")

# caps of the spectrum workloads
PMAX_3MODE, N3MAX_3MODE = 44, 7
PMAX_2MODE = 160
# census sizes; the census work depends on p+q alone, so the invocations walk
# the p+q columns in this fixed order and the seed picks the p:q in each
# column: every seed then gives the same sequence of census sizes
CENSUS_N, CENSUS_ORDER, AUDIT_ORDER = 6, 30, 220
CENSUS_MENU = {
    2: [(1, 1)],
    3: [(2, 1), (1, 2)],
    4: [(3, 1), (1, 3)],
    5: [(4, 1), (3, 2), (2, 3), (1, 4)],
}
# exact-algebra sizes: n = 3, 2:1, order 12 has 193 census monomials
ALGEBRA_N, ALGEBRA_P, ALGEBRA_Q, ALGEBRA_ORDER = 3, 2, 1, 12
ALGEBRA_CENSUS_SIZE = 193

Step = tuple[str, list[str]]
# a check returns (passed, items produced, reason when it failed)
Check = Callable[[], tuple[bool, int, str]]


@dataclass
class Invocation:
    """One timed unit of a workload: its steps, outputs and check."""

    steps: list[Step]
    outputs: list[Path]
    check: Check


def build(workload: str, seed: int, root: Path, work: Path) -> list[Invocation]:
    """Generate the inputs of ``workload`` for ``seed`` under ``work``.

    ``root`` is the checkout; only its shipped model fixture is read.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectrum-3mode":
        return [_spectrum_3mode(rng, root, work)]
    if workload == "spectrum-2mode":
        return [_spectrum_2mode(rng, work)]
    if workload == "census":
        return _census(rng, work)
    if workload == "algebra":
        return [_algebra(rng, work)]
    raise ValueError(f"unknown workload {workload!r}")


# -- spectrum workloads ----------------------------------------------------


def _parse_exps(token: str, n: int) -> tuple[int, ...]:
    exps = [0] * n
    if token != "-":
        for part in token.split(","):
            mode, power = part.split(":")
            exps[int(mode) - 1] = int(power)
    return tuple(exps)


def _exps_token(exps: tuple[int, ...]) -> str:
    parts = [f"{k}:{r}" for k, r in enumerate(exps, start=1) if r]
    return ",".join(parts) if parts else "-"


def _spectrum_3mode(rng: random.Random, root: Path, work: Path) -> Invocation:
    """The shipped three-mode model with every nonzero coefficient moved by up
    to 1 %; zero slots and the ``extra`` line are copied as they are."""
    fixture = root / "src" / "polyads" / "data" / "cloh.model"
    diagonal: dict[tuple[int, ...], float] = {}
    lines = []
    for raw in fixture.read_text(encoding="utf-8").splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] in ("omega", "dunham", "coupling") and float(parts[-1]) != 0.0:
            value = float(parts[-1]) * (1.0 + rng.uniform(-0.01, 0.01))
            parts[-1] = repr(value)
            raw = " ".join(parts)
            if parts[0] == "omega":
                diagonal[_parse_exps(f"{parts[1]}:1", 3)] = value
            elif parts[0] == "dunham":
                diagonal[_parse_exps(parts[1], 3)] = value
        lines.append(raw)
    model = work / "model.model"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = work / "levels.csv"
    argv = ["spectrum", "--model", str(model), "--pmax", str(PMAX_3MODE),
            "--n3max", str(N3MAX_3MODE), "--out", str(out)]
    expected = block_traces(diagonal, p=2, q=1, pmax=PMAX_3MODE, n3max=N3MAX_3MODE,
                            spectator=True)
    return Invocation(steps=[("cli", argv)], outputs=[out],
                      check=lambda: _check_spectrum(_read_csv_levels(out), expected))


def _spectrum_2mode(rng: random.Random, work: Path) -> Invocation:
    """A two-mode 2:1 model at order 12 with all 56 census slots nonzero.

    Coefficients shrink with degree so that the diagonal stays dominated by
    the harmonic part up to P = 160; signs and magnitudes are seeded.
    """
    n, p, q, order = 2, 2, 1, 12
    size = PMAX_2MODE // 2  # typical occupation at the top of the range
    lines = [f"n={n}", f"p={p}", f"q={q}", f"order={order}"]
    diagonal: dict[tuple[int, ...], float] = {}
    for total in range(1, order // 2 + 1):
        for a in range(total, -1, -1):
            exps = (a, total - a)
            if total == 1:
                value = (1000.0 if a else 2000.0) * rng.uniform(0.97, 1.03)
            else:
                value = rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) * 100.0 * (0.3 / size) ** (total - 1)
            text = f"{value:.6g}"
            diagonal[exps] = float(text)
            if total == 1:
                lines.append(f"omega {1 if a else 2} {text}")
            else:
                lines.append(f"dunham {_exps_token(exps)} {text}")
    for m in range(1, order // (p + q) + 1):
        for total in range((order - (p + q) * m) // 2 + 1):
            for a in range(total, -1, -1):
                half_degree = ((p + q) * m + 2 * total) / 2
                value = rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) * 10.0 * (0.3 / size) ** (half_degree - 1)
                lines.append(f"coupling {m} {_exps_token((a, total - a))} {value:.6g}")
    model = work / "model2.model"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = work / "levels.json"
    argv = ["spectrum", "--model", str(model), "--pmax", str(PMAX_2MODE),
            "--format", "json", "--out", str(out)]
    expected = block_traces(diagonal, p=p, q=q, pmax=PMAX_2MODE, n3max=0, spectator=False)
    return Invocation(steps=[("cli", argv)], outputs=[out],
                      check=lambda: _check_spectrum(_read_json_levels(out), expected))


def _read_csv_levels(path: Path) -> list[tuple[int, int, int, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "P,n3,index,energy_cm1":
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        P, n3, idx, energy = line.split(",")
        rows.append((int(P), int(n3), int(idx), float(energy)))
    return rows


def _read_json_levels(path: Path) -> list[tuple[int, int, int, float]]:
    return [(r["P"], r["n3"], r["index"], r["energy_cm1"])
            for r in json.loads(path.read_text(encoding="utf-8"))]


def block_traces(diagonal, *, p, q, pmax, n3max, spectator) -> dict:
    """(P, n3) -> (level count, trace of the diagonal part) from the model's
    own coefficients: one state per occupation vector with q n1 + p n2 = P."""
    expected = {}
    for P in range(pmax + 1):
        for n3 in range(n3max + 1):
            states = [(n1, (P - q * n1) // p) + ((n3,) if spectator else ())
                      for n1 in range(P // q + 1) if (P - q * n1) % p == 0]
            trace = sum(c * math.prod(o ** r for o, r in zip(state, exps))
                        for state in states for exps, c in diagonal.items())
            expected[(P, n3)] = (len(states), trace)
    return expected


def _check_spectrum(rows, expected) -> tuple[bool, int, str]:
    """Every (P, n3) block has its expected number of levels, ascending, and
    they sum to the trace of the diagonal part: the off-diagonal terms carry
    no trace. The sums agree to 1e-9 of the block's sum of |E|, which covers
    the ten significant digits of the CSV output."""
    blocks: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for P, n3, idx, energy in rows:
        blocks.setdefault((P, n3), []).append((idx, energy))
    if blocks.keys() != expected.keys():
        return False, len(rows), f"block labels differ: {len(blocks)} blocks, expected {len(expected)}"
    for label, levels in blocks.items():
        count, trace = expected[label]
        if [idx for idx, _ in levels] != list(range(count)):
            return False, len(rows), f"block {label}: {len(levels)} levels, expected {count}"
        energies = [e for _, e in levels]
        if any(b < a for a, b in zip(energies, energies[1:])):
            return False, len(rows), f"block {label}: levels not ascending"
        if abs(sum(energies) - trace) > 1e-9 * (sum(abs(e) for e in energies) + 1.0):
            return False, len(rows), f"block {label}: level sum {sum(energies)} != trace {trace}"
    return True, len(rows), ""


# -- census ----------------------------------------------------------------


def _census(rng: random.Random, work: Path) -> list[Invocation]:
    """One invocation per p+q column, each with a seeded coprime p:q."""
    invocations = []
    for k, column in enumerate(sorted(CENSUS_MENU)):
        p, q = rng.choice(CENSUS_MENU[column])
        d = work / f"census{k}"
        d.mkdir()
        size = ["--n", str(CENSUS_N), "--p", str(p), "--q", str(q), "--order", str(CENSUS_ORDER)]
        outs = [d / "enumerate.json", d / "count.json", d / "audit.json", d / "verify.json"]
        steps = [
            ("cli", ["enumerate", "--kind", "both", *size, "--format", "json", "--out", str(outs[0])]),
            ("cli", ["count", *size, "--format", "json", "--out", str(outs[1])]),
            ("cli", ["audit", "--order", str(AUDIT_ORDER), "--p", str(p), "--q", str(q),
                     "--kind", "3", "--format", "json", "--out", str(outs[2])]),
            ("cli", ["verify-tables", "--format", "json", "--out", str(outs[3])]),
        ]
        check = _census_check(outs, brute_delta2(AUDIT_ORDER, p, q))
        invocations.append(Invocation(steps, outs, check))
    return invocations


def brute_delta2(N: int, p: int, q: int) -> int:
    """Distinct 3-monomial exponent triples (k, gamma, r), all >= 1, with
    (p+q) k + 2 (gamma + r) <= N, counted one by one."""
    pq = p + q
    return sum(1 for k in range(1, N // pq + 1)
               for gamma in range(1, N // 2 + 1)
               for r in range(1, (N - pq * k) // 2 - gamma + 1))


def _census_check(outs: list[Path], delta2: int) -> Check:
    def check() -> tuple[bool, int, str]:
        monos = json.loads(outs[0].read_text(encoding="utf-8"))
        count = json.loads(outs[1].read_text(encoding="utf-8"))
        audit = json.loads(outs[2].read_text(encoding="utf-8"))
        verify = json.loads(outs[3].read_text(encoding="utf-8"))
        keys = {(m["m"], m["mExp"], tuple(m["numExps"])) for m in monos}
        if len(keys) != len(monos):
            return False, len(monos), "enumerate listed a monomial twice"
        if len(monos) != count["n_op"]:
            return False, len(monos), f"enumerate total {len(monos)} != count n_op {count['n_op']}"
        if audit["delta"] != delta2:
            return False, len(monos), f"audit delta {audit['delta']} != brute count {delta2}"
        if verify["failures"]:
            return False, len(monos), f"verify-tables reported {len(verify['failures'])} failures"
        return True, len(monos), ""
    return check


# -- exact algebra ---------------------------------------------------------


def _algebra(rng: random.Random, work: Path) -> Invocation:
    """Two seeded rational coefficient vectors for the n = 3, 2:1, order 12
    census; algebra.py pairs them with the census in canonical order."""
    def coeffs() -> list[list[int]]:
        return [[rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 50)]
                for _ in range(ALGEBRA_CENSUS_SIZE)]

    spec = {"n": ALGEBRA_N, "p": ALGEBRA_P, "q": ALGEBRA_Q, "order": ALGEBRA_ORDER,
            "h1": coeffs(), "h2": coeffs()}
    inp = work / "algebra_in.json"
    inp.write_text(json.dumps(spec), encoding="utf-8")
    out = work / "algebra_out.json"
    return Invocation(steps=[("algebra", ["--input", str(inp), "--out", str(out)])],
                      outputs=[out], check=lambda: _check_algebra(out))


def _check_algebra(out: Path) -> tuple[bool, int, str]:
    """The bracket of two invariants is itself invariant, so ad_h0 of it is
    exactly zero; the generator bracket table and the syzygy hold exactly."""
    res = json.loads(out.read_text(encoding="utf-8"))
    terms = res["bracket_terms"]
    if res["census_size"] != ALGEBRA_CENSUS_SIZE:
        return False, terms, f"census has {res['census_size']} monomials"
    if terms == 0:
        return False, terms, "bracket of the two Hamiltonians is zero"
    for key in ("ad_h0_terms", "bracket_table_failures", "syzygy_terms"):
        if res[key] != 0:
            return False, terms, f"{key} = {res[key]}, expected exactly 0"
    return True, terms, ""

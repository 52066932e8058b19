"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 10 --trace 0 --out perfbench/BENCH_<tag>.json

For every workload in BENCHMARK.json it runs ``run.py`` once per seed, one
run at a time, for BENCHMARK.json's ``run_seconds``, and prints every metric
by name and unit with its median over the seeds, its quartiles and the
spread (q3 - q1) / median. With ``--trace 0`` a spread over a third of the
metric's bound is flagged, because such a metric cannot show a regression of
its bound, and the unscaled medians of each run (its ``raw`` line) are kept
too. ``--out`` writes the same figures, the environment line of the first
run, and every run's values as JSON, the format of a before/after pair of
BENCH files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One run: its environment line, raw line (empty when traced) and result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    raw = next((json.loads(line[4:]) for line in lines if line.startswith("raw ")), {})
    return env, raw, json.loads(lines[-1])


def spread_of(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="multi-seed summary of the benchmark")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]

    summary: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, raws = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            env, raw, result = run(workload, seed, seconds, args.trace)
            summary.setdefault("env", env)
            runs.append(result)
            raws.append(raw)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        table = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = spread_of(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  SPREAD > bound/3"
                steady = False
            table[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                           "spread": spread, "values": values}
            print(f"  {name:<36} {median:14.6g} {first['unit']:<6} q1={q1:<12.6g} "
                  f"q3={q3:<12.6g} spread={spread:.4f}{flag}")
        unscaled = {}
        for name in raws[0]:
            values = [raw[name] for raw in raws]
            median, q1, q3, spread = spread_of(values)
            unscaled[name] = {"unit": "s", "median": median, "q1": q1, "q3": q3,
                              "spread": spread, "values": values}
            print(f"  unscaled {name:<27} {median:14.6g} s      q1={q1:<12.6g} "
                  f"q3={q3:<12.6g} spread={spread:.4f}")
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": table,
            **({"unscaled": unscaled} if unscaled else {}),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady and all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""The polyads benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the package under ``src/``.

With ``--trace 0`` it times the real program, tracing off: the ``polyads``
command line (``python -m polyads``) and, for the exact-algebra path that has
no command line, ``perfbench/algebra.py``, each step in a fresh interpreter
started from this one process. It repeats whole passes over the workload's
invocations for ``--seconds`` seconds, checks every output, and reports
medians over the passes of the end-to-end metrics, so every sample covers
the same mix. ``setup_s`` is the median of several start-ups of a ready
command line (``python -m polyads --help``), measured before the workload.

With ``--trace 1`` it runs ``tracer.py`` in a fresh interpreter, alternately
with and without the span recorder, on the same generated inputs, checks the
outputs of both, and reports medians of the per-layer metrics.
``trace_overhead_s`` is the median over the repetitions of the traced unit
time minus the untraced one.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the line before it is ``raw {...}``: the unscaled medians
of ``setup_s``, ``wall_s`` and ``cpu_s``, and the median probe time.

On a shared machine the neighbours' load changes the speed of a core from
one minute to the next, by more than any bound worth setting. So the
benchmark pins itself and every child to one CPU, which caps child BLAS
threads at the one usable core, and runs a short speed probe on that CPU
after every child. Each reported time, end-to-end and per-layer, is the
measured time scaled by PROBE_REF_S over the mean of the probes just before
and after it: seconds at the speed at which the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"  # temporary inputs and outputs, and the written spans
SETUP_RUNS = 7
# the probe's time at the speed figures are quoted at: its median time on
# the 2-core VM that recorded BENCH_seed.json, under that VM's usual shared
# load, so reported seconds are close to the seconds measured there
PROBE_REF_S = 0.16
PROBES_PER_GAP = 3
STEP_TIMEOUT_S = 60.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_and_env() -> tuple[dict[str, str], dict[str, object]]:
    """Pin this process, and so its children, to one CPU; return the
    children's environment and the settings worth recording."""
    machine = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        cpu = None  # not allowed here: run unpinned, and say so
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in BLAS_VARS:
        given = env.get(var, "")
        env[var] = str(min(int(given), nproc)) if given.isdigit() and int(given) > 0 else str(nproc)
    info = {"cpus": machine, "pinned_cpu": cpu, "nproc": nproc,
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            **{var: env[var] for var in BLAS_VARS}}
    return env, info


def run_step(cmd: list[str], env: dict[str, str], log: Path) -> tuple[float, float, float, int]:
    """Run one child to completion through ``spawn.py``, in a process group
    of its own: wall s, user+sys s, peak RSS MB, exit code."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py"), *cmd], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(STEP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
    if proc.returncode != 0:  # killed by the watchdog
        return time.perf_counter() - start, 0.0, 0.0, proc.returncode
    wall, cpu, rss, code = json.loads(out)
    return wall, cpu, rss, code


def command(step: workloads.Step) -> list[str]:
    kind, argv = step
    if kind == "cli":
        return [sys.executable, "-m", "polyads", *argv]
    return [sys.executable, str(HERE / "algebra.py"), *argv]


def check(inv: workloads.Invocation) -> tuple[bool, int, str]:
    try:
        return inv.check()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return False, 0, f"unreadable output: {exc!r}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def probe() -> float:
    """Current speed of this CPU: median seconds of a few passes of the kinds
    of work the program does, sorting tuples, a JSON round trip, exact
    fractions, string formatting and dict grouping. Under a neighbour's load
    such a broad mix tracks the program's speed much better than one tight
    loop does."""
    times = []
    for _ in range(PROBES_PER_GAP):
        rng = random.Random(1)
        start = time.perf_counter()
        rows = sorted((rng.randrange(50), rng.randrange(50), rng.random()) for _ in range(20_000))
        back = json.loads(json.dumps([{"p": a, "n3": b, "e": round(e, 9)} for a, b, e in rows]))
        sum(Fraction(i % 7 + 1, i) for i in range(1, 800))
        "".join(f"{r['p']},{r['n3']},{r['e']:.6f}\n" for r in back)
        groups: dict[tuple[int, int], list[float]] = {}
        for a, b, e in rows:
            groups.setdefault((a, b), []).append(e)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return 2 * PROBE_REF_S / (before + after)


def measure(invs, seconds: float, env, log: Path) -> tuple[dict, dict, int, int, list[str]]:
    """Untraced: repeat whole passes over the invocations for ``seconds``.
    Returns scaled and unscaled samples, one per start-up or pass."""
    samples: dict[str, list[float]] = {
        "setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": [], "items_per_s": []}
    raw: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "cpu_s": [], "probe_s": []}
    attempted = failed = 0
    problems = []
    run_step(command(("cli", ["--help"])), env, log)  # fills the bytecode cache
    before = probe()
    for _ in range(SETUP_RUNS):
        wall, _, _, code = run_step(command(("cli", ["--help"])), env, log)
        after = probe()
        raw["probe_s"].append(after)
        samples["setup_s"].append(wall * scale(before, after))
        raw["setup_s"].append(wall)
        before = after
        attempted += 1
        failed += code != 0
    start = time.perf_counter()
    while True:
        wall = cpu = raw_wall = raw_cpu = rss = items_done = 0.0
        for inv in invs:
            for out in inv.outputs:
                out.unlink(missing_ok=True)
            codes = []
            for step in inv.steps:
                step_wall, step_cpu, step_rss, code = run_step(command(step), env, log)
                after = probe()
                raw["probe_s"].append(after)
                factor = scale(before, after)
                before = after
                wall += step_wall * factor
                cpu += step_cpu * factor
                raw_wall += step_wall
                raw_cpu += step_cpu
                rss = max(rss, step_rss)
                codes.append(code)
            ok, items, why = check(inv) if not any(codes) else (False, 0, "nonzero exit")
            items_done += items
            attempted += 1
            if not ok:
                failed += 1
                problems.append(why)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        samples["items_per_s"].append(items_done / wall)
        raw["wall_s"].append(raw_wall)
        raw["cpu_s"].append(raw_cpu)
        if time.perf_counter() - start >= seconds:
            break
    return samples, raw, attempted, failed, problems


def measure_traced(invs, seconds: float, env, log: Path, workload: str, seed: int,
                   work: Path, timed: set[str]) -> tuple[dict, int, int, list[str]]:
    """Traced and untraced in-process runs of the whole unit, alternating.
    The metrics named in ``timed`` are seconds, and are scaled."""
    steps = [step for inv in invs for step in inv.steps]
    model = next((argv[argv.index("--model") + 1] for kind, argv in steps
                  if kind == "cli" and argv[0] == "spectrum"), None)
    plan = work / "plan.json"
    plan.write_text(json.dumps({"steps": steps, "probe_model": model}), encoding="utf-8")
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    samples: dict[str, list[float]] = {}
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    before = probe()
    rep = 0
    while True:
        unit = {}
        for trace in ((1, 0) if rep % 2 == 0 else (0, 1)):
            for inv in invs:
                for out in inv.outputs:
                    out.unlink(missing_ok=True)
            trace_id = f"{workload}-seed{seed}-rep{rep}"
            cmd = [sys.executable, str(HERE / "tracer.py"), "--plan", str(plan),
                   "--trace", str(trace), "--trace-id", trace_id,
                   "--spans", str(spans_dir / f"{trace_id}.json")]
            try:
                with open(log, "ab") as err:
                    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                          stdout=subprocess.PIPE, stderr=err, timeout=STEP_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = None
            after = probe()
            factor = scale(before, after)
            before = after
            results = [check(inv) if code == 0 else (False, 0, f"tracer exit {code}") for inv in invs]
            attempted += len(invs)
            for ok, _, why in results:
                if not ok:
                    failed += 1
                    problems.append(why)
            if code != 0:
                continue
            report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            unit[trace] = report["unit_s"] * factor
            for name, value in report["metrics"].items():
                samples.setdefault(name, []).append(value * factor if name in timed else value)
        if len(unit) == 2:
            samples.setdefault("trace_overhead_s", []).append(unit[1] - unit[0])
        rep += 1
        if time.perf_counter() - start >= seconds:
            break
    return samples, attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description="polyads benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "polyads" / "__init__.py").is_file():
        print(f"error: no polyads package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env, info = pin_and_env()
    print("env " + json.dumps(info))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        work = Path(tmp)
        log = work / "stderr.log"
        invs = workloads.build(args.workload, args.seed, ROOT, work)
        raw = None
        if args.trace:
            timed = {entry["name"] for entry in wanted if entry["unit"] == "s"}
            samples, attempted, failed, problems = measure_traced(
                invs, args.seconds, env, log, args.workload, args.seed, work, timed)
        else:
            samples, raw, attempted, failed, problems = measure(invs, args.seconds, env, log)
        if failed and log.exists():
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
    for why in problems[:10]:
        print(f"check failed: {why}", file=sys.stderr)

    metrics = {}
    for entry in wanted:
        values = samples.get(entry["name"], [0.0])
        q1, median, q3 = quartiles(values)
        metrics[entry["name"]] = {"value": median, "unit": entry["unit"]}
        print(f"{entry['name']:<36} {median:14.6g} {entry['unit']:<6} "
              f"n={len(values)} q1={q1:.6g} q3={q3:.6g}")
    if raw is not None:
        print("raw " + json.dumps({name: statistics.median(v) for name, v in raw.items()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

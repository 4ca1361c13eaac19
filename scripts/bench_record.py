"""Record a before/after performance comparison of two source checkouts as JSON.

Runs `perfbench/run.py` on every workload that BENCHMARK.json lists, for its
`run_seconds`, in 10 pairs that alternate the two checkouts (the order flips
on every other pair, so a slow drift of the machine weighs on both sides
alike), then one traced run (`--trace 1`) per checkout and workload for the
per-layer metrics.  Then it times each tier-1 criterion of CRITERIA, run
alone with `-k`, in 10 pairs that alternate the checkouts the same way, and
runs the whole tier-1 suite once per checkout for its wall time.
Writes one JSON document with the end-to-end metrics of BENCHMARK.json and,
for each workload and metric, the verdict: `claim_holds` when the change wins
at least 9 of 10 pairs and its median beats the parent's by more than the
parent's interquartile range, `within_bound` when the change's median is no
worse than the parent's by more than the metric's `bound`:

    python3 scripts/bench_record.py --before ../parent --after . --out BENCH.json

Each checkout must hold `src/kempe` and `perfbench/`; make the "before" one
with `git archive <rev> | tar -x -C DIR`.  Nothing is imported from either.
Every run gets its own empty PYTHONPYCACHEPREFIX, so both checkouts compile
every module they import, whatever `__pycache__` directories they hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
LAYERS = [m["name"] for m in BENCHMARK["per_layer"]]
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10
CRITERIA = ("test_criterion_5_barbell_lemma", "test_criterion_6_k4k2_lemma",
            "test_criterion_7_short_theta_and_prisms")


def run(argv: list[str], checkout: str, **env) -> subprocess.CompletedProcess:
    """Run argv in checkout with a fresh, empty bytecode cache."""
    with tempfile.TemporaryDirectory() as cache:
        return subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPYCACHEPREFIX=cache, **env))


def perfbench(checkout: str, workload: str, seed: int, trace: int = 0) -> dict:
    proc = run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(SECONDS), "--trace", str(trace)], checkout)
    proc.check_returncode()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} is not clean: {result}")
    return {name: result["metrics"][name]["value"]
            for name in (LAYERS if trace else METRICS) if name in result["metrics"]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare_workload(before: str, after: str, workload: str) -> dict:
    runs = {"before": [], "after": []}
    for pair in range(PAIRS):
        sides = [("before", before), ("after", after)]
        for side, checkout in sides if pair % 2 == 0 else reversed(sides):
            runs[side].append(perfbench(checkout, workload, pair + 1))
            print(f"{workload} pair {pair + 1} {side}: {runs[side][-1]}", file=sys.stderr)
    return {name: verdict([r[name] for r in runs["before"]], [r[name] for r in runs["after"]],
                          metric) for name, metric in METRICS.items()}


def verdict(b: list[float], a: list[float], metric: dict) -> dict:
    """Both sides' summaries, the pairs the change wins (ties count for
    neither side) and whether a claimed gain holds and the bound is kept."""
    before, after = summary(b), summary(a)
    sign = 1 if metric["better"] == "lower" else -1  # > 0 when the change is better
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    gain = sign * (before["median"] - after["median"])
    return {"before": before, "after": after, "after_wins": wins,
            "speedup_of_medians": before["median"] / after["median"],
            "claim_holds": 10 * wins >= 9 * len(b) and gain > before["q3"] - before["q1"],
            "within_bound": -gain <= metric["bound"] * before["median"]}


def pytest(checkout: str, *args: str) -> tuple[float, str, dict]:
    """Wall seconds, summary line and per-test call seconds of one pytest run."""
    t0 = time.perf_counter()
    proc = run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
                *args], checkout, PYTHONPATH="src")
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1]
    if proc.returncode:
        raise SystemExit(f"{checkout}: pytest {' '.join(args)} is not clean: {tail}")
    calls = (re.match(r"\s*([\d.]+)s call\s+\S+::(\w+)", line)
             for line in proc.stdout.splitlines())
    return wall, tail, {match.group(2): float(match.group(1)) for match in calls if match}


def compare_criteria(before: str, after: str) -> dict:
    runs = {name: {"before": [], "after": []} for name in CRITERIA}
    for pair in range(PAIRS):
        sides = [("before", before), ("after", after)]
        for name in CRITERIA:
            for side, checkout in sides if pair % 2 == 0 else reversed(sides):
                _, tail, calls = pytest(checkout, "tests/test_acceptance.py", "-k", name)
                if list(calls) != [name]:
                    raise SystemExit(f"{checkout}: -k {name} timed {sorted(calls)} ({tail})")
                runs[name][side].append(calls[name])
                print(f"{name} pair {pair + 1} {side}: {calls[name]}", file=sys.stderr)
    out = {}
    for name, sides in runs.items():
        b, a = summary(sides["before"]), summary(sides["after"])
        out[name] = {"before": b, "after": a, "speedup_of_medians": b["median"] / a["median"]}
    return out


def tier1(checkout: str) -> dict:
    wall, tail, _ = pytest(checkout)
    return {"wall_s": wall, "summary": tail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="checkout measured as the baseline")
    parser.add_argument("--after", required=True, help="checkout measured as the change")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    record = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "pairs": PAIRS,
        "seconds_per_run": SECONDS,
        "workloads": {w: compare_workload(args.before, args.after, w) for w in WORKLOADS},
        "traced_seed_1": {w: {side: perfbench(checkout, w, 1, trace=1) for side, checkout
                              in (("before", args.before), ("after", args.after))}
                          for w in WORKLOADS},
        "criteria_s": compare_criteria(args.before, args.after),
        "tier1": {"before": tier1(args.before), "after": tier1(args.after)},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

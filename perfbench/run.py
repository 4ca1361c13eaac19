"""Benchmark of the kempe checker: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-exhaustive --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; kempe is imported from src/.  The run
draws the workload's inputs from the seed, then, while another pass should
end within --seconds, it sets up twice (import kempe, build graphs and plane
graphs through kempe's own code) and runs one whole round of the workload.
It reports the mean round time and the median set-up time.  The program's
outputs are then checked against independent computations.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.

With --trace 0 the metrics are wall_s, setup_s and peak_rss_mb.  With
--trace 1 the run alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds (see spans.py), the tracing overhead,
and writes the spans to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
SETUPS_PER_ROUND = 2
MODULES = ("graphs", "coloring", "reconfig", "verify", "planar", "discharging", "io", "cli")


def import_kempe():
    """A fresh import of kempe and its modules from src/."""
    for name in [m for m in sys.modules if m == "kempe" or m.startswith("kempe.")]:
        del sys.modules[name]
    mods = {"kempe": importlib.import_module("kempe")}
    if not Path(mods["kempe"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"kempe was imported from {mods['kempe'].__file__}, not {SRC}")
    for name in MODULES:
        mods[name] = importlib.import_module("kempe." + name)
    return SimpleNamespace(**mods)


def peak_rss_mb():
    """Peak resident memory of this process, in MiB (no workload starts workers)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat(seconds, body):
    """Call body() once, and again while the next call should end within seconds.

    A call is expected to take as long as the one before, so a run does not
    overrun --seconds by up to a whole round.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


class Rounds:
    """Runs whole rounds, counts operations and keeps the first round's records.

    Before every round the workload is set up afresh (a new import of kempe
    and new inputs built through it), so the set-up samples are spread over
    the whole run like the round samples.
    """

    def __init__(self, workload):
        self.workload = workload
        self.k = None
        self.ops = []
        self.setups = []
        self.first = None
        self.attempted = 0
        self.failures = []
        self.mismatches = []

    def setup(self):
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            t0 = time.perf_counter()
            self.k = import_kempe()
            self.workload.setup(self.k)
            self.setups.append(time.perf_counter() - t0)
        self.ops = self.workload.ops(self.k)

    def call_all(self):
        results = []
        for label, call, _ in self.ops:
            self.attempted += 1
            try:
                results.append(call())
            except Exception as exc:  # one failed operation must not end the run
                results.append(None)
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return results

    def keep(self, results):
        records = [r if r is None or record is None else record(r)
                   for (_, _, record), r in zip(self.ops, results)]
        if self.first is None:
            self.first = records
        elif records != self.first:
            bad = [label for (label, _, _), a, b in zip(self.ops, records, self.first) if a != b]
            self.mismatches.append(f"a later round's output differs from the first: {bad[:5]}")

    def timed(self):
        """Time one round; its results become records after the timer stops."""
        gc.collect()
        t0 = time.perf_counter()
        results = self.call_all()
        elapsed = time.perf_counter() - t0
        self.keep(results)
        return elapsed


def traced_measure(rounds, seconds, workload, seed):
    """An untraced and a traced round per set-up.

    Per-layer metrics are medians over the traced rounds; the traced and the
    untraced round times are means, as wall_s is.
    """
    plain, traced, per_round = [], [], []
    tracer = None

    def one_pass():
        nonlocal tracer
        rounds.setup()
        # The first round after an import may pay for lazy caches; take turns going first.
        if len(traced) % 2 == 0:
            plain.append(rounds.timed())
        tracer = Tracer(vars(rounds.k))
        tracer.install()
        try:
            wall = rounds.timed()
        finally:
            tracer.uninstall()
        if len(traced) % 2 == 1:
            plain.append(rounds.timed())
        traced.append(wall)
        layer = tracer.metrics()
        layer["trace.unattributed_s"] = wall - sum(
            v for key, v in layer.items() if key.endswith(".self_s"))
        layer["trace.spans"] = tracer.span_count
        per_round.append(layer)

    repeat(seconds, one_pass)
    RUNS.mkdir(exist_ok=True)
    tracer.write(RUNS / f"{workload}-seed{seed}.spans.jsonl")
    out = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    out["trace.wall_s"] = statistics.fmean(traced)
    out["trace.untraced_wall_s"] = statistics.fmean(plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.rounds"] = len(traced)
    return out


def traced_setup(workload):
    """Per-layer self times of one set-up (after the import, which cannot be traced)."""
    k = import_kempe()
    tracer = Tracer(vars(k))
    tracer.install()
    try:
        workload.setup(k)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    return {"setup.graphs.self_s": m["graphs.self_s"], "setup.io.self_s": m["io.self_s"],
            "setup.planar.self_s": m["planar.build.self_s"]}


def unit(name):
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kempe" / "__init__.py").is_file():
        print(f"perfbench: no kempe source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = RUNS / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    rounds = Rounds(workload)
    if args.trace:
        metrics = traced_setup(workload)
        metrics.update(traced_measure(rounds, args.seconds, args.workload, args.seed))
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}
    else:
        times = []

        def one_pass():
            rounds.setup()
            times.append(rounds.timed())

        repeat(args.seconds, one_pass)
        # The mean follows the share of time the box spends in slow spells
        # smoothly; the median jumps between the fast and the slow rounds.
        # The first set-up of a run is a cold import, so set-ups take the median.
        metrics = {"wall_s": {"value": statistics.fmean(times), "unit": "s"},
                   "setup_s": {"value": statistics.median(rounds.setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"}}
        print(f"perfbench: {args.workload} seed {args.seed}: {len(times)} rounds "
              f"{' '.join(f'{t:.3f}' for t in times)}; setups "
              f"{' '.join(f'{t:.4f}' for t in rounds.setups)}", file=sys.stderr)

    errors = rounds.mismatches + workload.check(rounds.first)
    for message in rounds.failures[:10] + errors:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": rounds.attempted,
                      "failed": len(rounds.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

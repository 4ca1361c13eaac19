"""Check that two source checkouts lift the same random sequences alike.

Draws a fixed set of random vertex and subgraph lifts in the "before"
checkout, then runs every one in each checkout, each in its own subprocess
with PYTHONPATH=<checkout>/src and an empty PYTHONPYCACHEPREFIX, and compares
the lifted moves and final coloring, or the error class and message, case by
case.  Nothing is imported from either checkout into this process.  Exits 1
if any case differs:

    python3 scripts/lift_identity.py --before ../parent --after .

Make the "before" checkout with `git archive <rev> | tar -x -C DIR`.  The
cases, for each of the seeds 2022 and 7:
- 200 vertex lifts on random connected graphs with 3-8 vertices, where the
  lifted vertex has one more color than its degree (one time in ten, any
  vertex one fewer), 0-5 moves and, one time in three, a target color;
- 200 subgraph lifts, H one of eight small shapes (theta(1,3,3), K_{2,3},
  W4, K1, P3, C4, K3, K4) attached to 1-3 outside vertices, with tight,
  slack or short lists on H, 0-4 moves and, half the time, a target
  coloring, most of them agreeing with the walk outside H.
One move in five sequences is replaced by a random, mostly invalid move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (2022, 7)

# Run in the "before" checkout; prints the cases as one JSON list.
GENERATE = r'''
import itertools, json, random, sys
from kempe.coloring import SwapMove, classify_swap_partial, enumerate_L_colorings, make_lists
from kempe.errors import BudgetError
from kempe.graphs import from_edges, is_connected

SHAPES = {
    "theta(1,3,3)": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
    "K_{2,3}": (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    "W4": (5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]),
    "K1": (1, []), "P3": (3, [(0, 1), (1, 2)]), "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "K3": (3, [(0, 1), (1, 2), (0, 2)]), "K4": (4, list(itertools.combinations(range(4), 2))),
}

def restricted(phi, absent):
    return tuple(None if v in absent else phi[v] for v in range(len(phi)))

def walk(rng, g, lists, start, absent):
    """Random L-valid moves on g-absent; one time in five one is random instead."""
    steps = rng.randrange(0, 6 if len(absent) == 1 else 5)
    bad = rng.randrange(steps) if steps and rng.random() < 0.2 else None
    universe = sorted(set().union(*lists))
    phi, moves = restricted(start, absent), []
    for step in range(steps):
        if step == bad:
            anchor = rng.choice([x for x in range(g.n) if x not in absent])
            moves.append(SwapMove(anchor, tuple(sorted(rng.sample(universe + [max(universe) + 1], 2)))))
            continue
        options = []
        for anchor in range(g.n):
            for pair in itertools.combinations(universe, 2):
                if anchor not in absent and phi[anchor] in pair:
                    out = classify_swap_partial(g, lists, phi, SwapMove(anchor, pair), absent)
                    if out.valid:
                        options.append((SwapMove(anchor, pair), out.coloring))
        if not options:
            break
        move, phi = options[rng.randrange(len(options))]
        moves.append(move)
    return [[m.anchor, list(m.colors)] for m in moves], phi

def colorings(g, lists):
    try:
        return enumerate_L_colorings(g, lists, 200_000)
    except BudgetError:
        return []

def vertex_case(rng):
    n = rng.randrange(3, 9)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45]
    g = from_edges(n, edges)
    if not is_connected(g):
        return None
    v = rng.randrange(n)
    lists = make_lists([rng.sample(range(1, 9), max(1, min(8, g.degree(x) + (x == v)
                                                           - (rng.random() < 0.1))))
                        for x in range(n)])
    cols = colorings(g, lists)
    if not cols:
        return None
    start = cols[rng.randrange(len(cols))]
    moves, _ = walk(rng, g, lists, start, frozenset({v}))
    return dict(n=n, edges=edges, lists=[sorted(s) for s in lists], start=start, moves=moves,
                v=v, target_color=rng.choice([None, None, rng.randrange(1, 10)]))

def subgraph_case(rng):
    k, h_edges = SHAPES[rng.choice(sorted(SHAPES))]
    extra = rng.randrange(1, 4)
    n = extra + k
    h = list(range(extra, n))
    edges = {(a + extra, b + extra) for a, b in h_edges} | {(0, rng.choice(h))}
    edges |= {(rng.randrange(x), x) for x in range(1, extra)}
    edges |= {(x, y) for x in range(extra) for y in range(x + 1, n) if rng.random() < 0.4}
    g = from_edges(n, sorted(edges))
    mode = rng.choice(["tight", "slack", "slack", "short"])
    lists = make_lists([
        rng.sample(range(1, 9), max(1, g.degree(x) + {"tight": 0, "slack": rng.randrange(2),
                                                      "short": -rng.randrange(2)}[mode]))
        if x in h else rng.sample(range(1, 9), rng.randrange(2, 5)) for x in range(n)])
    cols = colorings(g, lists)
    if not cols:
        return None
    start = cols[rng.randrange(len(cols))]
    moves, end = walk(rng, g, lists, start, frozenset(h))
    agree = [phi for phi in cols if restricted(phi, frozenset(h)) == end]
    pick = rng.random()
    target = rng.choice(agree) if pick < 0.4 and agree else rng.choice(cols) if pick < 0.5 else None
    return dict(n=n, edges=sorted(edges), lists=[sorted(s) for s in lists], start=start,
                moves=moves, h=h, target=target)

cases = []
for seed in json.loads(sys.argv[1]):
    rng = random.Random(seed)
    for kind, make in (("vertex", vertex_case), ("subgraph", subgraph_case)):
        done = 0
        while done < 200:
            case = make(rng)
            if case is not None:
                cases.append(dict(case, kind=kind))
                done += 1
print(json.dumps(cases))
'''

# Run in each checkout; reads the cases on stdin, prints one JSON object per case.
LIFT = r'''
import json, sys
from kempe.coloring import SwapMove, make_lists
from kempe.graphs import from_edges
from kempe.reconfig import lift_through_subgraph, lift_through_vertex

for case in json.load(sys.stdin):
    g = from_edges(case["n"], [tuple(e) for e in case["edges"]])
    lists, start = make_lists(case["lists"]), tuple(case["start"])
    moves = [SwapMove(a, tuple(pair)) for a, pair in case["moves"]]
    try:
        if case["kind"] == "vertex":
            res = lift_through_vertex(g, lists, case["v"], start, moves,
                                      target_color=case["target_color"])
        else:
            target = tuple(case["target"]) if case["target"] else None
            res = lift_through_subgraph(g, case["h"], lists, start, moves, target=target)
        row = {"moves": [[m.anchor, list(m.colors)] for m in res.moves], "final": list(res.final)}
    except Exception as exc:
        row = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(row))
'''


def run(checkout: Path, code: str, *args: str, stdin: str | None = None) -> str:
    with tempfile.TemporaryDirectory() as cache:
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=checkout, input=stdin,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(checkout / "src"),
                                       PYTHONPYCACHEPREFIX=cache))
    if proc.returncode:
        raise SystemExit(f"{checkout}: the corpus failed\n{proc.stderr}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--after", required=True, type=Path, help="the changed checkout")
    args = parser.parse_args(argv)
    before, after = args.before.resolve(), args.after.resolve()
    cases = run(before, GENERATE, json.dumps(SEEDS))
    rows = {side: [json.loads(line) for line in run(side, LIFT, stdin=cases).splitlines()]
            for side in (before, after)}
    kinds = [case["kind"] for case in json.loads(cases)]
    differ = [i for i, (a, b) in enumerate(zip(rows[before], rows[after])) if a != b]
    for i in differ:
        print(f"differs: case {i} ({kinds[i]}): {rows[before][i]} -> {rows[after][i]}")
    for kind in ("vertex", "subgraph"):
        got = [row for k, row in zip(kinds, rows[after]) if k == kind]
        errors = sorted({row["error"] for row in got if "error" in row})
        print(f"{kind}: {len(got)} cases, {sum('moves' in row for row in got)} lifted, "
              f"{sum('error' in row for row in got)} rejected ({', '.join(errors)})")
    if differ:
        print(f"{len(differ)} of {len(kinds)} cases differ")
        return 1
    print(f"{len(kinds)} cases: identical moves, final colorings and errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())

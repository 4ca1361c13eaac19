"""Check that two source checkouts yield identical canonical assignment streams.

Runs one fixed corpus of streams in each checkout, in its own subprocess with
PYTHONPATH=<checkout>/src and an empty PYTHONPYCACHEPREFIX, and compares
them item by item through a digest of each stream.  Nothing is imported
from either checkout into this process.  Exits 1 if any stream differs, or if
the two checkouts do not run the same inputs:

    python3 scripts/stream_identity.py --before ../parent --after .

Make the "before" checkout with `git archive <rev> | tar -x -C DIR`.  The
corpus:
- the REDUC_SCHEDULE graphs at caps 3 and 4, each raised to the largest
  list size as `kempe verify` does, with no group and with their
  automorphisms that keep the list sizes (skipped items are None);
- the first 20,000 cap-5 items of L(barbell(4,4,1)), with and without its
  group;
- bare size tuples at caps 3-6, the empty tuple among them, and path(3),
  path(4), cycle(4) and cycle(5) at caps 5 and 6 with their automorphisms;
- a sampled cap-6 stream of K4xK2 with 4-lists;
- canonicalize_assignment on seeded random assignments at caps 1-7.
Each item is compared as the tuple of its sorted lists.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Run inside each checkout; prints one JSON object per stream.
CHILD = r'''
import hashlib, itertools, json, random, sys
from kempe.graphs import automorphisms, cartesian_product, generate, line_graph, parse_family
from kempe.verify import (REDUC_SCHEDULE, _LEMMAS, AssignmentStream, canonicalize_assignment,
                          enumerate_degree_assignments)

def size_group(g, sizes):
    return [s for s in itertools.islice(automorphisms(g), 1, None)
            if all(sizes[v] == sizes[w] for v, w in enumerate(s))]

def emit(name, items):
    digest, count = hashlib.sha256(), 0
    for lists in items:
        form = None if lists is None else tuple(tuple(sorted(s)) for s in lists)
        digest.update(repr(form).encode())
        count += 1
    print(json.dumps({"name": name, "items": count, "sha256": digest.hexdigest()}), flush=True)

def stream(sizes, cap, group=(), limit=None, **sample):
    spec = AssignmentStream(tuple(sizes), cap, **sample)
    return itertools.islice(enumerate_degree_assignments(spec, group), limit)

for lemma, instance in REDUC_SCHEDULE:
    g, sizes, text, _ = _LEMMAS[lemma](instance, 1)
    for cap in sorted({max(c, *sizes) for c in (3, 4)}):  # as f_swappable_verdict does
        emit(f"{text} cap {cap}", stream(sizes, cap))
        emit(f"{text} cap {cap} with its group", stream(sizes, cap, size_group(g, sizes)))
h = line_graph(generate(parse_family("barbell(4,4,1)")))
emit("first 20000 of line_graph(barbell(4,4,1)) cap 5", stream(h.degrees(), 5, limit=20_000))
emit("first 20000 of line_graph(barbell(4,4,1)) cap 5 with its group",
     stream(h.degrees(), 5, size_group(h, h.degrees()), limit=20_000))
for sizes, cap in [((), 3), ((1,), 3), ((3,), 3), ((1, 1, 1), 3), ((2, 2, 2), 3), ((2, 1, 3), 4),
                   ((4, 4, 1), 4), ((1, 1, 1, 1), 4), ((2, 1, 3), 5), ((3, 1, 2), 5),
                   ((5, 2, 2), 5), ((1, 2, 3, 4, 5), 5), ((2, 2, 2, 2), 5), ((6, 1, 2), 6),
                   ((1, 3, 2), 6)]:
    emit(f"sizes {sizes} cap {cap}", stream(sizes, cap))
for family, size in [("path(3)", 2), ("path(4)", 1), ("cycle(4)", 2), ("cycle(5)", 1)]:
    g = generate(parse_family(family))
    sizes = (size,) * g.n
    for cap in (5, 6):
        emit(f"{family} sizes {sizes} cap {cap} with its group",
             stream(sizes, cap, size_group(g, sizes)))
k4k2 = cartesian_product(generate(parse_family("clique(4)")), generate(parse_family("clique(2)")))
emit("K4xK2 cap 6 sample 3000 seed 5", stream((4,) * k4k2.n, 6, sample=3000, seed=5))
rng = random.Random(2110)
forms = []
for _ in range(3000):
    cap = rng.randint(1, 7)
    forms.append(canonicalize_assignment(
        [frozenset(rng.sample(range(1, cap + 1), rng.randint(0, cap)))
         for _ in range(rng.randrange(8))], cap))
emit("3000 random canonical forms at caps 1-7", forms)
'''


def run(checkout: Path) -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as cache:
        proc = subprocess.run([sys.executable, "-c", CHILD], cwd=checkout, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(checkout / "src"),
                                                  PYTHONPYCACHEPREFIX=cache))
    if proc.returncode:
        raise SystemExit(f"{checkout}: the corpus failed\n{proc.stderr}")
    return {row["name"]: row for row in map(json.loads, proc.stdout.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--after", required=True, type=Path, help="the changed checkout")
    args = parser.parse_args(argv)
    before, after = run(args.before.resolve()), run(args.after.resolve())
    differ = sorted(before.keys() ^ after.keys())
    for name in differ:
        print(f"only in one checkout: {name}")
    for name in before.keys() & after.keys():
        if before[name] != after[name]:
            differ.append(name)
            print(f"differs: {name}: {before[name]['items']} -> {after[name]['items']} items")
    total = sum(row["items"] for row in after.values())
    if differ:
        print(f"{len(differ)} of {len(before.keys() | after.keys())} streams differ")
        return 1
    print(f"{len(after)} streams, {total} items: identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

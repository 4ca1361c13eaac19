"""Run a fixed `kempe` CLI corpus under several Python interpreters and compare.

Each interpreter runs every command of the corpus with PYTHONPATH=src and no
pytest.  The script exits nonzero if any command's stdout or exit code under
a later interpreter differs from what the first interpreter printed:

    python3 scripts/smoke_pythons.py /usr/bin/python3.10 /usr/bin/python3.13

The corpus: `discharge` with both variants, `audit` with both variants and
`extract` of G3 and of G2 on three plane graphs from tests/plane_corpus.py,
`audit --variant lemma1` on the prism C700xK2, whose G3 has paths deeper than
Python's recursion limit,
`mix` on K3xK2 with lists {1,2,3} and on K4xK2 with lists {1..5}, which
flood color-renaming orbits, `verify short-theta --cap 4`, `verify
big-intersection --cap 4`, which runs the Gallai-tree test on every K4 - e,
`verify k4k2 --cap 6 --sample 20 --workers 2`, two exhaustive two-worker
runs that a budget cuts (exit code 2): `verify short-theta` on theta(1,3,5)
at `--max-assignments 200`, and `verify prism` on prism(1,1,3) at cap 5 and
`--max-assignments 2000`, which pins the cap-5 stream, and the three `lift`
cases of tests/lift_corpus.py: a vertex lift that parks, a slack subgraph
lift and a tight one with `--target`.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lift_corpus import LIFTS  # noqa: E402
from plane_corpus import cube, prism, random_plane_min2, wheel  # noqa: E402

from kempe.coloring import make_lists  # noqa: E402
from kempe.graphs import cartesian_product, generate, parse_family  # noqa: E402
from kempe.io import write_edge_list, write_lists, write_rotation_system  # noqa: E402

PLANES = {"cube.rot": cube(), "wheel9.rot": wheel(9), "min2_20_8.rot": random_plane_min2(20, 8)}
DEEP = {"prism700.rot": prism(700)}
# (graph file, lists file) -> (first and second factor of the product, list size)
SPACES = {("k3k2.el", "k3k2_3.lists"): ("clique(3)", "clique(2)", 3),
          ("k4k2.el", "k4k2_5.lists"): ("clique(4)", "clique(2)", 5)}


def corpus() -> list[list[str]]:
    commands = [[command, "--plane", name, "--variant", variant]
                for name in PLANES for command in ("discharge", "audit")
                for variant in ("lemma1", "lemma2")]
    commands += [["extract", "--plane", name, "--kind", kind] for name in PLANES
                 for kind in ("G3", "G2")]
    commands += [["audit", "--plane", name, "--variant", "lemma1"] for name in DEEP]
    commands += [["mix", "--graph", graph, "--lists", lists] for graph, lists in SPACES]
    commands += [argv for _, argv in LIFTS.values()]
    return commands + [["verify", "short-theta", "--cap", "4"],
                       ["verify", "big-intersection", "--cap", "4"],
                       ["verify", "k4k2", "--cap", "6", "--sample", "20", "--workers", "2"],
                       ["verify", "short-theta", "--instance", "theta(1,3,5)", "--cap", "4",
                        "--max-assignments", "200", "--workers", "2"],
                       ["verify", "prism", "--instance", "prism(1,1,3)", "--cap", "5",
                        "--max-assignments", "2000", "--workers", "2"]]


def run_all(python: str, workdir: str) -> list[tuple[int, str]]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = []
    for argv in corpus():
        proc = subprocess.run([python, "-m", "kempe.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=600)
        out.append((proc.returncode, proc.stdout))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="+", help="interpreter paths; the first is the reference")
    args = parser.parse_args(argv)
    commands = corpus()
    with tempfile.TemporaryDirectory() as workdir:
        for name, pg in {**PLANES, **DEEP}.items():
            Path(workdir, name).write_text(write_rotation_system(pg))
        for (graph, lists), (first, second, colors) in SPACES.items():
            g = cartesian_product(generate(parse_family(first)), generate(parse_family(second)))
            Path(workdir, graph).write_text(write_edge_list(g))
            Path(workdir, lists).write_text(write_lists(make_lists([range(1, colors + 1)] * g.n)))
        for files, _ in LIFTS.values():
            for name, text in files.items():
                Path(workdir, name).write_text(text)
        results = {python: run_all(python, workdir) for python in args.pythons}
    reference = results[args.pythons[0]]
    bad = 0
    for python, got in results.items():
        version = subprocess.run([python, "--version"], capture_output=True, text=True)
        differ = [" ".join(cmd) for cmd, a, b in zip(commands, got, reference) if a != b]
        codes = " ".join(str(code) for code, _ in got)
        print(f"{python} ({(version.stdout or version.stderr).strip()}): "
              f"{len(commands) - len(differ)}/{len(commands)} identical, exit codes {codes}")
        for cmd in differ:
            print(f"  differs: {cmd}")
        bad += bool(differ)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

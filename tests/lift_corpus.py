"""`kempe lift` inputs shared by the golden tests and scripts/smoke_pythons.py.

LIFTS maps a case name to the files it reads (name -> text) and to its
`kempe lift` arguments.  All file names are distinct, so every case can be
written into one directory.
"""

from __future__ import annotations

from kempe import io as kio
from kempe.coloring import SwapMove, make_lists
from kempe.graphs import from_edges


def chorded_cycle_host(tight):
    """H = C6 on 2..7 with the antipodal chord 2-5, attached to the path 0-1 at 2 and 5.

    The host of TestLiftThroughSubgraph: |L(x)| = d(x) on H when tight, d(x) + 1
    otherwise, and {1, 2, 3} outside H.
    """
    edges = [(0, 1), (1, 2), (0, 5), (2, 5)]
    edges += [(c, c + 1) for c in range(2, 7)] + [(2, 7)]
    g = from_edges(8, edges)
    lists = [{1, 2, 3}] * 2 + [set(range(1, g.degree(x) + (not tight) + 1)) for x in range(2, 8)]
    return g, make_lists(lists)


def _case(prefix, g, lists, start, moves, flags, extra=None):
    files = {f"{prefix}.el": kio.write_edge_list(g), f"{prefix}.lists": kio.write_lists(lists),
             f"{prefix}.start": kio.write_coloring(start), f"{prefix}.moves": kio.write_moves(moves)}
    files.update(extra or {})
    argv = ["lift", "--graph", f"{prefix}.el", "--lists", f"{prefix}.lists",
            "--start", f"{prefix}.start", "--moves", f"{prefix}.moves", *flags]
    return files, argv


START = (1, 2, 1, 2, 1, 2, 1, 2)
LIFTS = {
    # Triangle 0-1-2 with the pendant 3 on 0: the first {1,2}-swap at 3 runs
    # through 0, so 0 is parked; then it is recolored to the target color 1.
    "lift_vertex_park": _case(
        "park", from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
        make_lists([{1, 2, 3, 4}, {1, 2, 3}, {1, 2, 3}, {1, 2}]), (1, 2, 3, 2),
        [SwapMove(3, (1, 2)), SwapMove(1, (2, 3)), SwapMove(3, (1, 2))],
        ["--vertex", "0", "--target-color", "1"]),
    "lift_subgraph_slack": _case(
        "slack", *chorded_cycle_host(tight=False), START,
        [SwapMove(1, (1, 2)), SwapMove(0, (2, 3)), SwapMove(1, (1, 3)), SwapMove(0, (1, 2))],
        ["--subgraph", "2,3,4,5,6,7"]),
    "lift_subgraph_tight_target": _case(
        "tight", *chorded_cycle_host(tight=True), START,
        [SwapMove(0, (1, 2)), SwapMove(1, (1, 3)), SwapMove(1, (1, 3)), SwapMove(0, (1, 2))],
        ["--subgraph", "2,3,4,5,6,7", "--target", "tight.target"],
        {"tight.target": kio.write_coloring((1, 2, 4, 2, 1, 3, 2, 1))}),
}

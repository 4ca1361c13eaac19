"""Text formats: edge lists, graph6, rotation systems, assignments, colorings, moves, DOT.

All writers end with a newline and are byte-stable for a given input; all
parsers ignore blank lines and '#' comments.
"""

from __future__ import annotations

from .coloring import Coloring, ListAssignment, SwapMove, make_lists
from .errors import ParameterError
from .graphs import Graph, from_edges
from .planar import PlaneGraph, _graph_from_rotation
from .reconfig import ReconfigGraph


def _data_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _rows(text: str, what: str, parse) -> list:
    """The rows of a "v: ..." format, one line per vertex, in vertex order.

    parse turns the text after a line's colon into its row, as each line is
    read, so a bad token raises before a later duplicate line is seen.
    """
    rows = {}
    for line in _data_lines(text):
        head, _, rest = line.partition(":")
        v = int(head)
        if v in rows:
            raise ParameterError(f"duplicate {what} line for vertex {v}")
        rows[v] = parse(rest)
    if sorted(rows) != list(range(len(rows))):
        raise ParameterError(f"{what} lines must cover vertices 0..n-1 exactly once")
    return [rows[v] for v in range(len(rows))]


# ---------------------------------------------------------------------------
# Edge-list format: first line "n m", then m lines "u v" (0-based)
# ---------------------------------------------------------------------------

def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = list(_data_lines(text))
    if not lines:
        raise ParameterError("empty edge-list input")
    try:
        n, m = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise ParameterError(f"bad edge-list header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParameterError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        u, v = (int(t) for t in line.split())
        edges.append((u, v))
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# graph6 (simple undirected graphs, n < 258048)
# ---------------------------------------------------------------------------

def graph_to_graph6(g: Graph) -> str:
    n = g.n
    if n > 258047:
        raise ParameterError("graph too large for this graph6 writer")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = "".join("1" if g.has_edge(u, v) else "0" for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParameterError("empty graph6 input")
    if s[0] == chr(126):
        if len(s) < 4 or s[1] == chr(126):
            raise ParameterError("unsupported graph6 size header")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 0:
        raise ParameterError("bad graph6 header")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ParameterError(f"bad graph6 character {ch!r}")
        bits += [(val >> s6) & 1 for s6 in range(5, -1, -1)]
    if len(bits) < n * (n - 1) // 2:
        raise ParameterError("graph6 body too short")
    pairs = ((u, v) for v in range(1, n) for u in range(v))
    return from_edges(n, [e for e, bit in zip(pairs, bits) if bit])


# ---------------------------------------------------------------------------
# Rotation systems ("v: n1 n2 ... nk" per vertex, cyclic order)
# ---------------------------------------------------------------------------

def write_rotation_system(pg: PlaneGraph) -> str:
    return pg.rotation_text()


def parse_plane_graph(text: str) -> PlaneGraph:
    rotation = tuple(_rows(text, "rotation", lambda rest: tuple(int(t) for t in rest.split())))
    return PlaneGraph(_graph_from_rotation(len(rotation), rotation), rotation)


# ---------------------------------------------------------------------------
# List assignments ("v: c1 c2 ...") and colorings ("v: c")
# ---------------------------------------------------------------------------

def write_lists(lists: ListAssignment) -> str:
    return "\n".join(f"{v}: {' '.join(str(c) for c in sorted(s))}"
                     for v, s in enumerate(lists)) + "\n"


def parse_lists(text: str, g: Graph | None = None) -> ListAssignment:
    rows = _rows(text, "list", lambda rest: [int(t) for t in rest.split()])
    if g is not None and len(rows) != g.n:
        raise ParameterError(f"assignment covers {len(rows)} vertices, graph has {g.n}")
    return make_lists(rows)


def write_coloring(phi: Coloring) -> str:
    return "\n".join(f"{v}: {c}" for v, c in enumerate(phi)) + "\n"


def parse_coloring(text: str, g: Graph | None = None) -> Coloring:
    rows = _rows(text, "coloring", int)
    if g is not None and len(rows) != g.n:
        raise ParameterError(f"coloring covers {len(rows)} vertices, graph has {g.n}")
    return tuple(rows)


# ---------------------------------------------------------------------------
# Move sequences ("anchor: a b" per line, in order)
# ---------------------------------------------------------------------------

def write_moves(moves) -> str:
    return "\n".join(f"{mv.anchor}: {mv.colors[0]} {mv.colors[1]}" for mv in moves) + "\n"


def parse_moves(text: str) -> list[SwapMove]:
    out = []
    for line in _data_lines(text):
        head, _, rest = line.partition(":")
        a, b = (int(t) for t in rest.split())
        out.append(SwapMove(int(head), (a, b)))
    return out


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def graph_to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        label = g.label(v)
        lines.append(f'  {v} [label="{label}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reconfig_to_dot(rg: ReconfigGraph) -> str:
    lines = ["graph R {"]
    for i, phi in enumerate(rg.colorings):
        label = ",".join(str(c) for c in phi)
        lines.append(f'  {i} [label="{label}"];')
    for a, b, mv in rg.edges:
        lines.append(f'  {a} -- {b} [label="{mv}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

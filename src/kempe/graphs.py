"""Simple undirected graphs: core type, family generators, derived constructions.

Vertices are dense 0-based integers and adjacency is kept as sorted tuples.
Every constructor validates simplicity (no loops, no parallel edges) and
symmetry.  Optional per-vertex labels carry provenance, e.g. the source edge
of a line-graph vertex, so reports can name things in terms of the original
graph.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetError, ParameterError, PreconditionError


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n != len(self.adj):
            raise ParameterError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ParameterError("labels length differs from vertex count")
        for v, nbrs in enumerate(self.adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise ParameterError(f"adjacency of vertex {v} is not sorted and duplicate-free")
            for w in nbrs:
                if not 0 <= w < self.n:
                    raise ParameterError(f"neighbor {w} of vertex {v} out of range")
                if w == v:
                    raise ParameterError(f"loop at vertex {v}")
                if v not in self.adj[w]:
                    raise ParameterError(f"edge ({v},{w}) lacks its reverse: adjacency not symmetric")

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adj)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return [(v, w) for v in range(self.n) for w in self.adj[v] if v < w]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    @functools.cached_property
    def masks(self) -> tuple[int, ...]:
        """Each vertex's neighborhood as a bitmask, built once per graph."""
        return tuple(sum(1 << w for w in nbrs) for nbrs in self.adj)


def from_edges(n: int, edges, labels=None) -> Graph:
    """Build a Graph from an edge iterable, validating simplicity."""
    adj: list[set[int]] = [set() for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ParameterError(f"loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParameterError(f"parallel edge {key}")
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in adj),
                 tuple(labels) if labels is not None else None)


def _components(adjm, s: int) -> tuple[int, ...]:
    """Component masks of the subgraph induced by the vertex mask s, by lowest vertex.

    adjm holds each vertex's neighborhood mask (Graph.masks).  This is the one
    component search: graph components, Kempe components, the flood's
    component memo, and the blocks and cut vertices of block_decomposition
    all come from it.
    """
    comps = []
    while s:
        comp = s & -s
        frontier = comp
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adjm[low.bit_length() - 1]
            frontier = nxt & s & ~comp
            comp |= frontier
        s &= ~comp
        comps.append(comp)
    return tuple(comps)


def _bits(mask: int) -> list[int]:
    """The vertices of a mask in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest vertex."""
    return [_bits(comp) for comp in _components(g.masks, (1 << g.n) - 1)]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices.

    Returns the subgraph on dense ids together with the vertex map: position i
    of the map is the host id of subgraph vertex i.  The map is sorted, so
    relative vertex order is preserved.
    """
    vmap = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(vmap)}
    adj = tuple(tuple(index[w] for w in g.adj[v] if w in index) for v in vmap)
    labels = tuple(g.label(v) for v in vmap) if g.labels is not None else None
    return Graph(len(vmap), adj, labels), vmap


def edge_subgraph(g: Graph, edges) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph formed by the given edges; isolated vertices are dropped.

    Returns dense-id subgraph plus the vertex map back to host ids.
    """
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}
    sub = from_edges(len(verts), [(index[u], index[v]) for u, v in set(edges)])
    return sub, tuple(verts)


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ParameterError(f"no edge ({u},{v}) to delete")
    adj = tuple(tuple(w for w in g.adj[x] if not (x == u and w == v) and not (x == v and w == u))
                for x in range(g.n))
    return Graph(g.n, adj, g.labels)


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------

_FAMILY_ARITY = {
    "cycle": 1,
    "path": 1,
    "clique": 1,
    "complete_bipartite": 2,
    "barbell": 3,
    "theta": 3,
    "prism": 3,
    "star": 1,
}

_FAMILY_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*([-0-9,\s]*)\s*\)\s*$")


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance, e.g. barbell(4,4,0)."""

    family: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.family}({','.join(str(p) for p in self.params)})"


def parse_family(text: str) -> FamilySpec:
    """Parse the compact family grammar, e.g. "theta(1,3,3)"."""
    m = _FAMILY_RE.match(text)
    if not m:
        raise ParameterError(f"cannot parse family spec {text!r}")
    family = m.group(1)
    if family not in _FAMILY_ARITY:
        raise ParameterError(f"unknown family {family!r}")
    raw = [p for p in m.group(2).split(",") if p.strip()]
    if len(raw) != _FAMILY_ARITY[family]:
        raise ParameterError(f"{family} takes {_FAMILY_ARITY[family]} parameter(s), got {len(raw)}")
    return FamilySpec(family, tuple(int(p) for p in raw))


def generate(spec: FamilySpec) -> Graph:
    """Build the named graph with the documented deterministic numbering.

    Cycles are numbered along the cycle and paths along the path.  For
    composite families:

    * barbell(c1, c2, p): first cycle 0..c1-1; for p = 0 the cycles share
      vertex 0, and the second cycle is 0, c1, c1+1, ..., c1+c2-2; for p >= 1
      the second cycle is c1..c1+c2-1 and a path with p-1 interior vertices
      (numbered from c1+c2) joins vertex 0 to vertex c1.
    * theta(l1, l2, l3): hubs 0 and 1; interior vertices of each path are
      numbered consecutively from 2, path by path, walking from hub 0.
    * prism(p1, p2, p3): triangles {0,1,2} and {3,4,5}; path i joins i-1 to
      i+2 with interior vertices numbered consecutively from 6.
    """
    fam, params = spec.family, spec.params
    if fam == "cycle":
        (k,) = params
        if k < 3:
            raise ParameterError(f"cycle length must be >= 3, got {k}")
        return from_edges(k, [(i, (i + 1) % k) for i in range(k)])
    if fam == "path":
        (k,) = params
        if k < 1:
            raise ParameterError(f"path vertex count must be >= 1, got {k}")
        return from_edges(k, [(i, i + 1) for i in range(k - 1)])
    if fam == "clique":
        (k,) = params
        if k < 1:
            raise ParameterError(f"clique size must be >= 1, got {k}")
        return from_edges(k, itertools.combinations(range(k), 2))
    if fam == "complete_bipartite":
        s, t = params
        if s < 1 or t < 1:
            raise ParameterError(f"complete_bipartite parts must be >= 1, got {s},{t}")
        return from_edges(s + t, [(a, s + b) for a in range(s) for b in range(t)])
    if fam == "star":
        (k,) = params
        if k < 1:
            raise ParameterError(f"star leaf count must be >= 1, got {k}")
        return from_edges(k + 1, [(0, i) for i in range(1, k + 1)])
    if fam == "barbell":
        return _generate_barbell(*params)
    if fam == "theta":
        return _generate_theta(*params)
    if fam == "prism":
        return _generate_prism(*params)
    raise ParameterError(f"unknown family {fam!r}")


def _generate_barbell(c1: int, c2: int, p: int) -> Graph:
    if c1 < 3 or c2 < 3:
        raise ParameterError(f"barbell cycle lengths must be >= 3, got {c1},{c2}")
    if p < 0:
        raise ParameterError(f"barbell path length must be >= 0, got {p}")
    edges = [(i, (i + 1) % c1) for i in range(c1)]
    if p == 0:
        # Short barbell: cycles share vertex 0.
        ring = [0] + list(range(c1, c1 + c2 - 1))
        n = c1 + c2 - 1
    else:
        ring = list(range(c1, c1 + c2))
        n = c1 + c2 + p - 1
    edges += [(ring[i], ring[(i + 1) % c2]) for i in range(c2)]
    if p >= 1:
        chain = [0] + list(range(c1 + c2, c1 + c2 + p - 1)) + [c1]
        edges += [(chain[i], chain[i + 1]) for i in range(p)]
    return from_edges(n, edges)


def _generate_theta(l1: int, l2: int, l3: int) -> Graph:
    lengths = (l1, l2, l3)
    if any(l < 1 for l in lengths):
        raise ParameterError(f"theta path lengths must be >= 1, got {lengths}")
    if sum(1 for l in lengths if l == 1) > 1:
        raise ParameterError(f"theta allows at most one path of length 1, got {lengths}")
    edges = []
    nxt = 2
    for l in lengths:
        chain = [0] + list(range(nxt, nxt + l - 1)) + [1]
        nxt += l - 1
        edges += [(chain[i], chain[i + 1]) for i in range(l)]
    return from_edges(nxt, edges)


def _generate_prism(p1: int, p2: int, p3: int) -> Graph:
    lengths = (p1, p2, p3)
    if any(l < 1 for l in lengths):
        raise ParameterError(f"prism path lengths must be >= 1, got {lengths}")
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    nxt = 6
    for i, l in enumerate(lengths):
        chain = [i] + list(range(nxt, nxt + l - 1)) + [i + 3]
        nxt += l - 1
        edges += [(chain[j], chain[j + 1]) for j in range(l)]
    return from_edges(nxt, edges)


# ---------------------------------------------------------------------------
# Derived constructions
# ---------------------------------------------------------------------------

def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge, adjacent iff source edges share an endpoint.

    Vertices are labeled "u-v" after their source edge, in lexicographic edge
    order.  A vertex for edge vw gets degree d(v)+d(w)-2.
    """
    es = g.edges()
    index = {e: i for i, e in enumerate(es)}
    adj: list[set[int]] = [set() for _ in es]
    for v in range(g.n):
        for a, b in itertools.combinations(g.adj[v], 2):
            ea = index[(min(v, a), max(v, a))]
            eb = index[(min(v, b), max(v, b))]
            adj[ea].add(eb)
            adj[eb].add(ea)
    labels = tuple(f"{u}-{v}" for u, v in es)
    return Graph(len(es), tuple(tuple(sorted(s)) for s in adj), labels)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; vertex (a, b) has id a*g2.n + b and label "(a,b)"."""
    n2 = g2.n
    edges = [(a * n2 + b, a * n2 + c) for a in range(g1.n) for b, c in g2.edges()]
    edges += [(a * n2 + b, c * n2 + b) for b in range(n2) for a, c in g1.edges()]
    labels = tuple(f"({a},{b})" for a in range(g1.n) for b in range(n2))
    return from_edges(g1.n * n2, edges, labels)


# ---------------------------------------------------------------------------
# Isomorphism (small graphs only)
# ---------------------------------------------------------------------------

def _refine_labels(g: Graph) -> tuple[int, ...]:
    """Iterated neighborhood refinement, starting from degrees."""
    labels = list(g.degrees())
    while True:
        sigs = [(labels[v], tuple(sorted(labels[w] for w in g.adj[v]))) for v in range(g.n)]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if new == labels:
            return tuple(new)
        labels = new


def _isomorphisms(g1: Graph, g2: Graph):
    """Every vertex bijection g1 -> g2 preserving adjacency, in lexicographic order.

    The search maps the vertices of g1 in ascending id order, each to the
    least available candidate first, so the mappings (tuples v -> image) come
    out in increasing order.  Candidates must share the refined label and agree on
    adjacency with every vertex mapped before.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return
    lab1, lab2 = _refine_labels(g1), _refine_labels(g2)
    if sorted(lab1) != sorted(lab2):
        return
    mapping = [-1] * g1.n
    used = [False] * g2.n

    def extend(v: int):
        if v == g1.n:
            yield tuple(mapping)
            return
        for w in range(g2.n):
            if used[w] or lab1[v] != lab2[w]:
                continue
            if any((u in g1.adj[v]) != (mapping[u] in g2.adj[w]) for u in range(v)):
                continue
            mapping[v] = w
            used[w] = True
            yield from extend(v + 1)
            mapping[v] = -1
            used[w] = False

    yield from extend(0)


def is_isomorphic(g1: Graph, g2: Graph, max_n: int = 12) -> list[int] | None:
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Deterministic: the lexicographically least such bijection, the first that
    _isomorphisms finds.  Intended for graphs of at most max_n vertices;
    larger inputs raise a budget error.
    """
    if max(g1.n, g2.n) > max_n:
        raise BudgetError(f"isomorphism size guard exceeded: {max(g1.n, g2.n)} > {max_n}", max_n)
    first = next(_isomorphisms(g1, g2), None)
    return None if first is None else list(first)


def automorphisms(g: Graph):
    """An iterator over the automorphisms of g as tuples (v -> image), identity first.

    Lexicographic order, lazily: a caller that needs only some of the group
    takes a prefix.  The group can be huge (K_n has n! elements) and there
    is no size guard.
    """
    return _isomorphisms(g, g)


# ---------------------------------------------------------------------------
# Gallai trees and degree-choosability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """A block (maximal 2-connected subgraph or bridge) given by its edges."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def is_clique(self) -> bool:
        k = len(self.vertices)
        return len(self.edges) == k * (k - 1) // 2

    def is_odd_cycle(self) -> bool:
        k = len(self.vertices)
        degrees = Counter(v for e in self.edges for v in e)
        return k % 2 == 1 and len(self.edges) == k and all(degrees[v] == 2 for v in self.vertices)


@dataclass(frozen=True)
class GallaiReport:
    is_gallai_tree: bool
    blocks: tuple[Block, ...]
    cut_vertices: tuple[int, ...]
    offending_block: int | None


def block_decomposition(g: Graph) -> tuple[tuple[Block, ...], tuple[int, ...]]:
    """Blocks (by vertex tuple) and cut vertices (ascending), from the component search.

    Two edges wa and wb lie in one block iff a cycle passes through both,
    that is iff a and b lie in one component of g - w.  The edges of a block
    are linked through shared vertices, so merging every such pair in a
    union-find leaves one class per block, and w is a cut vertex iff its
    edges fall into two or more classes.
    """
    root = {e: e for e in g.edges()}

    def find(e):
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    everyone = (1 << g.n) - 1
    cuts = []
    for w, near in enumerate(g.masks):
        classes = 0
        for comp in _components(g.masks, everyone ^ 1 << w):
            ends = [(min(w, a), max(w, a)) for a in _bits(near & comp)]
            if ends:
                classes += 1
                first = find(ends[0])
                for e in ends[1:]:
                    root[find(e)] = first
        if classes >= 2:
            cuts.append(w)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e in root:
        groups.setdefault(find(e), []).append(e)
    blocks = [Block(tuple(sorted({v for e in es for v in e})), tuple(es))
              for es in groups.values()]
    blocks.sort(key=lambda b: b.vertices)
    return tuple(blocks), tuple(cuts)


def is_gallai_tree(g: Graph) -> GallaiReport:
    """True iff every block is a clique or an odd cycle (connected input only)."""
    if not is_connected(g):
        raise PreconditionError("Gallai-tree test requires a connected graph")
    blocks, cuts = block_decomposition(g)
    offending = next((i for i, b in enumerate(blocks)
                      if not (b.is_clique() or b.is_odd_cycle())), None)
    return GallaiReport(offending is None, blocks, cuts, offending)


# ---------------------------------------------------------------------------
# Elimination orders
# ---------------------------------------------------------------------------

def slack_order(g: Graph, sizes) -> list[int] | None:
    """A vertex order where each vertex is preceded by fewer than sizes[v] neighbors.

    Greedy peeling from the back; returns None when no such order exists.
    """
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in range(g.n)}
    order: list[int] = []
    while remaining:
        pick = next((v for v in sorted(remaining) if deg[v] < sizes[v]), None)
        if pick is None:
            return None
        remaining.discard(pick)
        for w in g.adj[pick]:
            if w in remaining:
                deg[w] -= 1
        order.append(pick)
    order.reverse()
    return order

"""Plane embeddings, face tracing, special subgraphs, reducible configurations.

A plane graph is a graph plus a rotation system: the cyclic order of
neighbors around each vertex.  Faces are never part of the input; tracing
uses the fixed convention that the edge following a directed edge (u, v) is
(v, w) with w the successor of u in the rotation at v.  The Euler check
|V| - |E| + |F| = 1 + #components certifies a genus-0 embedding.  A
PlaneGraph is immutable, so it traces its faces and extracts G3 and G2 at
most once, on first use, and keeps them; a failed trace is not kept.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetError, KempeError, ParameterError, PreconditionError
from .graphs import (
    Graph,
    connected_components,
    edge_subgraph,
)

DEFAULT_SEARCH_BUDGET = 500_000


@dataclass(frozen=True)
class PlaneGraph:
    graph: Graph
    rotation: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.graph
        if len(self.rotation) != g.n:
            raise ParameterError(f"rotation has {len(self.rotation)} rows for n={g.n}")
        for v, rot in enumerate(self.rotation):
            if tuple(sorted(rot)) != g.adj[v]:
                raise ParameterError(f"rotation at vertex {v} is not a permutation of its "
                                     f"neighbors")

    def rotation_text(self) -> str:
        return "\n".join(f"{v}: {' '.join(str(w) for w in rot)}"
                         for v, rot in enumerate(self.rotation)) + "\n"

    # Memos for trace_faces and extract_special_subgraph.  cached_property
    # writes to the instance __dict__, which a frozen dataclass allows, and
    # keeps nothing when the computation raises.
    @cached_property
    def _faces(self) -> tuple[FaceWalk, ...]:
        return _trace_faces(self)

    @cached_property
    def _g3(self) -> SpecialSubgraph:
        return _extract_special_subgraph(self, "G3")

    @cached_property
    def _g2(self) -> SpecialSubgraph:
        return _extract_special_subgraph(self, "G2")


@dataclass(frozen=True)
class FaceWalk:
    """A closed walk of directed edges bounding one face."""

    edges: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    def vertices(self) -> tuple[int, ...]:
        """Boundary vertices with multiplicity (one per corner)."""
        return tuple(u for u, _ in self.edges)

    def incidences(self, v: int) -> int:
        return sum(1 for u, _ in self.edges if u == v)


def trace_faces(pg: PlaneGraph) -> tuple[FaceWalk, ...]:
    """All face walks; every directed edge is used exactly once.

    Raises "not a genus-0 embedding" when the Euler count fails, on every
    call.  Faces are listed in order of their lexicographically least unused
    directed edge, which makes reports byte-stable.  The walks are traced on
    the first call for pg; later calls return the same tuple.
    """
    return pg._faces


def _trace_faces(pg: PlaneGraph) -> tuple[FaceWalk, ...]:
    g = pg.graph
    succ_index = [{w: i for i, w in enumerate(rot)} for rot in pg.rotation]
    remaining = {(v, w) for v in range(g.n) for w in g.adj[v]}
    faces = []
    while remaining:
        start = min(remaining)
        walk = []
        edge = start
        while True:
            walk.append(edge)
            remaining.discard(edge)
            u, v = edge
            rot = pg.rotation[v]
            edge = (v, rot[(succ_index[v][u] + 1) % len(rot)])
            if edge == start:
                break
            if edge not in remaining:
                raise KempeError("internal: face tracing revisited a used edge")
        faces.append(FaceWalk(tuple(walk)))
    if g.m > 0:
        # Each component is traced independently, so a genus-0 system gives
        # V - E + F = 2 per component with edges (outer walks not merged;
        # isolated vertices sit inside faces and trace nothing).
        live = sum(1 for v in range(g.n) if g.degree(v) > 0)
        components = sum(1 for comp in connected_components(g) if len(comp) > 1)
        if live - g.m + len(faces) != 2 * components:
            raise PreconditionError(
                f"not a genus-0 embedding: V-E+F = {live}-{g.m}+{len(faces)} != "
                f"2*{components} components")
    return tuple(faces)


def plane_graph_from_faces(n: int, faces) -> PlaneGraph:
    """Build a rotation system from consistently oriented face cycles.

    Each face is a vertex cycle; every directed edge must appear in exactly
    one face.  The corner (x, y, z) of a face pins the successor of x after y.
    """
    nxt: list[dict[int, int]] = [{} for _ in range(n)]
    for face in faces:
        k = len(face)
        for i in range(k):
            x, y, z = face[i], face[(i + 1) % k], face[(i + 2) % k]
            if x in nxt[y]:
                raise ParameterError(f"directed edge ({x},{y}) appears in two faces")
            nxt[y][x] = z
    rotation = []
    for v in range(n):
        chain = nxt[v]
        if not chain:
            rotation.append(())
            continue
        start = min(chain)
        rot = [start]
        cur = chain[start]
        while cur != start:
            if cur in rot:
                raise ParameterError(f"rotation at vertex {v} does not close into one cycle")
            rot.append(cur)
            cur = chain[cur]
        if len(rot) != len(chain):
            raise ParameterError(f"rotation at vertex {v} does not cover all neighbors")
        rotation.append(tuple(rot))
    pg = PlaneGraph(_graph_from_rotation(n, rotation), tuple(rotation))
    trace_faces(pg)  # Euler check
    return pg


def _graph_from_rotation(n: int, rotation) -> Graph:
    return Graph(n, tuple(tuple(sorted(rot)) for rot in rotation))


def delete_edge_planar(pg: PlaneGraph, u: int, v: int) -> PlaneGraph:
    """Remove one edge; the embedding of everything else is unchanged."""
    if not pg.graph.has_edge(u, v):
        raise ParameterError(f"no edge ({u},{v}) to delete")
    rotation = tuple(
        tuple(w for w in rot if not (x == u and w == v) and not (x == v and w == u))
        for x, rot in enumerate(pg.rotation))
    return PlaneGraph(_graph_from_rotation(pg.graph.n, rotation), rotation)


# ---------------------------------------------------------------------------
# Special subgraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialSubgraph:
    """G3 or G2 of a plane graph, on dense ids with a map back to host ids."""

    kind: str
    graph: Graph
    vertices: tuple[int, ...]
    qualifying: tuple[int, ...]  # host ids of the defining low-degree vertices
    adjacent_qualifying_pair: tuple[int, int] | None
    parts: tuple[frozenset[int], frozenset[int]] | None  # host-id bipartition

    def host_edges(self) -> list[tuple[int, int]]:
        return [(self.vertices[u], self.vertices[v]) for u, v in self.graph.edges()]


def extract_special_subgraph(pg: PlaneGraph, kind: str) -> SpecialSubgraph:
    """Edge-induced subgraph on the defining vertices of the host.

    G3 takes all edges incident to degree-3 vertices; G2 takes all edges
    incident to degree-2 vertices that lie on at least one 3-face.  Isolated
    vertices are dropped.  When no two defining vertices are adjacent the
    subgraph is bipartite with the defining vertices as one part; that split
    is recorded in host ids.  Each kind is extracted on the first call for
    pg; later calls return the same object.
    """
    if kind == "G3":
        return pg._g3
    if kind == "G2":
        return pg._g2
    raise ParameterError(f"kind must be G3 or G2, got {kind!r}")


def _extract_special_subgraph(pg: PlaneGraph, kind: str) -> SpecialSubgraph:
    g = pg.graph
    if kind == "G3":
        qualifying = {v for v in range(g.n) if g.degree(v) == 3}
    else:
        on_3_face = {v for face in trace_faces(pg) if face.length == 3 for v in face.vertices()}
        qualifying = {v for v in range(g.n) if g.degree(v) == 2 and v in on_3_face}
    edges = [(u, v) for u, v in g.edges() if u in qualifying or v in qualifying]
    if not edges:
        return SpecialSubgraph(kind, Graph(0, ()), (), tuple(sorted(qualifying)), None, None)
    sub, vmap = edge_subgraph(g, edges)
    pair = next(((u, v) for u, v in edges if u in qualifying and v in qualifying), None)
    # Every edge has a qualifying end and, with no pair, only one: a proper 2-coloring.
    parts = None if pair else (frozenset(v for v in vmap if v in qualifying),
                               frozenset(v for v in vmap if v not in qualifying))
    return SpecialSubgraph(kind, sub, vmap, tuple(sorted(qualifying)), pair, parts)


# ---------------------------------------------------------------------------
# Cycle and path search (exhaustive; in-scope subgraphs are tiny)
# ---------------------------------------------------------------------------

class _SearchBudget:
    """Mutable step counter shared across one detection call."""

    __slots__ = ("remaining", "limit")

    def __init__(self, limit: int):
        self.remaining = limit
        self.limit = limit

    def spend(self, what: str) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetError(f"{what} exceeded the search budget of {self.limit} steps",
                              self.limit)


def all_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple cycle, as a canonical tuple: least vertex first, lesser
    neighbor second, so each cycle appears exactly once."""
    return _cycles_up_to(g, None, _SearchBudget(DEFAULT_SEARCH_BUDGET))[0]


def _walk(g: Graph, start: int, end: int, low: int, max_len: int | None,
          counter: _SearchBudget, what: str):
    """Yield every simple path from start, through vertices above low, that
    reaches a neighbor of end, as a tuple without end; and None each time
    max_len (no bound when None) cuts off a path that could go on.

    Reaching end stops a path.  The search is depth-first with neighbors in
    ascending order and keeps its own stack of neighbor iterators, so its depth
    is not bounded by Python's recursion limit.  Each path reached, start alone
    included, spends one step from counter.
    """
    adj = g.adj
    path, on_path = [start], [False] * g.n
    on_path[start] = True
    counter.spend(what)
    stack = [iter(adj[start])]
    while stack:
        for w in stack[-1]:
            if w == end:
                yield tuple(path)
            elif w > low and not on_path[w]:
                if len(path) == max_len:
                    yield None
                    continue
                counter.spend(what)
                path.append(w)
                on_path[w] = True
                stack.append(iter(adj[w]))
                break
        else:
            stack.pop()
            on_path[path.pop()] = False


def _cycles_up_to(g: Graph, max_len: int | None,
                  counter: _SearchBudget) -> tuple[list[tuple[int, ...]], bool]:
    """Simple cycles with at most max_len vertices (all when None), sorted by
    (length, tuple), and whether the bound cut off a path that the unbounded
    search would have extended.

    The bounded search is the unbounded one with those extensions skipped, so
    it visits a subset of its nodes; when nothing was cut off it visited them
    all and found every cycle.
    """
    cycles, cut = [], False
    for s in range(g.n):
        for c in _walk(g, s, s, s, max_len, counter, "cycle search"):
            if c is None:
                cut = True
            elif len(c) >= 3 and c[1] < c[-1]:
                cycles.append(c)
    return sorted(cycles, key=lambda c: (len(c), c)), cut


def all_paths_between(g: Graph, u: int, v: int,
                      counter: _SearchBudget) -> list[tuple[int, ...]]:
    """Every simple u,v-path as a vertex tuple from u to v, sorted by (length,
    tuple); each search step is spent from counter."""
    paths = _walk(g, u, v, -1, None, counter, "path search")
    return sorted((p + (v,) for p in paths), key=lambda p: (len(p), p))


def _shortest_join(g: Graph, source: set[int], target: set[int]) -> tuple[int, ...] | None:
    """Shortest path from one vertex set to another; interior avoids both."""
    parent = {v: None for v in source}
    queue = deque(sorted(source))
    while queue:
        x = queue.popleft()
        for w in sorted(g.adj[x]):
            if w in parent:
                continue
            parent[w] = x
            if w in target:
                path = [w]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return tuple(path)
            queue.append(w)
    return None


# ---------------------------------------------------------------------------
# Configuration witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigWitness:
    """A concrete occurrence of one of the reducible configurations."""

    kind: str  # "C1-edge" | "C2-barbell" | "C3-theta" | "C3-K24"
    edge: tuple[int, int] | None = None
    degree_sum: int | None = None
    threshold: int | None = None
    cycle1: tuple[int, ...] | None = None
    cycle2: tuple[int, ...] | None = None
    path: tuple[int, ...] | None = None
    hubs: tuple[int, int] | None = None
    paths: tuple[tuple[int, ...], ...] | None = None
    centers: tuple[int, ...] | None = None
    note: str = ""

    def translated(self, vmap) -> "ConfigWitness":
        """Map dense subgraph ids back to host ids."""
        def tt(seq):
            return tuple(vmap[x] for x in seq) if seq is not None else None

        return dataclasses.replace(
            self, edge=tt(self.edge), cycle1=tt(self.cycle1), cycle2=tt(self.cycle2),
            path=tt(self.path), hubs=tt(self.hubs), centers=tt(self.centers),
            paths=tuple(tt(p) for p in self.paths) if self.paths is not None else None)

    def validate(self, g: Graph) -> None:
        """Re-check the witness structurally against the graph it names."""
        if self.kind == "C1-edge":
            u, v = self.edge
            if not g.has_edge(u, v):
                raise KempeError(f"witness edge ({u},{v}) is not an edge")
            if g.degree(u) + g.degree(v) != self.degree_sum:
                raise KempeError("witness degree sum is stale")
            if self.degree_sum > self.threshold:
                raise KempeError("witness edge exceeds the threshold")
        elif self.kind == "C2-barbell":
            for cyc in (self.cycle1, self.cycle2):
                _validate_cycle(g, cyc)
                if len(cyc) % 2:
                    raise KempeError("barbell witness cycle is odd")
            shared = set(self.cycle1) & set(self.cycle2)
            if self.path is None or len(self.path) == 1:
                if len(shared) != 1 or set(self.path or shared) != shared:
                    raise KempeError("short barbell witness must share exactly one vertex")
            else:
                if shared:
                    raise KempeError("barbell witness cycles overlap beyond the join path")
                _validate_path(g, self.path)
                if self.path[0] not in self.cycle1 or self.path[-1] not in self.cycle2:
                    raise KempeError("barbell join path does not end on the cycles")
                interior = set(self.path[1:-1])
                if interior & (set(self.cycle1) | set(self.cycle2)):
                    raise KempeError("barbell join path re-enters a cycle")
        elif self.kind == "C3-theta":
            u, v = self.hubs
            if len(self.paths) != 3:
                raise KempeError("theta witness needs three paths")
            interiors = []
            parities = set()
            for p in self.paths:
                if p[0] != u or p[-1] != v:
                    raise KempeError("theta path does not join the hubs")
                _validate_path(g, p)
                interiors.append(set(p[1:-1]))
                parities.add((len(p) - 1) % 2)
            if len(parities) != 1:
                raise KempeError("theta witness is not bipartite: path parities differ")
            for a, b in itertools.combinations(interiors, 2):
                if a & b:
                    raise KempeError("theta paths are not internally disjoint")
            if sorted(len(p) - 1 for p in self.paths) == [2, 2, 2]:
                raise KempeError("theta witness is K_{2,3}, which is excluded")
        elif self.kind == "C3-K24":
            u, v = self.hubs
            if len(set(self.centers)) != 4:
                raise KempeError("K_{2,4} witness needs four distinct centers")
            for c in self.centers:
                if not (g.has_edge(u, c) and g.has_edge(v, c)):
                    raise KempeError(f"center {c} is not joined to both hubs")
        else:
            raise KempeError(f"unknown witness kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "C1-edge":
            u, v = self.edge
            return (f"C1-edge ({u},{v}) degree sum {self.degree_sum} "
                    f"<= {self.threshold}")
        if self.kind == "C2-barbell":
            join = "shared vertex" if len(self.path) == 1 else "path"
            return (f"C2-barbell cycles {self.cycle1} and {self.cycle2}, "
                    f"{join} {self.path}")
        if self.kind == "C3-theta":
            return f"C3-theta hubs {self.hubs} paths {self.paths}"
        if self.kind == "C3-K24":
            extra = f" [{self.note}]" if self.note else ""
            return f"C3-K24 hubs {self.hubs} centers {self.centers}{extra}"
        return self.kind


def _validate_cycle(g: Graph, cyc) -> None:
    if cyc is None or len(cyc) < 3 or not g.has_edge(cyc[-1], cyc[0]):
        raise KempeError(f"not a closed cycle: {cyc}")
    _validate_path(g, cyc)


def _validate_path(g: Graph, path) -> None:
    if len(set(path)) != len(path):
        raise KempeError(f"not a simple path: {path}")
    for x, y in zip(path, path[1:]):
        if not g.has_edge(x, y):
            raise KempeError(f"path edge ({x},{y}) missing")


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

def detect_configuration(g: Graph, kind: str, threshold: int | None = None,
                         budget: int = DEFAULT_SEARCH_BUDGET) -> ConfigWitness | None:
    """Search for one configuration; subgraph containment semantics.

    C1 runs on the host graph's degrees with an explicit threshold (never
    inferred here).  C2/C3 variants expect the extracted G3 or G2 on dense
    ids.  Returns the lexicographically least witness, or None only after an
    exhaustive search within budget.
    """
    if kind == "C1":
        if threshold is None:
            raise ParameterError("C1 detection needs an explicit threshold")
        for u, v in g.edges():
            s = g.degree(u) + g.degree(v)
            if s <= threshold:
                return ConfigWitness("C1-edge", edge=(u, v), degree_sum=s,
                                     threshold=threshold)
        return None
    if kind == "C2-barbell":
        return _detect_barbell(g, budget)
    if kind == "C3-theta":
        return _detect_theta(g, budget)
    if kind == "C3-K24":
        return _detect_k24(g)
    raise ParameterError(f"unknown configuration kind {kind!r}")


def _detect_barbell(g: Graph, budget: int) -> ConfigWitness | None:
    """First barbell in ascending total cycle length, ties by enumeration order.

    The order is that of one full scan: even cycles sorted by (length,
    tuple), pairs by ascending length sum, then by the two cycles' positions.
    Listing every cycle first can take exponential time although a small
    barbell is there, so the search deepens instead.  Round L lists the even
    cycles of length at most L and scans the pairs of total at most L + 4;
    L doubles until the cycle search cuts nothing off, and that round scans
    every pair.  Each round has its own budget of search steps and pair
    checks.

    This reports what the full scan reports.  An even cycle in a simple graph
    has length at least 4, so both cycles of a pair of total at most L + 4
    have length at most L.  Round L therefore meets the same pairs in the
    same order as the full scan, up to that total: its scan is a prefix of
    the full one, and its first barbell is the full scan's.  Its cycle search
    visits a subset of the full search's nodes, so a full search that stays
    within budget keeps every round within budget, with the same witness or
    the same None.  Only a full search that runs out of budget can now end
    with a barbell instead.
    """
    # Any start keeps the order.  On the G3 and G2 of random sparse plane
    # graphs, 6 spent the fewest steps: about 0.6 times as many as 4 or 8.
    max_len = 6
    while True:
        counter = _SearchBudget(budget)
        cycles, cut = _cycles_up_to(g, max_len, counter)
        even_cycles = [c for c in cycles if len(c) % 2 == 0]
        witness = _first_barbell(g, even_cycles, counter, max_len + 4 if cut else None)
        if witness is not None or not cut:
            return witness
        max_len *= 2


def _first_barbell(g: Graph, even_cycles, counter: _SearchBudget,
                   max_total: int | None) -> ConfigWitness | None:
    """Scan pairs of the sorted even cycles with total length at most
    max_total (all when None); each pair check spends one budget step."""
    by_len: dict[int, list[int]] = {}
    for idx, c in enumerate(even_cycles):
        by_len.setdefault(len(c), []).append(idx)
    lengths = sorted(by_len)
    vsets = [set(c) for c in even_cycles]
    for total in sorted({a + b for a in lengths for b in lengths if a <= b}):
        if max_total is not None and total > max_total:
            break
        for la in lengths:
            lb = total - la
            if lb < la or lb not in by_len:
                continue
            for i in by_len[la]:
                for j in by_len[lb]:
                    if j <= i:
                        continue
                    counter.spend("barbell pair scan")
                    shared = vsets[i] & vsets[j]
                    if len(shared) > 1:
                        continue
                    if len(shared) == 1:
                        path = (min(shared),)
                    else:
                        path = _shortest_join(g, vsets[i], vsets[j])
                        if path is None:
                            continue
                    return ConfigWitness("C2-barbell", cycle1=even_cycles[i],
                                         cycle2=even_cycles[j], path=path)
    return None


def _detect_theta(g: Graph, budget: int) -> ConfigWitness | None:
    """Branch-and-prune over hub pairs and three internally disjoint paths.

    Paths per hub pair are pre-sorted by (length, tuple) and grouped by
    parity (a bipartite theta needs all three lengths congruent mod 2); the
    first qualifying triple in that order is returned.
    """
    counter = _SearchBudget(budget)
    for u, v in itertools.combinations(range(g.n), 2):
        if g.degree(u) < 3 or g.degree(v) < 3:
            continue
        paths = all_paths_between(g, u, v, counter)
        for parity in (0, 1):
            group = [p for p in paths if (len(p) - 1) % 2 == parity]
            interiors = [frozenset(p[1:-1]) for p in group]
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if interiors[i] & interiors[j]:
                        continue
                    ij = interiors[i] | interiors[j]
                    for k in range(j + 1, len(group)):
                        counter.spend("theta triple scan")
                        if interiors[k] & ij:
                            continue
                        lengths = sorted(len(group[t]) - 1 for t in (i, j, k))
                        if lengths == [2, 2, 2]:
                            continue  # K_{2,3} is excluded
                        trio = tuple(sorted((group[i], group[j], group[k])))
                        return ConfigWitness("C3-theta", hubs=(u, v), paths=trio)
    return None


def _detect_k24(g: Graph) -> ConfigWitness | None:
    for u, v in itertools.combinations(range(g.n), 2):
        common = sorted(set(g.adj[u]) & set(g.adj[v]))
        if len(common) >= 4:
            return ConfigWitness("C3-K24", hubs=(u, v), centers=tuple(common[:4]))
    return None


# ---------------------------------------------------------------------------
# Structural audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    variant: str
    threshold: int
    witnesses: tuple[ConfigWitness, ...]
    none_found: bool
    complete: bool
    subgraph: SpecialSubgraph
    serialized: str | None
    notes: tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [f"variant={self.variant} threshold={self.threshold} "
                 f"subgraph={self.subgraph.kind} "
                 f"({self.subgraph.graph.n} vertices, {self.subgraph.graph.m} edges)"]
        if self.none_found and self.complete:
            lines.append("NONE-HOLD: no configuration found; detector bug or a genuine "
                         "counterexample; graph serialized below")
            lines.append(self.serialized.rstrip("\n"))
        elif self.none_found:
            lines.append("inconclusive: nothing found but a detector ran out of budget")
        for note in self.notes:
            lines.append("note: " + note)
        for w in self.witnesses:
            lines.append("found " + w.describe())
        return "\n".join(lines) + "\n"


def structural_audit(pg: PlaneGraph, variant: str) -> AuditReport:
    """Evaluate (C1), (C2), (C3) for one lemma variant and report all that hold.

    The structural lemmas promise at least one configuration on every simple
    plane graph with min degree 2; a report finding nothing after complete
    searches is therefore flagged as a detector bug or genuine counterexample
    and carries the serialized rotation system.  A detector that exhausts its
    budget is recorded in the notes instead of failing the audit.
    """
    g = pg.graph
    if g.n == 0:
        raise PreconditionError("structural audit needs a nonempty plane graph")
    if g.min_degree() < 2:
        raise PreconditionError(f"structural audit needs min degree >= 2, got "
                                f"{g.min_degree()}")
    if variant == "lemma1":
        threshold = max(11, g.max_degree() + 2)
        sub_kind = "G3"
    elif variant == "lemma2":
        threshold = 16
        sub_kind = "G2"
    else:
        raise ParameterError(f"variant must be lemma1 or lemma2, got {variant!r}")
    sub = extract_special_subgraph(pg, sub_kind)
    witnesses = []
    notes = []

    def run(kind, graph, translate):
        """Record the kind's witness on graph, translated to the host, if there is one."""
        try:
            found = detect_configuration(graph, kind, threshold=threshold)
        except BudgetError as exc:
            notes.append(f"{kind}: {exc}")
            return
        if found is not None:
            found.validate(graph)
            witnesses.append(translate(found))

    def k24_note(w):
        w = w.translated(sub.vertices)
        two_side = all(g.degree(c) == 2 for c in w.centers)
        return dataclasses.replace(w, note="centers are host 2-vertices" if two_side
                                   else "centers include a non-2-vertex of the host")

    run("C1", g, lambda w: w)
    run("C2-barbell", sub.graph, lambda w: w.translated(sub.vertices))
    if variant == "lemma2":
        run("C3-K24", sub.graph, k24_note)
    run("C3-theta", sub.graph, lambda w: w.translated(sub.vertices))
    none_found = not witnesses
    complete = not notes
    serialized = pg.rotation_text() if none_found else None
    return AuditReport(variant, threshold, tuple(witnesses), none_found, complete,
                       sub, serialized, tuple(notes))

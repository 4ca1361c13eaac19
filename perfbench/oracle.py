"""Independent reference computations for the benchmark's output checks.

Nothing here imports kempe.  Graphs are plain adjacency lists built from edge
lists, colorings come from itertools.product or plain backtracking,
Kempe swaps are recomputed from scratch, and reconfiguration classes are
networkx connected components.  Everything is brute force and meant for the
small spaces the checks pick; the checks run after the timed region.

networkx is imported inside the functions that use it: the benchmark draws
its inputs with the plain helpers here before the timed region, and importing
networkx there would raise the peak memory the benchmark reports.
"""

from __future__ import annotations

import itertools
import math
from collections import deque


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [frozenset(s) for s in adj]


def to_nx(n, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def family_nx(text):
    """The graph a family string names, built by networkx (up to isomorphism).

    Only the isomorphism class matters to the callers (orbit counts and
    seeded re-checks), so no vertex numbering is shared with the program.
    """
    import networkx as nx

    name, _, rest = text.partition("(")
    if name == "line_graph":
        return nx.convert_node_labels_to_integers(nx.line_graph(family_nx(rest[:-1])))
    params = [int(t) for t in rest.rstrip(")").split(",") if t.strip()]
    g = nx.Graph()
    if name == "cycle":
        g = nx.cycle_graph(params[0])
    elif name == "clique":
        g = nx.complete_graph(params[0])
    elif name == "k4k2":
        g = nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(2))
    elif name == "k3k2":
        g = nx.cartesian_product(nx.complete_graph(3), nx.complete_graph(2))
    elif name == "theta":
        for i, length in enumerate(params):
            nx.add_path(g, ["u"] + [(i, j) for j in range(length - 1)] + ["v"])
    elif name == "prism":
        g.add_edges_from([("a0", "a1"), ("a1", "a2"), ("a0", "a2"),
                          ("b0", "b1"), ("b1", "b2"), ("b0", "b2")])
        for i, length in enumerate(params):
            nx.add_path(g, [f"a{i}"] + [(i, j) for j in range(length - 1)] + [f"b{i}"])
    elif name == "barbell":
        c1, c2, p = params
        nx.add_cycle(g, [("x", i) for i in range(c1)])
        ring = [("x", 0)] + [("y", i) for i in range(c2 - 1)] if p == 0 else \
            [("y", i) for i in range(c2)]
        nx.add_cycle(g, ring)
        if p:
            nx.add_path(g, [("x", 0)] + [("p", i) for i in range(p - 1)] + [("y", 0)])
    else:
        raise ValueError(f"no reference construction for {text!r}")
    return nx.convert_node_labels_to_integers(g, ordering="sorted" if name in
                                              ("cycle", "clique") else "default")


def nx_edges(g):
    return sorted((min(u, v), max(u, v)) for u, v in g.edges())


# ---------------------------------------------------------------------------
# Colorings and Kempe swaps
# ---------------------------------------------------------------------------

def colorings(adj, lists):
    """All proper list colorings, by filtering the full product of the lists."""
    edges = [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]
    return [phi for phi in itertools.product(*[sorted(s) for s in lists])
            if all(phi[u] != phi[v] for u, v in edges)]


def swaps(adj, lists, phi):
    """Every coloring one L-valid Kempe swap away from phi."""
    universe = sorted(set().union(*lists))
    out = []
    for a, b in itertools.combinations(universe, 2):
        todo = {x for x in range(len(adj)) if phi[x] in (a, b)}
        while todo:
            comp = component(adj, phi, min(todo), (a, b))
            todo -= comp
            new = swap(phi, comp, a, b)
            if all(new[x] in lists[x] for x in comp):
                out.append(new)
    return out


def component(adj, phi, v, pair):
    """Vertices reachable from v through vertices colored with the pair."""
    seen = {v}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if w not in seen and phi[w] in pair:
                seen.add(w)
                queue.append(w)
    return seen


def swap(phi, comp, a, b):
    return tuple((b if c == a else a) if x in comp else c for x, c in enumerate(phi))


def apply_move(adj, lists, phi, anchor, pair):
    """Replay one move; None when the anchor is off the pair or a list is broken."""
    if phi[anchor] not in pair:
        return None
    comp = component(adj, phi, anchor, pair)
    new = swap(phi, comp, *pair)
    if any(new[x] not in lists[x] for x in comp):
        return None
    return new


def reconfig_graph(adj, lists):
    import networkx as nx

    space = colorings(adj, lists)
    g = nx.Graph()
    g.add_nodes_from(space)
    for phi in space:
        for psi in swaps(adj, lists, phi):
            g.add_edge(phi, psi)
    return g


def classes(adj, lists):
    """(class list sorted by least member, frozen colorings) of the space."""
    import networkx as nx

    g = reconfig_graph(adj, lists)
    parts = sorted((sorted(c) for c in nx.connected_components(g)), key=lambda c: c[0])
    frozen = sorted(phi for phi in g.nodes if g.degree(phi) == 0)
    return parts, frozen


def classes_all_equal(adj, k):
    """(class sizes, number of frozen colorings) when every list is the same k colors.

    Renaming colors maps Kempe swaps to Kempe swaps.  With equal lists the
    exchange of two colors is itself the product of swapping every component
    the two colors span, so each orbit of colorings under renaming lies inside
    one class.  Classes are therefore unions of orbits, and the search runs
    on one representative per orbit (colors numbered by first use), each
    weighted by its orbit size k!/(k-u)! for u colors used.
    """
    import networkx as nx

    n = len(adj)
    lists = [frozenset(range(k))] * n
    reps = []
    phi = [0] * n

    def descend(v, used):
        if v == n:
            reps.append(tuple(phi))
            return
        for c in range(min(used + 1, k)):
            if all(phi[w] != c for w in adj[v] if w < v):
                phi[v] = c
                descend(v + 1, max(used, c + 1))

    descend(0, 0)

    def canonical(psi):
        names = {}
        return tuple(names.setdefault(c, len(names)) for c in psi)

    def orbit(rep):
        used = len(set(rep))
        return math.factorial(k) // math.factorial(k - used)

    g = nx.Graph()
    g.add_nodes_from(reps)
    frozen = 0
    for rep in reps:
        nbrs = swaps(adj, lists, rep)
        if not nbrs:
            frozen += orbit(rep)
        g.add_edges_from((rep, canonical(psi)) for psi in nbrs)
    sizes = sorted(sum(orbit(r) for r in comp) for comp in nx.connected_components(g))
    return sizes, frozen


def least_coloring(adj, lists):
    """The lexicographically least proper list coloring, or None."""
    n = len(adj)
    phi = [0] * n

    def descend(v):
        if v == n:
            return True
        for c in sorted(lists[v]):
            if all(phi[w] != c for w in adj[v] if w < v):
                phi[v] = c
                if descend(v + 1):
                    return True
        return False

    return tuple(phi) if descend(0) else None


# ---------------------------------------------------------------------------
# Orbit counts (Burnside's lemma)
# ---------------------------------------------------------------------------

def automorphisms(g):
    """All automorphisms of a networkx graph as tuples perm[v] = image of v."""
    import networkx as nx

    n = g.number_of_nodes()
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
    return [tuple(m[v] for v in range(n)) for m in matcher.isomorphisms_iter()]


def _cycles(perm):
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        cyc = []
        x = s
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        out.append(cyc)
    return out


def _fixed_subsets(perm, size):
    """Number of size-element subsets that the permutation maps onto themselves."""
    poly = [1]
    for cyc in _cycles(perm):
        k = len(cyc)
        nxt = poly + [0] * k
        for i, c in enumerate(poly):
            nxt[i + k] += c
        poly = nxt
    return poly[size] if size < len(poly) else 0


def _power(perm, k):
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[x] for x in out]
    return out


def orbit_count(sizes, cap, vertex_perms):
    """Orbits of list assignments (list v has sizes[v] colors out of 1..cap).

    The group is vertex_perms (a permutation group on the vertices that
    preserves sizes) times all permutations of the cap colors.
    """
    total = 0
    color_perms = list(itertools.permutations(range(cap)))
    for pi in color_perms:
        for sigma in vertex_perms:
            fixed = 1
            for cyc in _cycles(sigma):
                if len({sizes[v] for v in cyc}) != 1:
                    fixed = 0
                    break
                fixed *= _fixed_subsets(_power(pi, len(cyc)), sizes[cyc[0]])
                if not fixed:
                    break
            total += fixed
    group = len(color_perms) * len(vertex_perms)
    if total % group:
        raise ArithmeticError("Burnside sum is not divisible by the group order")
    return total // group


def orbit_bounds(g, cap):
    """(orbits under Aut(g) x Sym(cap), orbits under Sym(cap)) of degree assignments."""
    sizes = [g.degree(v) for v in range(g.number_of_nodes())]
    identity = [tuple(range(len(sizes)))]
    return (orbit_count(sizes, cap, automorphisms(g)), orbit_count(sizes, cap, identity))


def random_assignment(rng, sizes, cap):
    return [frozenset(rng.sample(range(1, cap + 1), s)) for s in sizes]


def is_swappable(adj, lists):
    import networkx as nx

    return nx.is_connected(reconfig_graph(adj, lists))


# ---------------------------------------------------------------------------
# Plane graphs
# ---------------------------------------------------------------------------

def face_walks(rotation):
    """Corner vertices of each face of a rotation system, in order of least unused dart.

    The edge after (u, v) is (v, w) with w the successor of u around v.
    """
    pos = [{w: i for i, w in enumerate(rot)} for rot in rotation]
    unused = {(v, w) for v, rot in enumerate(rotation) for w in rot}
    walks = []
    while unused:
        start = edge = min(unused)
        walk = []
        while True:
            unused.discard(edge)
            walk.append(edge[0])
            u, v = edge
            edge = (v, rotation[v][(pos[v][u] + 1) % len(rotation[v])])
            if edge == start:
                break
        walks.append(walk)
    return walks


def _is_cycle(g, cyc):
    return (len(cyc) >= 3 and len(set(cyc)) == len(cyc)
            and all(g.has_edge(x, cyc[(i + 1) % len(cyc)]) for i, x in enumerate(cyc)))


def _is_path(g, path):
    return len(set(path)) == len(path) and all(g.has_edge(x, y) for x, y in zip(path, path[1:]))


def witness_errors(g, special, w, threshold):
    """Problems with one audit witness, checked against the host networkx graph.

    special is the edge set of G3 or G2 (host ids, sorted pairs); witnesses of
    the second and third kind must use only its edges.
    """
    errors = []

    def in_special(seq, closed):
        pairs = list(zip(seq, seq[1:])) + ([(seq[-1], seq[0])] if closed else [])
        return all((min(a, b), max(a, b)) in special for a, b in pairs)

    if w.kind == "C1-edge":
        u, v = w.edge
        if not g.has_edge(u, v) or g.degree(u) + g.degree(v) > threshold:
            errors.append(f"light edge {w.edge} fails")
    elif w.kind == "C2-barbell":
        c1, c2, path = w.cycle1, w.cycle2, w.path
        for cyc in (c1, c2):
            if not _is_cycle(g, cyc) or len(cyc) % 2 or not in_special(cyc, True):
                errors.append(f"barbell cycle {cyc} is not an even cycle of the subgraph")
        shared = set(c1) & set(c2)
        if len(path) == 1:
            if shared != {path[0]}:
                errors.append("short barbell cycles do not share exactly the join vertex")
        elif (shared or not _is_path(g, path) or not in_special(path, False)
              or path[0] not in c1 or path[-1] not in c2
              or set(path[1:-1]) & (set(c1) | set(c2))):
            errors.append(f"barbell join {path} is not a path between the cycles")
    elif w.kind == "C3-theta":
        u, v = w.hubs
        lengths = [len(p) - 1 for p in w.paths]
        inner = [set(p[1:-1]) for p in w.paths]
        if (len(w.paths) != 3 or any(p[0] != u or p[-1] != v for p in w.paths)
                or not all(_is_path(g, p) and in_special(p, False) for p in w.paths)
                or len({x % 2 for x in lengths}) != 1 or sorted(lengths) == [2, 2, 2]
                or any(a & b for a, b in itertools.combinations(inner, 2))):
            errors.append(f"theta {w.hubs} {w.paths} is not a bipartite non-K23 theta")
    elif w.kind == "C3-K24":
        u, v = w.hubs
        if len(set(w.centers)) != 4 or not all(
                (min(u, c), max(u, c)) in special and (min(v, c), max(v, c)) in special
                for c in w.centers):
            errors.append(f"K24 {w.hubs} {w.centers} is not in the subgraph")
    else:
        errors.append(f"unknown witness kind {w.kind}")
    return errors


def special_edges(g, rotation, kind):
    """Edge set of G3 (edges at 3-vertices) or G2 (edges at 2-vertices on a 3-face)."""
    if kind == "G3":
        defining = {v for v in g.nodes if g.degree(v) == 3}
    else:
        on_triangle = {v for walk in face_walks(rotation) if len(walk) == 3 for v in walk}
        defining = {v for v in g.nodes if g.degree(v) == 2 and v in on_triangle}
    return {(min(u, v), max(u, v)) for u, v in g.edges() if u in defining or v in defining}

"""Graph constructions, components, blocks, isomorphism, automorphisms and face tracing against networkx as an oracle.

networkx is a test dependency only; kempe never imports it.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kempe.coloring import _pair_components, kempe_component, partial_component
from kempe.graphs import (
    automorphisms,
    block_decomposition,
    cartesian_product,
    connected_components,
    from_edges,
    is_connected,
    is_gallai_tree,
    is_isomorphic,
    line_graph,
)
from kempe.planar import plane_graph_from_faces, trace_faces

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return from_edges(n, [e for e in pairs if draw(st.booleans())])


def to_nx(g) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def edge_set(g) -> set[frozenset]:
    return {frozenset(e) for e in g.edges()}


@SETTINGS
@given(g=graphs())
def test_line_graph_is_networkx_line_graph(g):
    lg = line_graph(g)
    expected = nx.line_graph(to_nx(g))
    assert nx.is_isomorphic(to_nx(lg), expected)
    # Stronger: vertex "u-v" is the networkx node for edge uv, edges and all.
    node = [tuple(int(x) for x in label.split("-")) for label in lg.labels]
    assert sorted(node) == sorted(tuple(sorted(e)) for e in expected.nodes)
    assert {frozenset((node[a], node[b])) for a, b in lg.edges()} \
        == {frozenset((tuple(sorted(e)), tuple(sorted(f)))) for e, f in expected.edges}


@SETTINGS
@given(g1=graphs(max_n=5), g2=graphs(max_n=4))
def test_cartesian_product_is_networkx_cartesian_product(g1, g2):
    prod = cartesian_product(g1, g2)
    expected = nx.cartesian_product(to_nx(g1), to_nx(g2))
    assert nx.is_isomorphic(to_nx(prod), expected)
    # Stronger: vertex a*n2 + b is the networkx node (a, b).
    node = [divmod(v, g2.n) for v in range(prod.n)]
    assert prod.labels == tuple(f"({a},{b})" for a, b in node)
    assert {frozenset((node[u], node[v])) for u, v in prod.edges()} \
        == {frozenset(e) for e in expected.edges}


@st.composite
def graph_pairs(draw):
    """Two graphs on the same vertex count: independent, or a relabeled copy with maybe one edge toggled."""
    g1 = draw(graphs(min_n=1, max_n=8))
    kind = draw(st.sampled_from(["independent", "relabeled", "toggled"]))
    if kind == "independent":
        n = g1.n
        pairs = list(itertools.combinations(range(n), 2))
        return g1, from_edges(n, [e for e in pairs if draw(st.booleans())])
    perm = draw(st.permutations(range(g1.n)))
    edges = edge_set(g1)
    if kind == "toggled" and g1.n >= 2:
        edges ^= {frozenset(draw(st.sampled_from(list(itertools.combinations(range(g1.n), 2)))))}
    return g1, from_edges(g1.n, sorted(tuple(sorted(perm[v] for v in e)) for e in edges))


@SETTINGS
@given(pair=graph_pairs())
def test_is_isomorphic_agrees_with_networkx(pair):
    g1, g2 = pair
    mapping = is_isomorphic(g1, g2)
    assert (mapping is not None) == nx.is_isomorphic(to_nx(g1), to_nx(g2))
    if mapping is not None:
        assert sorted(mapping) == list(range(g2.n))
        assert {frozenset(mapping[v] for v in e) for e in edge_set(g1)} == edge_set(g2)
        # The mapping is the lexicographically least isomorphism, as before
        # the search became a generator.
        every = GraphMatcher(to_nx(g1), to_nx(g2)).isomorphisms_iter()
        assert mapping == min([m[v] for v in range(g1.n)] for m in every)


@SETTINGS
@given(g=graphs(max_n=7))
def test_automorphisms_are_networkx_automorphisms(g):
    auts = list(automorphisms(g))
    assert len(set(auts)) == len(auts)
    assert auts == sorted(auts) and auts[0] == tuple(range(g.n))
    for sigma in auts:
        assert {frozenset(sigma[v] for v in e) for e in edge_set(g)} == edge_set(g)
    expected = {tuple(m[v] for v in range(g.n))
                for m in GraphMatcher(to_nx(g), to_nx(g)).isomorphisms_iter()}
    assert set(auts) == expected


@SETTINGS
@given(g=graphs(min_n=2, max_n=9))
def test_trace_faces_satisfies_euler_on_networkx_embeddings(g):
    # networkx embeds a random connected planar graph; its faces, each
    # directed edge once, build the rotation system.  Either orientation of
    # the faces gives a genus-0 system, so the face lengths agree too.
    assume(g.m > 0 and is_connected(g))
    planar, embedding = nx.check_planarity(to_nx(g))
    assume(planar)
    faces, marked = [], set()
    for u, v in embedding.edges:
        if (u, v) not in marked:
            faces.append(embedding.traverse_face(u, v, mark_half_edges=marked))
    pg = plane_graph_from_faces(g.n, faces)
    assert edge_set(pg.graph) == edge_set(g)
    traced = trace_faces(pg)
    assert g.n - g.m + len(traced) == 2
    assert sorted(f.length for f in traced) == sorted(len(f) for f in faces)
    assert sum(f.length for f in traced) == 2 * g.m


def nx_components(g, keep) -> list[list[int]]:
    """networkx's components of the subgraph induced by keep, sorted, by lowest vertex."""
    comps = nx.connected_components(to_nx(g).subgraph(keep))
    return sorted(sorted(c) for c in comps)


@SETTINGS
@given(g=graphs(max_n=10), data=st.data())
def test_component_searches_are_networkx_components(g, data):
    assert connected_components(g) == nx_components(g, range(g.n))
    # Any coloring, proper or not, and an absent set whose vertices keep
    # their colors: the search must leave them out by absent alone.
    phi = tuple(data.draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n)))
    absent = frozenset(data.draw(st.sets(st.integers(0, g.n - 1))))
    for pair in itertools.combinations((1, 2, 3), 2):
        whole = nx_components(g, [x for x in range(g.n) if phi[x] in pair])
        part = nx_components(g, [x for x in range(g.n) if phi[x] in pair and x not in absent])
        assert [sorted(c) for c in _pair_components(g, phi, pair, frozenset())] == whole
        assert [sorted(c) for c in _pair_components(g, phi, pair, absent)] == part
        for v in range(g.n):
            assert kempe_component(g, phi, v, pair[::-1]) == \
                next((set(c) for c in whole if v in c), set())
            assert partial_component(g, phi, v, pair[::-1], absent) == \
                next((set(c) for c in part if v in c), set())


def test_blocks_are_networkx_biconnected_components():
    # 1,200 seeded graphs on 1-12 vertices at every edge density, so that
    # disconnected graphs and isolated vertices come up often.
    rng = random.Random(2323)
    disconnected = isolated = trees = 0
    for _ in range(1200):
        n, density = rng.randrange(1, 13), rng.random()
        g = from_edges(n, [e for e in itertools.combinations(range(n), 2)
                           if rng.random() < density])
        h = to_nx(g)
        blocks, cuts = block_decomposition(g)
        expected = [sorted(tuple(sorted(e)) for e in comp)
                    for comp in nx.biconnected_component_edges(h)]
        assert sorted(list(b.edges) for b in blocks) == sorted(expected)
        for b in blocks:
            assert b.vertices == tuple(sorted({v for e in b.edges for v in e}))
        assert [b.vertices for b in blocks] == sorted(b.vertices for b in blocks)
        assert cuts == tuple(sorted(nx.articulation_points(h)))
        isolated += min(g.degrees()) == 0
        if not is_connected(g):
            disconnected += 1
            continue
        gallai = True
        for comp in expected:
            sub = h.edge_subgraph(comp)
            k = sub.number_of_nodes()
            complete = sub.number_of_edges() == k * (k - 1) // 2
            odd_cycle = k % 2 == 1 and all(d == 2 for _, d in sub.degree())
            gallai &= complete or odd_cycle
        assert is_gallai_tree(g).is_gallai_tree == gallai
        trees += gallai
    assert disconnected > 300 and isolated > 200
    assert trees > 200 and 1200 - disconnected - trees > 200  # both verdicts

"""Face tracing, special subgraphs, configuration detection, structural audit."""

from __future__ import annotations

import itertools
import random

import pytest

from plane_corpus import (
    cube,
    icosahedron,
    octahedron,
    platonic_solids,
    prism,
    random_plane_min2,
    random_triangulation,
    tetrahedron,
    wheel,
)

from kempe.errors import BudgetError, ParameterError, PreconditionError
from kempe.graphs import Graph, from_edges, generate, parse_family
from kempe.planar import (
    DEFAULT_SEARCH_BUDGET,
    PlaneGraph,
    _SearchBudget,
    all_cycles,
    all_paths_between,
    delete_edge_planar,
    detect_configuration,
    extract_special_subgraph,
    plane_graph_from_faces,
    structural_audit,
    trace_faces,
)


def fam(text):
    return generate(parse_family(text))


# ---------------------------------------------------------------------------
# Independent brute-force oracles (vertex-subset enumeration, nothing shared
# with the production detectors)
# ---------------------------------------------------------------------------

def brute_cycles(g: Graph) -> set[tuple[int, ...]]:
    """All simple cycles by trying every vertex subset and cyclic order."""
    cycles = set()
    for k in range(3, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                if len(perm) > 1 and perm[0] > perm[-1]:
                    continue
                cyc = (first,) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                    cycles.add(cyc)
    return cycles


def brute_reachable(g: Graph, sources: set[int]) -> set[int]:
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        x = frontier.pop()
        for w in g.adj[x]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def brute_has_bipartite_barbell(g: Graph) -> bool:
    evens = [c for c in brute_cycles(g) if len(c) % 2 == 0]
    for c1, c2 in itertools.combinations(evens, 2):
        if len(set(c1) & set(c2)) <= 1 and set(c2) & brute_reachable(g, set(c1)):
            return True
    return False


def brute_paths(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    out = []
    stack = [(u,)]
    while stack:
        path = stack.pop()
        for w in g.adj[path[-1]]:
            if w == v:
                out.append(path + (v,))
            elif w != u and w not in path:
                stack.append(path + (w,))
    return out


def brute_has_bipartite_theta(g: Graph) -> bool:
    for u, v in itertools.combinations(range(g.n), 2):
        paths = brute_paths(g, u, v)
        for trio in itertools.combinations(paths, 3):
            interiors = [set(p[1:-1]) for p in trio]
            if interiors[0] & interiors[1] or interiors[0] & interiors[2] \
                    or interiors[1] & interiors[2]:
                continue
            lengths = sorted(len(p) - 1 for p in trio)
            if len({l % 2 for l in lengths}) != 1 or lengths == [2, 2, 2]:
                continue
            return True
    return False


def brute_has_k24(g: Graph) -> bool:
    for u, v in itertools.combinations(range(g.n), 2):
        if len(set(g.adj[u]) & set(g.adj[v])) >= 4:
            return True
    return False


def reference_barbell(g: Graph, budget: int = DEFAULT_SEARCH_BUDGET):
    """The barbell detector before iterative deepening, as (cycle1, cycle2, path).

    It lists every simple cycle, sorts the even ones by (length, tuple) and
    scans pairs by ascending total length, then by position; the cycle search
    steps and the pair checks share one budget.
    """
    left = [budget]

    def spend(what):
        left[0] -= 1
        if left[0] < 0:
            raise BudgetError(f"{what} exceeded the search budget of {budget} steps", budget)

    cycles = []

    def extend(start, path):
        spend("cycle search")
        for w in g.adj[path[-1]]:
            if w == start and len(path) >= 3 and path[1] < path[-1]:
                cycles.append(tuple(path))
            elif w > start and w not in path:
                extend(start, path + [w])

    for s in range(g.n):
        extend(s, [s])
    even = sorted((c for c in cycles if len(c) % 2 == 0), key=lambda c: (len(c), c))
    by_len = {}
    for i, c in enumerate(even):
        by_len.setdefault(len(c), []).append(i)
    for total in sorted({a + b for a in by_len for b in by_len}):
        for la in sorted(by_len):
            for i in by_len[la]:
                for j in by_len.get(total - la, ()):
                    if j <= i:
                        continue
                    spend("barbell pair scan")
                    a, b = even[i], even[j]
                    shared = set(a) & set(b)
                    if len(shared) == 1:
                        return a, b, (min(shared),)
                    if not shared:
                        join = shortest_join(g, set(a), set(b))
                        if join is not None:
                            return a, b, join
    return None


def shortest_join(g: Graph, source: set[int], target: set[int]):
    """Breadth-first from source in sorted order; the first target reached."""
    parent = {v: None for v in source}
    frontier = sorted(source)
    while frontier:
        following = []
        for x in frontier:
            for w in g.adj[x]:
                if w in parent:
                    continue
                parent[w] = x
                if w in target:
                    path = [w]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                following.append(w)
        frontier = following
    return None


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTraceFaces:
    def test_c4_two_quads(self):
        pg = plane_graph_from_faces(4, [(0, 1, 2, 3), (3, 2, 1, 0)])
        assert sorted(f.length for f in trace_faces(pg)) == [4, 4]

    def test_k4_four_triangles(self):
        assert sorted(f.length for f in trace_faces(tetrahedron())) == [3, 3, 3, 3]

    def test_cube_six_quads(self):
        assert sorted(f.length for f in trace_faces(cube())) == [4] * 6

    def test_face_lengths_sum_to_twice_edges(self):
        for pg in platonic_solids() + [wheel(5), wheel(8), random_triangulation(14, 2),
                                       random_plane_min2(16, 4)]:
            faces = trace_faces(pg)
            assert sum(f.length for f in faces) == 2 * pg.graph.m

    def test_every_directed_edge_once(self):
        pg = random_triangulation(10, 7)
        seen = [e for f in trace_faces(pg) for e in f.edges]
        assert len(seen) == len(set(seen)) == 2 * pg.graph.m

    def test_vertex_incidences_match_degree(self):
        pg = wheel(6)
        faces = trace_faces(pg)
        for v in range(pg.graph.n):
            assert sum(f.incidences(v) for f in faces) == pg.graph.degree(v)

    def test_nonplanar_rotation_rejected(self):
        k5 = fam("clique(5)")
        pg = PlaneGraph(k5, k5.adj)  # sorted rotations; K5 has no genus-0 system
        with pytest.raises(PreconditionError, match="genus-0"):
            trace_faces(pg)

    def test_rotation_validation(self):
        c4 = fam("cycle(4)")
        with pytest.raises(ParameterError):
            PlaneGraph(c4, ((1, 2), (0, 2), (1, 3), (2, 0)))


class TestMemo:
    def test_faces_are_traced_once_per_plane_graph(self):
        pg = random_plane_min2(16, 4)
        faces = trace_faces(pg)
        assert trace_faces(pg) is faces
        equal = PlaneGraph(pg.graph, pg.rotation)
        assert equal == pg
        fresh = trace_faces(equal)
        assert fresh == faces and fresh is not faces

    def test_special_subgraphs_are_extracted_once_per_plane_graph(self):
        pg = random_plane_min2(16, 4)
        for kind in ("G3", "G2"):
            sub = extract_special_subgraph(pg, kind)
            assert extract_special_subgraph(pg, kind) is sub
            assert extract_special_subgraph(PlaneGraph(pg.graph, pg.rotation), kind) == sub
        with pytest.raises(ParameterError, match="G3 or G2"):
            extract_special_subgraph(pg, "G4")

    def test_non_genus_0_rotation_raises_on_every_call(self):
        k5 = fam("clique(5)")
        pg = PlaneGraph(k5, k5.adj)
        for _ in range(3):
            with pytest.raises(PreconditionError, match="genus-0"):
                trace_faces(pg)
            with pytest.raises(PreconditionError, match="genus-0"):
                extract_special_subgraph(pg, "G2")
            with pytest.raises(PreconditionError, match="genus-0"):
                structural_audit(pg, "lemma2")

    def test_deleting_an_edge_traces_the_new_faces(self):
        pg = cube()
        faces = trace_faces(pg)
        g3 = extract_special_subgraph(pg, "G3")
        smaller = delete_edge_planar(pg, 0, 1)
        # The two faces on either side of the edge merge into one hexagon.
        assert sorted(f.length for f in trace_faces(smaller)) == [4, 4, 4, 4, 6]
        assert extract_special_subgraph(smaller, "G3").qualifying == (2, 3, 4, 5, 6, 7)
        assert trace_faces(pg) is faces and len(faces) == 6
        assert extract_special_subgraph(pg, "G3") is g3


# ---------------------------------------------------------------------------
# Special subgraphs
# ---------------------------------------------------------------------------

def k4_minus_edge_embedded() -> PlaneGraph:
    # Vertices 0,1 of degree 3; 2,3 of degree 2; chord 0-1 splits one quad.
    return plane_graph_from_faces(4, [(0, 2, 1), (0, 1, 3), (0, 3, 1, 2)])


class TestExtractSpecialSubgraph:
    def test_no_3_vertices_gives_empty_g3(self):
        pg = icosahedron()
        sub = extract_special_subgraph(pg, "G3")
        assert sub.graph.n == 0

    def test_k4_g3_is_whole_graph(self):
        sub = extract_special_subgraph(tetrahedron(), "G3")
        assert sub.graph.n == 4 and sub.graph.m == 6

    def test_c4_has_empty_g2(self):
        pg = plane_graph_from_faces(4, [(0, 1, 2, 3), (3, 2, 1, 0)])
        sub = extract_special_subgraph(pg, "G2")
        assert sub.graph.n == 0

    def test_k4_minus_edge_g2_is_alternating_quad(self):
        sub = extract_special_subgraph(k4_minus_edge_embedded(), "G2")
        assert sub.qualifying == (2, 3)
        assert sorted(sub.host_edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert sub.parts is not None
        assert frozenset({2, 3}) in sub.parts

    def test_parts_is_a_proper_two_coloring_without_an_adjacent_pair(self):
        planes = platonic_solids() + [wheel(k) for k in range(3, 9)]
        planes += [prism(k) for k in range(3, 8)]
        planes += [random_triangulation(8 + seed, seed) for seed in range(8)]
        planes += [random_plane_min2(10 + seed, seed) for seed in range(12)]
        split = paired = 0
        for pg in planes:
            for kind in ("G3", "G2"):
                sub = extract_special_subgraph(pg, kind)
                qualifying = set(sub.qualifying)
                if sub.adjacent_qualifying_pair is not None:
                    u, v = sub.adjacent_qualifying_pair
                    assert sub.parts is None
                    assert pg.graph.has_edge(u, v) and {u, v} <= qualifying
                    paired += 1
                elif sub.parts is not None:
                    first, second = sub.parts
                    assert first | second == set(sub.vertices) and not first & second
                    assert first == qualifying & set(sub.vertices)
                    for u, v in sub.host_edges():
                        assert (u in first) != (v in first)
                    split += 1
                else:
                    assert sub.graph.n == 0
        assert split > 10 and paired > 10

    def test_bipartition_recorded_when_no_adjacent_pair(self):
        sub = extract_special_subgraph(cube(), "G3")
        # all cube vertices are 3-vertices, adjacent pairs exist
        assert sub.adjacent_qualifying_pair is not None
        assert sub.parts is None


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

class TestDetect:
    def test_c1_on_icosahedron(self):
        g = icosahedron().graph
        witness = detect_configuration(g, "C1", threshold=max(11, g.max_degree() + 2))
        assert witness is not None and witness.edge == (0, 1)
        assert witness.degree_sum == 10
        witness.validate(g)

    def test_c1_respects_threshold(self):
        g = icosahedron().graph
        assert detect_configuration(g, "C1", threshold=9) is None

    def test_c3_theta_absent_on_k23(self):
        assert detect_configuration(fam("complete_bipartite(2,3)"), "C3-theta") is None

    def test_c3_theta_found_on_theta133(self):
        witness = detect_configuration(fam("theta(1,3,3)"), "C3-theta")
        assert witness is not None
        witness.validate(fam("theta(1,3,3)"))

    def test_c2_on_short_barbell_is_whole_graph(self):
        g = fam("barbell(4,4,0)")
        witness = detect_configuration(g, "C2-barbell")
        assert witness is not None
        witness.validate(g)
        assert len(witness.path) == 1
        assert set(witness.cycle1) | set(witness.cycle2) == set(range(g.n))

    def test_c2_absent_when_one_cycle_odd(self):
        assert detect_configuration(fam("barbell(3,4,2)"), "C2-barbell") is None
        assert detect_configuration(fam("barbell(4,6,1)"), "C2-barbell") is not None

    def test_k24_found_and_theta_excluded_on_k24(self):
        g = fam("complete_bipartite(2,4)")
        witness = detect_configuration(g, "C3-K24")
        assert witness is not None and witness.hubs == (0, 1)
        witness.validate(g)
        # every theta inside K_{2,4} is K_{2,3}, which is excluded
        assert detect_configuration(g, "C3-theta") is None

    def test_detectors_match_brute_force_oracles(self):
        import random
        rng = random.Random(60)
        graphs = [fam("barbell(4,4,0)"), fam("barbell(4,4,2)"), fam("theta(2,2,4)"),
                  fam("theta(1,3,3)"), fam("complete_bipartite(2,4)"),
                  fam("complete_bipartite(2,3)"), fam("cycle(6)"), cube().graph]
        made = 0
        while made < 10:
            n = rng.randrange(5, 9)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.35]
            try:
                g = from_edges(n, edges)
            except ParameterError:
                continue
            made += 1
            graphs.append(g)
        for g in graphs:
            assert (detect_configuration(g, "C2-barbell") is not None) \
                == brute_has_bipartite_barbell(g)
            assert (detect_configuration(g, "C3-theta") is not None) \
                == brute_has_bipartite_theta(g)
            assert (detect_configuration(g, "C3-K24") is not None) == brute_has_k24(g)

    def test_cycle_enumeration_matches_brute_force(self):
        for g in (fam("barbell(4,4,1)"), fam("theta(1,3,3)"), cube().graph):
            assert len(all_cycles(g)) == len(brute_cycles(g))
            assert set(all_cycles(g)) == brute_cycles(g)

    def test_paths_and_their_budget_match_brute_force(self):
        # The path search spends one step per simple path it reaches: every
        # path that starts at u and avoids v, u alone included.
        import networkx as nx

        rng = random.Random(24)
        raised = 0
        for _ in range(300):
            n = rng.randrange(2, 10)
            p = rng.random()
            g = from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            u, v = rng.sample(range(n), 2)
            reached, level = 0, [(u,)]
            while level:
                reached += len(level)
                level = [q + (w,) for q in level for w in g.adj[q[-1]] if w != v and w not in q]
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(n))
            expected = sorted((tuple(q) for q in nx.all_simple_paths(nxg, u, v)),
                              key=lambda q: (len(q), q))
            assert all_paths_between(g, u, v, _SearchBudget(reached)) == expected
            for budget in (reached - 1, rng.randrange(reached + 1)):
                try:
                    all_paths_between(g, u, v, _SearchBudget(budget))
                except BudgetError:
                    assert budget < reached
                    raised += 1
                else:
                    assert budget >= reached
        assert raised > 300


def barbell_corpus() -> list[Graph]:
    """The oracle-test families and 70 random graphs, G3 and G2 of 200 random
    plane graphs (the criterion-12 draw), the prisms C3-C14 x K2, and one
    graph on which scanning past the deepening bound changes the witness."""
    graphs = [fam("barbell(4,4,0)"), fam("barbell(4,4,2)"), fam("theta(2,2,4)"),
              fam("theta(1,3,3)"), fam("complete_bipartite(2,4)"),
              fam("complete_bipartite(2,3)"), fam("cycle(6)"), cube().graph]
    for seed, count, sizes, p in ((60, 10, (5, 9), 0.35), (61, 60, (8, 12), 0.3)):
        rng = random.Random(seed)
        made = 0
        while made < count:
            n = rng.randrange(*sizes)
            try:
                graphs.append(from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                             if rng.random() < p]))
            except ParameterError:
                continue
            made += 1
    rng = random.Random(20260810)
    for i in range(200):
        pg = random_plane_min2(rng.randrange(6, 21), seed=31_000 + i)
        graphs += [extract_special_subgraph(pg, kind).graph for kind in ("G3", "G2")]
    graphs += [prism(k).graph for k in range(3, 15)]
    # A 4-cycle bridged to an 8-cycle, beside two 6-cycles bridged together:
    # both barbells total 12, and (4, 8) comes first.
    graphs.append(from_edges(24, [(i, (i + 1) % 4) for i in range(4)]
                             + [(4 + i, 4 + (i + 1) % 8) for i in range(8)]
                             + [(12 + i, 12 + (i + 1) % 6) for i in range(6)]
                             + [(18 + i, 18 + (i + 1) % 6) for i in range(6)]
                             + [(0, 4), (12, 18)]))
    return graphs


class TestBarbellDeepening:
    @staticmethod
    def outcome(search, g, budget):
        try:
            return search(g, budget)
        except BudgetError as exc:
            return ("budget", str(exc))

    @staticmethod
    def deepened(g, budget):
        w = detect_configuration(g, "C2-barbell", budget=budget)
        if w is None:
            return None
        w.validate(g)
        return w.cycle1, w.cycle2, w.path

    def test_same_witness_as_the_full_scan(self):
        corpus = barbell_corpus()
        found = 0
        for g in corpus:
            expected = self.outcome(reference_barbell, g, DEFAULT_SEARCH_BUDGET)
            assert self.outcome(self.deepened, g, DEFAULT_SEARCH_BUDGET) == expected, g
            found += expected is not None
        assert found > 40

    def test_small_budgets_fail_or_find_the_full_scan_witness(self):
        # Each round has its own budget, so a search that the full scan could
        # not finish may now find a barbell; it must be the one a large
        # enough budget finds.
        corpus = barbell_corpus()
        gained = 0
        for budget in (30, 300):
            for g in corpus:
                expected = self.outcome(reference_barbell, g, budget)
                got = self.outcome(self.deepened, g, budget)
                if expected != got:
                    assert expected[0] == "budget", g
                    if got[0] != "budget":
                        assert got == reference_barbell(g), g
                        gained += 1
        assert gained > 0


# ---------------------------------------------------------------------------
# Structural audit
# ---------------------------------------------------------------------------

class TestStructuralAudit:
    def test_icosahedron_lemma1_c1(self):
        report = structural_audit(icosahedron(), "lemma1")
        assert not report.none_found
        assert any(w.kind == "C1-edge" for w in report.witnesses)

    def test_k4_lemma2_c1(self):
        report = structural_audit(tetrahedron(), "lemma2")
        assert report.threshold == 16
        assert any(w.kind == "C1-edge" and w.degree_sum == 6 for w in report.witnesses)

    def test_cube_lemma1_finds_barbell_and_theta_in_g3(self):
        report = structural_audit(cube(), "lemma1")
        kinds = {w.kind for w in report.witnesses}
        assert {"C1-edge", "C2-barbell", "C3-theta"} <= kinds

    def test_min_degree_precondition(self):
        pg = plane_graph_from_faces(3, [(0, 1, 2), (2, 1, 0)])
        path = PlaneGraph(fam("path(3)"), fam("path(3)").adj)
        with pytest.raises(PreconditionError):
            structural_audit(path, "lemma1")
        assert not structural_audit(pg, "lemma1").none_found

    def test_random_plane_graphs_always_find_something(self):
        for seed in range(12):
            pg = random_plane_min2(14, seed)
            for variant in ("lemma1", "lemma2"):
                report = structural_audit(pg, variant)
                assert not report.none_found, (seed, variant)
                host = pg.graph
                for w in report.witnesses:
                    if w.kind == "C1-edge":
                        w.validate(host)
                    else:
                        w.validate(host)  # host-id witnesses re-validate on host

    def test_octahedron_audits(self):
        report = structural_audit(octahedron(), "lemma1")
        assert any(w.kind == "C1-edge" for w in report.witnesses)


    def test_large_prism_audits_find_a_barbell(self):
        # The full cycle list of C16 x K2 and up runs out of budget.
        for k in range(16, 25):
            pg = prism(k)
            report = structural_audit(pg, "lemma1")
            barbells = [w for w in report.witnesses if w.kind == "C2-barbell"]
            assert len(barbells) == 1, k
            barbells[0].validate(pg.graph)
            assert sorted(map(len, (barbells[0].cycle1, barbells[0].cycle2))) == [4, 4]
            assert not any(note.startswith("C2-barbell") for note in report.notes), k

    def test_prism_deeper_than_the_recursion_limit_audits(self):
        # G3 of C700 x K2 is the whole cubic graph, with paths of 1,400 vertices.
        pg = prism(700)
        report = structural_audit(pg, "lemma1")
        assert report.notes == (
            f"C3-theta: path search exceeded the search budget of {DEFAULT_SEARCH_BUDGET} steps",)
        assert [w.kind for w in report.witnesses] == ["C1-edge", "C2-barbell"]
        for w in report.witnesses:
            w.validate(pg.graph)

    def test_empty_plane_graph_rejected(self):
        with pytest.raises(PreconditionError, match="nonempty"):
            structural_audit(PlaneGraph(Graph(0, ()), ()), "lemma1")


class TestTriangulationAudits:
    def test_c1_always_found_on_random_triangulations(self):
        # Triangulations up to 20 vertices always carry a light edge under the
        # max(11, Delta+2) threshold.
        for seed in range(15):
            pg = random_triangulation(8 + (seed % 13), 500 + seed)
            result = structural_audit(pg, "lemma1")
            assert any(w.kind == "C1-edge" for w in result.witnesses), seed

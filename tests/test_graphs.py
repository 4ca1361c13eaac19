"""Graph core: families, derived constructions, isomorphism, Gallai trees."""

from __future__ import annotations

import itertools
import random

import pytest

from kempe.errors import BudgetError, ParameterError, PreconditionError
from kempe.graphs import (
    FamilySpec,
    Graph,
    block_decomposition,
    cartesian_product,
    from_edges,
    generate,
    is_connected,
    is_gallai_tree,
    is_isomorphic,
    line_graph,
    parse_family,
)
from kempe.verify import ChoosabilityReport, is_degree_choosable


def fam(text):
    return generate(parse_family(text))


class TestGraphType:
    def test_validation_rejects_loops(self):
        with pytest.raises(ParameterError):
            from_edges(2, [(0, 0)])

    def test_validation_rejects_parallel(self):
        with pytest.raises(ParameterError):
            from_edges(2, [(0, 1), (1, 0)])

    def test_validation_rejects_asymmetry(self):
        with pytest.raises(ParameterError):
            Graph(2, ((1,), ()))

    def test_constructors_leave_sorted_symmetric_adjacency(self):
        for text in ("cycle(5)", "clique(4)", "barbell(4,4,2)", "theta(1,3,3)",
                     "prism(2,2,1)", "star(4)", "complete_bipartite(2,4)"):
            g = fam(text)
            for v in range(g.n):
                assert list(g.adj[v]) == sorted(set(g.adj[v]))
                for w in g.adj[v]:
                    assert v in g.adj[w]


class TestFamilies:
    def test_theta_222_is_k23(self):
        assert is_isomorphic(fam("theta(2,2,2)"), fam("complete_bipartite(2,3)")) is not None

    def test_barbell_short(self):
        g = fam("barbell(4,4,0)")
        assert g.n == 7 and g.m == 8
        assert sorted(g.degrees()).count(4) == 1

    def test_prism_111_is_k3k2(self):
        k3k2 = cartesian_product(fam("clique(3)"), fam("clique(2)"))
        assert is_isomorphic(fam("prism(1,1,1)"), k3k2) is not None

    def test_invalid_parameters(self):
        for bad in ("cycle(2)", "barbell(2,4,0)", "barbell(4,4,-1)", "theta(1,1,3)",
                    "theta(0,2,2)", "prism(0,1,1)", "clique(0)"):
            with pytest.raises(ParameterError):
                fam(bad)

    def test_family_parse_round_trip(self):
        spec = parse_family("barbell(4,6,2)")
        assert spec == FamilySpec("barbell", (4, 6, 2))
        assert str(spec) == "barbell(4,6,2)"
        with pytest.raises(ParameterError):
            parse_family("wheel(5)")
        with pytest.raises(ParameterError):
            parse_family("cycle(4,4)")

    def test_prism_is_line_graph_of_theta(self):
        for p in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 2)]:
            prism = fam(f"prism({p[0]},{p[1]},{p[2]})")
            theta = fam(f"theta({p[0] + 1},{p[1] + 1},{p[2] + 1})")
            assert is_isomorphic(prism, line_graph(theta)) is not None


class TestLineGraph:
    def test_path3_gives_single_edge(self):
        lg = line_graph(fam("path(3)"))
        assert lg.n == 2 and lg.m == 1

    def test_k24_gives_k4k2(self):
        lg = line_graph(fam("complete_bipartite(2,4)"))
        k4k2 = cartesian_product(fam("clique(4)"), fam("clique(2)"))
        mapping = is_isomorphic(lg, k4k2)
        assert mapping is not None
        for u, v in lg.edges():
            assert k4k2.has_edge(mapping[u], mapping[v])

    def test_cycle_fixed_point(self):
        for n in (3, 5, 8):
            assert is_isomorphic(line_graph(fam(f"cycle({n})")), fam(f"cycle({n})"))

    def test_degree_law(self):
        for text in ("barbell(4,6,2)", "theta(1,3,3)", "clique(5)", "star(4)"):
            g = fam(text)
            lg = line_graph(g)
            for i, (u, v) in enumerate(g.edges()):
                assert lg.degree(i) == g.degree(u) + g.degree(v) - 2
                assert lg.labels[i] == f"{u}-{v}"

    def test_edgeless_input(self):
        assert line_graph(Graph(3, ((), (), ()))).n == 0


class TestCartesianProduct:
    def test_k4_k2_counts(self):
        g = cartesian_product(fam("clique(4)"), fam("clique(2)"))
        assert g.n == 8 and g.m == 16

    def test_identity_factor(self):
        for text in ("cycle(5)", "clique(4)"):
            g = fam(text)
            assert is_isomorphic(cartesian_product(fam("clique(1)"), g), g) is not None

    def test_k3_k2(self):
        g = cartesian_product(fam("clique(3)"), fam("clique(2)"))
        assert g.n == 6 and g.m == 9
        assert set(g.degrees()) == {3}

    def test_edge_count_law(self):
        for t1, t2 in [("cycle(4)", "path(3)"), ("clique(3)", "cycle(5)")]:
            g1, g2 = fam(t1), fam(t2)
            assert cartesian_product(g1, g2).m == g1.m * g2.n + g2.m * g1.n


class TestIsomorphism:
    def test_identity_on_c4(self):
        mapping = is_isomorphic(fam("cycle(4)"), fam("cycle(4)"))
        assert mapping is not None

    def test_rejects_k23_vs_theta133(self):
        assert is_isomorphic(fam("complete_bipartite(2,3)"), fam("theta(1,3,3)")) is None

    def test_symmetric_with_edge_equality(self):
        g1 = fam("theta(2,2,4)")
        g2_perm = [3, 0, 5, 1, 6, 2, 4]
        edges = [(g2_perm[u], g2_perm[v]) for u, v in g1.edges()]
        g2 = from_edges(g1.n, edges)
        m12 = is_isomorphic(g1, g2)
        m21 = is_isomorphic(g2, g1)
        assert m12 is not None and m21 is not None
        assert sorted((min(m12[u], m12[v]), max(m12[u], m12[v])) for u, v in g1.edges()) \
            == sorted(g2.edges())

    def test_size_guard(self):
        big = fam("cycle(13)")
        with pytest.raises(BudgetError):
            is_isomorphic(big, big)

    def test_non_isomorphic_same_degrees(self):
        # C6 vs two triangles: same degree sequence, different graphs.
        two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert is_isomorphic(fam("cycle(6)"), two_triangles) is None


class TestGallaiTrees:
    def test_k4_single_clique_block(self):
        report = is_gallai_tree(fam("clique(4)"))
        assert report.is_gallai_tree and len(report.blocks) == 1

    def test_even_cycle_not_gallai(self):
        report = is_gallai_tree(fam("cycle(6)"))
        assert not report.is_gallai_tree
        assert len(report.blocks) == 1

    def test_theta133_not_gallai(self):
        report = is_gallai_tree(fam("theta(1,3,3)"))
        assert not report.is_gallai_tree
        assert len(report.blocks) == 1  # single 2-connected block

    def test_odd_cycle_and_trees_are_gallai(self):
        assert is_gallai_tree(fam("cycle(5)")).is_gallai_tree
        assert is_gallai_tree(fam("star(4)")).is_gallai_tree
        assert is_gallai_tree(fam("path(5)")).is_gallai_tree

    def test_barbell_of_odd_cycles_is_gallai(self):
        assert is_gallai_tree(fam("barbell(3,5,2)")).is_gallai_tree
        assert not is_gallai_tree(fam("barbell(4,5,2)")).is_gallai_tree

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            is_gallai_tree(Graph(2, ((), ())))

    def test_block_decomposition_covers_edges(self):
        g = fam("barbell(4,5,3)")
        blocks, cuts = block_decomposition(g)
        all_edges = sorted(e for b in blocks for e in b.edges)
        assert all_edges == sorted(g.edges())
        assert 0 in cuts  # the short-side cycle joint


class TestDegreeChoosable:
    def test_even_cycle_choosable(self):
        assert is_degree_choosable(fam("cycle(6)")).degree_choosable

    def test_k4_witness_all_equal_3lists(self):
        report = is_degree_choosable(fam("clique(4)"))
        assert not report.degree_choosable
        assert report.witness == (frozenset({1, 2, 3}),) * 4

    def test_theta133_choosable_exhaustive(self):
        report = is_degree_choosable(fam("theta(1,3,3)"))
        assert report.degree_choosable and report.exhaustive

    @pytest.mark.parametrize("kw, checked", [
        ({"max_assignments": 2}, 2),
        ({"sample": 20, "seed": 4}, 20),
    ], ids=["budget", "sampled"])
    def test_budget_or_sample_not_exhaustive(self, kw, checked):
        report = is_degree_choosable(fam("cycle(6)"), **kw)
        assert report == ChoosabilityReport(True, False, None, checked)

    def test_ert_cross_check_families(self):
        for text in ("cycle(5)", "cycle(6)", "clique(4)", "star(3)", "path(4)",
                     "theta(1,3,3)", "theta(2,2,2)", "barbell(3,3,0)", "barbell(4,4,0)"):
            g = fam(text)
            assert is_degree_choosable(g).degree_choosable == \
                (not is_gallai_tree(g).is_gallai_tree), text

    def test_ert_cross_check_random(self):
        rng = random.Random(20260810)
        done = 0
        while done < 12:
            n = rng.randrange(4, 8)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45]
            try:
                g = from_edges(n, edges)
            except ParameterError:
                continue
            if not is_connected(g) or g.min_degree() < 1:
                continue
            done += 1
            assert is_degree_choosable(g).degree_choosable == \
                (not is_gallai_tree(g).is_gallai_tree)

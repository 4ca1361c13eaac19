"""L-colorings: checking, enumeration, Kempe components, swap classification."""

from __future__ import annotations

import itertools
import random

import pytest

from kempe.coloring import (
    SwapMove,
    check_coloring,
    classify_swap,
    count_L_colorings_reference,
    enumerate_L_colorings,
    has_L_coloring,
    kempe_component,
    make_lists,
    normalize_move,
)
from kempe.errors import BudgetError, ParameterError, PreconditionError
from kempe.graphs import from_edges, generate, parse_family


SINGLE_EDGE = from_edges(2, [(0, 1)])
SINGLE_EDGE_LISTS = make_lists([{1, 2}, {1, 3}])

FROZEN_C4 = generate(parse_family("cycle(4)"))
FROZEN_C4_LISTS = make_lists([{1, 2}, {2, 3}, {3, 4}, {4, 1}])


class TestCheckColoring:
    def test_valid(self):
        assert check_coloring(SINGLE_EDGE, SINGLE_EDGE_LISTS, (1, 3)).ok

    def test_improper_reports_edge(self):
        result = check_coloring(SINGLE_EDGE, SINGLE_EDGE_LISTS, (1, 1))
        assert not result.ok and result.bad_edge == (0, 1)

    def test_list_violation_reports_vertex(self):
        result = check_coloring(SINGLE_EDGE, SINGLE_EDGE_LISTS, (3, 1))
        assert not result.ok and result.bad_vertex == 0

    def test_partial_coloring_rejected(self):
        with pytest.raises(PreconditionError):
            check_coloring(SINGLE_EDGE, SINGLE_EDGE_LISTS, (1,))


class TestEnumeration:
    def test_frozen_c4_has_two_colorings(self):
        out = enumerate_L_colorings(FROZEN_C4, FROZEN_C4_LISTS)
        assert out == [(1, 2, 3, 4), (2, 3, 4, 1)]

    def test_k3_all_12_lists_has_none(self):
        k3 = generate(parse_family("clique(3)"))
        assert enumerate_L_colorings(k3, make_lists([{1, 2}] * 3)) == []
        assert has_L_coloring(k3, make_lists([{1, 2}] * 3)) is None

    def test_single_edge_has_three(self):
        out = enumerate_L_colorings(SINGLE_EDGE, SINGLE_EDGE_LISTS)
        assert out == [(1, 3), (2, 1), (2, 3)]

    def test_output_sorted_and_duplicate_free(self):
        g = generate(parse_family("cycle(5)"))
        lists = make_lists([{1, 2, 3}] * 5)
        out = enumerate_L_colorings(g, lists)
        assert out == sorted(set(out))

    def test_independent_count_matches(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(2, 7)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = from_edges(n, edges)
            lists = make_lists([set(rng.sample(range(1, 5), rng.randrange(1, 4)))
                                for _ in range(n)])
            out = enumerate_L_colorings(g, lists)
            assert len(out) == count_L_colorings_reference(g, lists)
            order = list(range(n))
            rng.shuffle(order)
            assert len(out) == count_L_colorings_reference(g, lists, order)

    @staticmethod
    def product_oracle(g, lists):
        """Every proper L-coloring by brute force, in itertools.product order."""
        return [phi for phi in itertools.product(*(sorted(s) for s in lists))
                if all(phi[u] != phi[v] for u, v in g.edges())]

    @staticmethod
    def random_instances():
        rng = random.Random(2110)
        cases = [(from_edges(0, []), make_lists([])),
                 (generate(parse_family("clique(3)")), make_lists([{1, 2}] * 3))]
        while len(cases) < 80:
            n = rng.randrange(1, 7)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            lists = [set(rng.sample(range(1, 6), rng.randrange(1, 4))) for _ in range(n)]
            cases.append((from_edges(n, edges), make_lists(lists)))
        return cases

    def test_enumeration_equals_product_oracle(self):
        empty = 0
        for g, lists in self.random_instances():
            expected = self.product_oracle(g, lists)
            assert enumerate_L_colorings(g, lists) == expected
            empty += not expected
        assert 2 <= empty < 60  # both colorable and uncolorable instances occur

    def test_first_coloring_equals_product_oracle(self):
        for g, lists in self.random_instances():
            expected = self.product_oracle(g, lists)
            assert has_L_coloring(g, lists) == (expected[0] if expected else None)

    def test_budget_uses_product_bound(self):
        g = generate(parse_family("cycle(4)"))
        lists = make_lists([{1, 2, 3}] * 4)
        with pytest.raises(BudgetError) as err:
            enumerate_L_colorings(g, lists, max_colorings=80)
        assert err.value.bound == 81


class TestKempeComponent:
    def test_single_edge_component(self):
        comp = kempe_component(SINGLE_EDGE, (1, 3), 1, (1, 3))
        assert comp == frozenset({0, 1})

    def test_empty_when_colors_absent(self):
        comp = kempe_component(SINGLE_EDGE, (1, 3), 0, (5, 6))
        assert comp == frozenset()

    def test_alternating_c4_component_is_whole_cycle(self):
        c4 = generate(parse_family("cycle(4)"))
        comp = kempe_component(c4, (1, 2, 1, 2), 0, (1, 2))
        assert comp == frozenset({0, 1, 2, 3})

    def test_anchor_not_in_pair_gives_empty(self):
        assert kempe_component(SINGLE_EDGE, (1, 3), 0, (3, 4)) == frozenset()


class TestClassifySwap:
    def test_paper_single_edge_swap_invalid(self):
        out = classify_swap(SINGLE_EDGE, SINGLE_EDGE_LISTS, (1, 3), SwapMove(1, (1, 3)))
        assert not out.valid
        assert out.violator == 0
        assert "vertex 0" in out.reason

    def test_involution(self):
        g = generate(parse_family("cycle(4)"))
        lists = make_lists([{1, 2, 3}] * 4)
        for phi in enumerate_L_colorings(g, lists):
            for anchor in range(4):
                for pair in itertools.combinations((1, 2, 3), 2):
                    out = classify_swap(g, lists, phi, SwapMove(anchor, pair))
                    if out.valid:
                        back = classify_swap(g, lists, out.coloring, SwapMove(anchor, pair))
                        assert back.valid and back.coloring == phi

    def test_properness_preserved_even_when_lists_fail(self):
        # The intermediate swapped coloring is always proper.
        out = classify_swap(SINGLE_EDGE, SINGLE_EDGE_LISTS, (1, 3), SwapMove(1, (1, 3)))
        assert not out.valid
        # component was {0, 1}; swapping gives (3, 1), proper but off-list at 0
        assert out.component == frozenset({0, 1})

    def test_valid_swap_passes_check(self):
        g = generate(parse_family("cycle(4)"))
        lists = make_lists([{1, 2, 3}] * 4)
        for phi in enumerate_L_colorings(g, lists):
            for anchor in range(4):
                for pair in itertools.combinations((1, 2, 3), 2):
                    out = classify_swap(g, lists, phi, SwapMove(anchor, pair))
                    if out.valid:
                        assert check_coloring(g, lists, out.coloring).ok

    def test_anchor_outside_pair_invalid(self):
        out = classify_swap(SINGLE_EDGE, SINGLE_EDGE_LISTS, (1, 3), SwapMove(0, (3, 4)))
        assert not out.valid and out.reason == "anchor not in color pair"

    def test_frozen_c4_every_move_invalid(self):
        universe = (1, 2, 3, 4)
        for phi in enumerate_L_colorings(FROZEN_C4, FROZEN_C4_LISTS):
            for anchor in range(4):
                for pair in itertools.combinations(universe, 2):
                    out = classify_swap(FROZEN_C4, FROZEN_C4_LISTS, phi, SwapMove(anchor, pair))
                    assert not out.valid

    def test_malformed_moves_rejected(self):
        with pytest.raises(ParameterError):
            SwapMove(0, (1, 1))
        with pytest.raises(ParameterError):
            classify_swap(SINGLE_EDGE, SINGLE_EDGE_LISTS, (1, 3), SwapMove(9, (1, 2)))

    def test_swapmove_normalizes_color_order(self):
        assert SwapMove(0, (3, 1)).colors == (1, 3)

    def test_normalize_move_takes_component_minimum(self):
        c4 = generate(parse_family("cycle(4)"))
        move = normalize_move(c4, (1, 2, 1, 2), SwapMove(3, (1, 2)))
        assert move.anchor == 0

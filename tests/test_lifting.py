"""Lifting swap sequences through a vertex or an induced subgraph."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lift_corpus import chorded_cycle_host

from kempe.coloring import (
    SwapMove,
    apply_moves,
    check_coloring,
    classify_swap_partial,
    enumerate_L_colorings,
    kempe_component,
    make_lists,
)
from kempe.errors import ParameterError, PreconditionError
from kempe.graphs import from_edges, generate, is_connected, parse_family
from kempe.reconfig import (
    find_versatile_extension,
    lift_through_subgraph,
    lift_through_vertex,
)


def fam(text):
    return generate(parse_family(text))


def restricted(phi, absent):
    return tuple(None if v in absent else phi[v] for v in range(len(phi)))


def random_walk_moves(g, lists, start, absent, steps, rng):
    """A random L-valid move sequence on g minus the absent vertices."""
    universe = sorted(set().union(*lists))
    phi = restricted(start, absent)
    moves = []
    for _ in range(steps):
        options = []
        for anchor in range(g.n):
            if anchor in absent or phi[anchor] is None:
                continue
            for pair in itertools.combinations(universe, 2):
                if phi[anchor] not in pair:
                    continue
                out = classify_swap_partial(g, lists, phi, SwapMove(anchor, pair), absent)
                if out.valid:
                    options.append((SwapMove(anchor, pair), out.coloring))
        if not options:
            break
        move, phi = options[rng.randrange(len(options))]
        moves.append(move)
    return moves, phi


class TestLiftThroughVertex:
    def test_empty_sequence_with_target_recolors_once(self):
        g = fam("path(2)")
        lists = make_lists([{1, 2, 3}, {1, 2}])
        result = lift_through_vertex(g, lists, 0, (3, 1), [], target_color=2)
        assert len(result.moves) == 1
        assert result.final == (2, 1)
        result = lift_through_vertex(g, lists, 0, (3, 1), [], target_color=3)
        assert result.moves == ()

    def test_unaffected_vertex_replays_directly(self):
        g = fam("path(2)")
        lists = make_lists([{1, 2, 3}, {1, 2}])
        result = lift_through_vertex(g, lists, 0, (3, 1), [SwapMove(1, (1, 2))])
        assert result.moves == (SwapMove(1, (1, 2)),)
        assert result.final == (3, 2)

    def test_parking_recolor_inserted_when_needed(self):
        # Triangle 0-1-2 plus pendant 3 on vertex 0; lifting through 0.
        g = from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        lists = make_lists([{1, 2, 3, 4}, {1, 2, 3}, {1, 2, 3}, {1, 2}])
        start = (1, 2, 3, 2)
        # On g-0, swap {1,2} at 3 is valid; in g, vertex 0 sits on the 1,2-path.
        moves = [SwapMove(3, (2, 1))]
        out = classify_swap_partial(g, lists, restricted(start, frozenset({0})),
                                    moves[0], frozenset({0}))
        assert out.valid
        result = lift_through_vertex(g, lists, 0, start, moves)
        assert len(result.moves) == 2  # park 0, then replay
        assert result.moves[0].anchor == 0
        assert apply_moves(g, lists, start, result.moves) == result.final
        assert restricted(result.final, frozenset({0})) == out.coloring

    def test_precondition_requires_slack(self):
        g = fam("path(2)")
        lists = make_lists([{1}, {1, 2}])
        with pytest.raises(PreconditionError):
            lift_through_vertex(g, lists, 0, (1, 2), [])

    def test_invalid_input_move_names_step(self):
        g = fam("path(3)")
        lists = make_lists([{1, 2}, {1, 2, 3}, {1, 2}])
        with pytest.raises(PreconditionError, match="move 0"):
            lift_through_vertex(g, lists, 1, (1, 3, 1), [SwapMove(0, (1, 3))])

    def test_random_instances_validate(self):
        rng = random.Random(424242)
        done = 0
        while done < 30:
            n = rng.randrange(4, 9)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.45]
            g = from_edges(n, edges)
            if not is_connected(g):
                continue
            v = rng.randrange(n)
            lists = []
            for x in range(n):
                size = max(g.degree(x) + (1 if x == v else 0), 1)
                lists.append(set(rng.sample(range(1, 10), size)))
            lists = make_lists(lists)
            colorings = enumerate_L_colorings(g, lists, 200_000)
            if not colorings:
                continue
            start = colorings[rng.randrange(len(colorings))]
            moves, expected = random_walk_moves(g, lists, start, frozenset({v}),
                                                rng.randrange(1, 6), rng)
            if not moves:
                continue
            done += 1
            result = lift_through_vertex(g, lists, v, start, moves)
            assert apply_moves(g, lists, start, result.moves) == result.final
            assert restricted(result.final, frozenset({v})) == expected


class TestVersatileExtension:
    # Host: path 0-1, vertex 1 joined to an attached structure H.
    def even_cycle_host(self):
        # H = C4 on {2,3,4,5}; vertex 2 also joined to 1.
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
        lists = make_lists([{1, 2}, {1, 2}, {2, 3, 4}, {1, 2}, {1, 2}, {1, 2}])
        return g, lists

    def test_even_cycle_extension_found_and_versatile(self):
        g, lists = self.even_cycle_host()
        h = {2, 3, 4, 5}
        partial = (1, 2) + (None,) * 4
        phi = find_versatile_extension(g, h, lists, partial, 1, (1, 2))
        assert check_coloring(g, lists, phi).ok
        assert restricted(phi, frozenset(h)) == partial
        # vertex 2 must avoid the pair: L(2) excludes 1 and using 2 would
        # invalidate the swap at w=1
        assert phi[2] in {3, 4}
        from kempe.coloring import classify_swap
        assert classify_swap(g, lists, phi, SwapMove(1, (1, 2))).valid

    def test_not_versatile_rejected(self):
        g, lists = self.even_cycle_host()
        partial = (1, 2) + (None,) * 4
        with pytest.raises(PreconditionError, match="not versatile"):
            find_versatile_extension(g, {2, 3, 4, 5}, lists, partial, 0, (3, 4))

    def test_gallai_tree_h_rejected(self):
        # H = triangle is a Gallai tree.
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
        lists = make_lists([{1, 2}, {1, 2}, {1, 2, 3}, {1, 2}, {1, 2}])
        with pytest.raises(PreconditionError, match="Gallai"):
            find_versatile_extension(g, {2, 3, 4}, lists, (1, 2, None, None, None),
                                     1, (1, 2))

    def test_theta_h_inside_host(self):
        # H = theta(1,3,3) on vertices 2..7, attached at vertex 2.
        theta = fam("theta(1,3,3)")
        edges = [(0, 1), (1, 2)] + [(u + 2, v + 2) for u, v in theta.edges()]
        g = from_edges(theta.n + 2, edges)
        h = set(range(2, g.n))
        lists = [None] * g.n
        lists[0] = {1, 2}
        lists[1] = {1, 2}
        for x in h:
            size = g.degree(x)
            lists[x] = set(range(1, size + 1)) | {5}
            lists[x] = set(sorted(lists[x])[:size])
        lists = make_lists(lists)
        partial = (1, 2) + (None,) * theta.n
        phi = find_versatile_extension(g, h, lists, partial, 1, (1, 2))
        assert check_coloring(g, lists, phi).ok

    def test_component_merge_contract(self):
        # Two separate pair-colored components outside H must not merge.
        g, lists = self.even_cycle_host()
        h = frozenset({2, 3, 4, 5})
        partial = (1, 2) + (None,) * 4
        phi = find_versatile_extension(g, h, lists, partial, 1, (1, 2))
        from kempe.reconfig import _pair_components
        old = _pair_components(g, partial, (1, 2), h)
        new = _pair_components(g, phi, (1, 2), frozenset())
        for comp in new:
            assert sum(1 for p in old if p <= comp) <= 1


def pair_components(g, phi, pair):
    """Components of the subgraph colored from pair, uncolored vertices left out."""
    todo = {x for x in range(g.n) if phi[x] in pair}
    comps = []
    while todo:
        comp, stack = set(), [min(todo)]
        while stack:
            x = stack.pop()
            if x not in comp:
                comp.add(x)
                stack.extend(y for y in g.adj[x] if phi[y] in pair)
        todo -= comp
        comps.append(frozenset(comp))
    return comps


def versatile_oracle(g, h, lists, partial, w, pair):
    """The first product-order extension of partial to H that is proper and versatile.

    Versatile: swapping pair on w's component stays inside the lists, and no
    pair-colored component joins two of the partial coloring's components.
    """
    hs = sorted(h)
    old = pair_components(g, partial, pair)
    for colors in itertools.product(*(sorted(lists[x]) for x in hs)):
        phi = list(partial)
        for x, c in zip(hs, colors):
            phi[x] = c
        if any(phi[u] == phi[v] for u, v in g.edges()):
            continue
        new = pair_components(g, phi, pair)
        (comp,) = [c for c in new if w in c]
        a, b = pair
        if any((b if phi[x] == a else a) not in lists[x] for x in comp):
            continue
        if all(sum(1 for p in old if p <= c) <= 1 for c in new):
            return tuple(phi)
    return None


class TestVersatileExtensionOracle:
    def test_first_versatile_extension_in_product_order(self):
        rng = random.Random(606)
        hosts = ["cycle(4)", "theta(1,2,2)", "complete_bipartite(2,3)", "cycle(6)"]
        found = 0
        while found < 40:
            hg = fam(rng.choice(hosts))
            extra = rng.randrange(1, 4)
            n = hg.n + extra
            edges = {(u + extra, v + extra) for u, v in hg.edges()}
            for x in range(extra):
                for y in rng.sample(range(n), 2):
                    if y != x:
                        edges.add((min(x, y), max(x, y)))
            g = from_edges(n, sorted(edges))
            if not is_connected(g):
                continue
            h = frozenset(range(extra, n))
            lists = make_lists([rng.sample(range(1, 6), min(5, g.degree(x) + rng.randrange(2)))
                                if x in h else rng.sample(range(1, 5), rng.randrange(2, 4))
                                for x in range(n)])
            outside = [phi for phi in itertools.product(*(sorted(lists[x]) for x in range(extra)))
                       if all(phi[u] != phi[v] for u, v in g.edges() if v < extra)]
            if not outside:
                continue
            partial = rng.choice(outside) + (None,) * hg.n
            w = rng.randrange(extra)
            pair = tuple(sorted((partial[w], rng.choice(sorted(lists[w] - {partial[w]})))))
            try:
                got = find_versatile_extension(g, h, lists, partial, w, pair)
            except PreconditionError:
                continue  # w is not versatile in g-H, or H fails a hypothesis
            assert got == versatile_oracle(g, h, lists, partial, w, pair)
            found += 1


class TestLiftThroughSubgraph:
    def host_with_chorded_cycle(self, tight=True):
        g, lists = chorded_cycle_host(tight)
        return g, set(range(2, 8)), lists

    def test_single_vertex_h_consistent_with_vertex_lift(self):
        g = fam("path(3)")
        lists = make_lists([{1, 2}, {1, 2, 3}, {1, 2}])
        start = (1, 3, 1)
        moves = [SwapMove(0, (1, 2)), SwapMove(2, (1, 2))]
        via_vertex = lift_through_vertex(g, lists, 1, start, moves)
        via_subgraph = lift_through_subgraph(g, [1], lists, start, moves)
        assert restricted(via_vertex.final, frozenset({1})) \
            == restricted(via_subgraph.final, frozenset({1}))
        assert apply_moves(g, lists, start, via_subgraph.moves) == via_subgraph.final

    def test_chorded_even_cycle_end_to_end(self):
        rng = random.Random(77)
        g, h, lists = self.host_with_chorded_cycle()
        colorings = enumerate_L_colorings(g, lists, 500_000)
        assert colorings
        start = colorings[0]
        moves, expected = random_walk_moves(g, lists, start, frozenset(h), 3, rng)
        assert moves
        result = lift_through_subgraph(g, h, lists, start, moves)
        assert apply_moves(g, lists, start, result.moves) == result.final
        assert restricted(result.final, frozenset(h)) == expected

    def test_target_bridge_reaches_target(self):
        rng = random.Random(99)
        g, h, lists = self.host_with_chorded_cycle()
        colorings = enumerate_L_colorings(g, lists, 500_000)
        start = colorings[0]
        moves, expected = random_walk_moves(g, lists, start, frozenset(h), 2, rng)
        target = next(phi for phi in colorings
                      if restricted(phi, frozenset(h)) == expected)
        result = lift_through_subgraph(g, h, lists, start, moves, target=target)
        assert result.final == target
        assert apply_moves(g, lists, start, result.moves) == target

    def test_gallai_h_rejected_when_tight(self):
        # H = triangle with tight lists: f' = d_H, Gallai tree, so not
        # f'-choosable.
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (3, 4)][:-1])
        lists = make_lists([{1, 2}, {1, 2, 3}, {1, 2, 3}, {1, 2}, {1, 2}])
        with pytest.raises(PreconditionError, match="Gallai"):
            lift_through_subgraph(g, [2, 3, 4], lists, (1, 2, 1, 2, 3)[:g.n], [])

    def test_hypothesis_verdict_computed_once_per_h(self, monkeypatch):
        import kempe.verify
        from kempe.reconfig import _hypothesis_verdict

        calls = []
        original = kempe.verify.degree_swappable_verdict

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kempe.verify, "degree_swappable_verdict", counting)
        _hypothesis_verdict.cache_clear()
        g, h, lists = self.host_with_chorded_cycle()
        start = enumerate_L_colorings(g, lists, 500_000)[0]
        for _ in range(3):
            assert lift_through_subgraph(g, h, lists, start, []).final == start
        _hypothesis_verdict.cache_clear()
        assert len(calls) == 1

    def test_bridging_lift_makes_no_whole_host_check(self, monkeypatch):
        # Every candidate extension and bridge move is proper by construction,
        # so the tight branch tests each swap without re-checking the host.
        # Seed 3's walk needs bridge swaps, seed 0's does not.
        import kempe.coloring

        g, h, lists = self.host_with_chorded_cycle()
        start = enumerate_L_colorings(g, lists, 500_000)[0]
        calls = []
        original = kempe.coloring.check_coloring

        def counting(host, *args):
            if host is g:
                calls.append(args)
            return original(host, *args)

        sizes = []
        for seed in (0, 3):
            moves, expected = random_walk_moves(g, lists, start, frozenset(h), 6,
                                                random.Random(seed))
            assert len(moves) == 6
            monkeypatch.setattr(kempe.coloring, "check_coloring", counting)
            result = lift_through_subgraph(g, h, lists, start, moves)
            monkeypatch.setattr(kempe.coloring, "check_coloring", original)
            assert calls == []
            assert apply_moves(g, lists, start, result.moves) == result.final
            assert restricted(result.final, frozenset(h)) == expected
            sizes.append(len(result.moves))
        assert sizes[0] == 6 < sizes[1]

    def test_tight_lift_checks_h_once(self, monkeypatch):
        # H is checked before the steps; each step's extension only searches.
        import kempe.reconfig

        g, h, lists = self.host_with_chorded_cycle()
        start = enumerate_L_colorings(g, lists, 500_000)[0]
        moves, expected = random_walk_moves(g, lists, start, frozenset(h), 6, random.Random(3))
        assert len(moves) == 6
        calls = []
        original = kempe.reconfig.is_gallai_tree

        def counting(sub):
            calls.append(sub)
            return original(sub)

        monkeypatch.setattr(kempe.reconfig, "is_gallai_tree", counting)
        result = lift_through_subgraph(g, h, lists, start, moves)
        assert len(calls) == 1
        assert restricted(result.final, frozenset(h)) == expected

    @pytest.mark.parametrize("tight", [True, False], ids=["tight", "slack"])
    def test_invalid_input_move_names_step(self, tight):
        # Move 0 is valid on g-H; move 1 would give vertex 0 the color 4,
        # which its list lacks.  Each branch checks the input step by step.
        g, h, lists = self.host_with_chorded_cycle(tight)
        start = (1, 2, 1, 2, 1, 2, 1, 2)
        moves = [SwapMove(1, (1, 2)), SwapMove(0, (2, 4))]
        with pytest.raises(PreconditionError, match=r"input move 1 \(2,4-swap at 0\) is not L-valid"):
            lift_through_subgraph(g, h, lists, start, moves)

    def test_fprime_below_subgraph_degree_rejected(self):
        g, h, lists = self.host_with_chorded_cycle()
        small = list(lists)
        small[2] = frozenset({1, 2})  # d_g(2) = 4, so f'(2) < d_H(2)
        with pytest.raises(PreconditionError, match="f'"):
            lift_through_subgraph(g, h, make_lists(small), (1,) * 8, [])


# H shapes on vertices 0..k-1.  The first three are not Gallai trees and pass
# the degree-swappability verdict at cap 4, so they may be tight (f' = d_H);
# the others only take part with slack.
TIGHT_SHAPES = {
    "theta(1,3,3)": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
    "K_{2,3}": (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    "wheel W4": (5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]),
}
SLACK_SHAPES = dict(TIGHT_SHAPES, **{
    "K1": (1, []),
    "P3": (3, [(0, 1), (1, 2)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "K4": (4, list(itertools.combinations(range(4), 2))),
})
PALETTE = range(1, 9)  # the largest list, d_G(x) + 1 at the W4 hub, has 8 colors


@st.composite
def subgraph_lifts(draw, tight):
    """A connected host, an induced H in it, an L-coloring and a walk on g-H.

    H is on the last k vertices.  Each outside vertex is joined to an earlier
    vertex, so the host is connected.  The start coloring is drawn first, each
    vertex taking a color that its earlier neighbors do not use, and every
    list holds its vertex's start color.  In H, |L(x)| = d_G(x) when tight and
    d_G(x) or d_G(x) + 1 with at least one + 1 otherwise.
    """
    shapes = TIGHT_SHAPES if tight else SLACK_SHAPES
    k, h_edges = shapes[draw(st.sampled_from(sorted(shapes)))]
    extra = draw(st.integers(1, 3))
    n = extra + k
    h = frozenset(range(extra, n))
    edges = {(a + extra, b + extra) for a, b in h_edges}
    edges.add((0, draw(st.sampled_from(sorted(h)))))
    for x in range(1, extra):
        edges.add((draw(st.integers(0, x - 1)), x))
    for x in range(extra):
        for y in range(x + 1, n):
            if draw(st.booleans()):
                edges.add((x, y))
    g = from_edges(n, sorted(edges))
    start = []
    for x in range(n):
        used = {start[y] for y in g.adj[x] if y < x}
        start.append(draw(st.sampled_from([c for c in PALETTE if c not in used])))
    bumped = set() if tight else {draw(st.sampled_from(sorted(h)))}
    lists = []
    for x in range(n):
        if x in h:
            size = g.degree(x) + (x in bumped or (not tight and draw(st.booleans())))
        else:
            size = draw(st.integers(2, 4))
        others = draw(st.sets(st.sampled_from([c for c in PALETTE if c != start[x]]),
                              min_size=size - 1, max_size=size - 1))
        lists.append(others | {start[x]})
    lists = make_lists(lists)
    start = tuple(start)
    moves, end = random_walk_moves(g, lists, start, h, draw(st.integers(1, 4)),
                                   draw(st.randoms(use_true_random=False)))
    return g, h, lists, start, moves, end


class TestLiftedSequencesReplay:
    @pytest.mark.parametrize("tight", [True, False], ids=["tight", "slack"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_lifted_moves_replay_to_final_and_are_normalized(self, tight, data):
        g, h, lists, start, moves, end = data.draw(subgraph_lifts(tight))
        result = lift_through_subgraph(g, h, lists, start, moves)
        assert apply_moves(g, lists, start, result.moves) == result.final
        assert restricted(result.final, h) == end
        phi = start
        for mv in result.moves:
            assert mv.anchor == min(kempe_component(g, phi, mv.anchor, mv.colors))
            phi = apply_moves(g, lists, phi, [mv])

"""Reconfiguration graph: mixing classes, paths, coloring classes, certificates."""

from __future__ import annotations

import gc
import itertools
import random
import weakref
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kempe.coloring import (
    DEFAULT_MAX_COLORINGS,
    SwapMove,
    apply_moves,
    classify_swap,
    count_L_colorings_reference,
    enumerate_L_colorings,
    kempe_component,
    make_lists,
)
from kempe.errors import BudgetError, ParameterError, PreconditionError
from kempe.graphs import cartesian_product, from_edges, generate, line_graph, parse_family
from kempe.reconfig import (
    ClassConstraint,
    ReconfigSpace,
    build_reconfig_graph,
    cover_certificate,
    equivalence_path,
    is_L_swappable,
    mixing_classes,
    subset_mixes,
)
from kempe.verify import frozen_colorings, slack_order


def fam(text):
    return generate(parse_family(text))


FROZEN_C4_LISTS = make_lists([{1, 2}, {2, 3}, {3, 4}, {4, 1}])


class TestSearchDepth:
    # Lists {1} and {2} alternate along a path: one coloring, so the product
    # bound passes, but the coloring searches recurse once per vertex.
    SEARCHES = {"enumerate": lambda g, lists: enumerate_L_colorings(g, lists),
                "swappable": is_L_swappable, "frozen": frozen_colorings}

    @staticmethod
    def alternating_path(n):
        return fam(f"path({n})"), make_lists([{1 + i % 2} for i in range(n)])

    @pytest.mark.parametrize("search", SEARCHES)
    def test_deeper_than_the_recursion_limit_is_a_budget_error(self, search):
        with pytest.raises(BudgetError, match="depth"):
            self.SEARCHES[search](*self.alternating_path(1500))

    @pytest.mark.parametrize("search", SEARCHES)
    def test_a_path_within_the_depth_budget_answers(self, search):
        g, lists = self.alternating_path(880)
        only = tuple(1 + i % 2 for i in range(880))
        expected = {"enumerate": [only], "swappable": True, "frozen": [only]}[search]
        assert self.SEARCHES[search](g, lists) == expected


class TestMixingClasses:
    def test_frozen_c4(self):
        report = mixing_classes(fam("cycle(4)"), FROZEN_C4_LISTS)
        assert report.total == 2
        assert report.class_count == 2
        assert len(report.frozen) == 2
        assert not report.is_L_swappable

    def test_c6_all_12_lists(self):
        # Both alternating colorings swap into each other on the whole cycle.
        report = mixing_classes(fam("cycle(6)"), make_lists([{1, 2}] * 6))
        assert report.total == 2
        assert report.class_count == 1

    def test_k3k2_exception(self):
        g = cartesian_product(fam("clique(3)"), fam("clique(2)"))
        report = mixing_classes(g, make_lists([{1, 2, 3}] * 6))
        assert report.total == 12
        assert report.class_count >= 2

    def test_classes_partition_and_frozen_are_isolated(self):
        report = mixing_classes(fam("cycle(4)"), FROZEN_C4_LISTS)
        assert len(report.component_ids) == report.total
        assert set(report.component_ids) == set(range(report.class_count))
        assert len(report.representatives) == report.class_count

    def test_singleton_classes_equal_frozen_set(self):
        g = fam("cycle(4)")
        lists = make_lists([{1, 2, 3}] * 4)
        report = mixing_classes(g, lists)
        sizes = {}
        for c in report.component_ids:
            sizes[c] = sizes.get(c, 0) + 1
        singles = {report.colorings[i] for i, c in enumerate(report.component_ids)
                   if sizes[c] == 1}
        assert singles == set(report.frozen)

    def test_fast_path_agrees_with_full_partition(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randrange(3, 6)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = from_edges(n, edges)
            lists = make_lists([set(rng.sample(range(1, 5), rng.randrange(2, 4)))
                                for _ in range(n)])
            assert is_L_swappable(g, lists) == mixing_classes(g, lists).is_L_swappable


class TestReconfigGraphStructure:
    def test_edges_symmetric_and_confined_to_one_component(self):
        g = fam("cycle(4)")
        lists = make_lists([{1, 2, 3}] * 4)
        rg = build_reconfig_graph(g, lists)
        assert rg.colorings == tuple(enumerate_L_colorings(g, lists))
        assert len(rg.colorings) == 18
        index = {phi: i for i, phi in enumerate(rg.colorings)}
        for a, b, move in rg.edges:
            phi, psi = rg.colorings[a], rg.colorings[b]
            # the move applies in both directions (involution = symmetry)
            out = classify_swap(g, lists, phi, move)
            assert out.valid and index[out.coloring] == b
            back = classify_swap(g, lists, psi, move)
            assert back.valid and index[back.coloring] == a
            diff = {v for v in range(4) if phi[v] != psi[v]}
            comp = kempe_component(g, phi, move.anchor, move.colors)
            assert diff <= comp and diff
            assert move.anchor == min(comp)
            assert rg.component_ids[a] == rg.component_ids[b]

    def test_space_neighbors_are_exactly_the_valid_swaps(self):
        # Completeness oracle: the neighbor keys of each coloring are the
        # valid classify_swap outcomes over every anchor and color pair, each
        # once, and a coloring is frozen iff it has none.  The move decoded
        # from each key pair is the normalized move that classify_swap
        # confirms.
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randrange(2, 7)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = from_edges(n, edges)
            lists = make_lists([set(rng.sample(range(1, 6), rng.randrange(1, 4)))
                                for _ in range(n)])
            space = ReconfigSpace(g, lists)
            pairs = list(itertools.combinations(sorted(set().union(*lists)), 2))
            coloring_of = {space.key_of(phi): phi for phi in space.colorings}
            assert all(_decode(space, key) == phi for key, phi in coloring_of.items())
            for key, phi in coloring_of.items():
                expected = set()
                for anchor in range(n):
                    for pair in pairs:
                        outcome = classify_swap(g, lists, phi, SwapMove(anchor, pair))
                        if outcome.valid:
                            expected.add(outcome.coloring)
                got = [coloring_of[new] for new in space.neighbors(key)]
                assert len(got) == len(set(got))
                assert set(got) == expected
                assert space.is_frozen(phi) == (not expected)
                for new in space.neighbors(key):
                    move = space.move_between(key, new)
                    outcome = classify_swap(g, lists, phi, move)
                    assert outcome.valid and outcome.coloring == coloring_of[new]
                    assert move.anchor == min(outcome.component)


    def test_edges_are_every_valid_swap_once(self):
        # Completeness oracle: the edges are exactly the unordered pairs
        # {phi, classify_swap(phi, move)} over every anchor and color pair,
        # one normalized move each, and the classes are mixing_classes'.
        rng = random.Random(29)
        for _ in range(40):
            g, lists = _random_lists_case(rng)
            rg = build_reconfig_graph(g, lists)
            index = {phi: i for i, phi in enumerate(rg.colorings)}
            pairs = list(itertools.combinations(sorted(set().union(*lists)), 2))
            expected = set()
            for a, phi in enumerate(rg.colorings):
                for anchor in range(g.n):
                    for pair in pairs:
                        outcome = classify_swap(g, lists, phi, SwapMove(anchor, pair))
                        if outcome.valid:
                            expected.add(frozenset({a, index[outcome.coloring]}))
            keys = [(a, b) for a, b, _ in rg.edges]
            assert keys == sorted(set(keys)) and all(a < b for a, b in keys)
            assert {frozenset(key) for key in keys} == expected
            for a, b, move in rg.edges:
                phi = rg.colorings[a]
                assert classify_swap(g, lists, phi, move).coloring == rg.colorings[b]
                assert move.anchor == min(kempe_component(g, phi, move.anchor, move.colors))
            assert rg.component_ids == mixing_classes(g, lists).component_ids


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _segment(space, key: int, c: int) -> int:
    """The vertex mask of color index c in a key: bits [c*n, (c+1)*n)."""
    n = space.g.n
    return key >> c * n & (1 << n) - 1


def _decode(space, key: int):
    """The coloring a key encodes, each vertex read from the one segment holding it."""
    holders = [[c for c in range(space.k) if _segment(space, key, c) >> v & 1]
               for v in range(space.g.n)]
    assert all(len(h) == 1 for h in holders)
    return tuple(space.universe[h[0]] for h in holders)


def _random_colored_case(rng: random.Random, n: int):
    """A random graph, a proper coloring phi of it, and lists that admit phi."""
    p = rng.choice((0.15, 0.3, 0.5))
    g = from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
    k = rng.randrange(2, 6)
    phi = [0] * n
    for v in rng.sample(range(n), n):
        used = {phi[w] for w in g.adj[v]}
        free = [c for c in range(1, k + 1) if c not in used]
        phi[v] = rng.choice(free) if free else min(c for c in range(1, n + 2) if c not in used)
    palette = range(1, max(phi, default=1) + 2)
    lists = make_lists([{c, *rng.sample(palette, rng.randrange(0, 3))} for c in phi])
    return g, tuple(phi), lists


class TestComponentKernel:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20))
    @example(seed=7, n=20)
    def test_neighbors_match_kempe_component_and_classify_swap(self, seed, n):
        g, phi, lists = _random_colored_case(random.Random(seed), n)
        space = ReconfigSpace(g, lists)
        key = space.key_of(phi)
        assert _decode(space, key) == phi

        got = []
        for new in space.neighbors(key):
            # A swap flips the same vertices, its component, in two segments.
            i, j = (c for c in range(space.k) if _segment(space, key ^ new, c))
            comp = _segment(space, key ^ new, i)
            assert comp == _segment(space, key ^ new, j)
            pair = (space.universe[i], space.universe[j])
            anchor = (comp & -comp).bit_length() - 1
            assert comp == _mask(kempe_component(g, phi, anchor, pair))
            move = space.move_between(key, new)
            assert move == SwapMove(anchor, pair)
            outcome = classify_swap(g, lists, phi, move)
            assert outcome.valid and outcome.coloring == _decode(space, new)
            got.append(_decode(space, new))
        expected = set()
        for anchor in range(n):
            for pair in itertools.combinations(space.universe, 2):
                outcome = classify_swap(g, lists, phi, SwapMove(anchor, pair))
                if outcome.valid:
                    expected.add(outcome.coloring)
        assert len(got) == len(set(got))
        assert set(got) == expected
        # The memo holds every component of each pair, ordered by lowest vertex.
        for i, j in itertools.combinations(range(space.k), 2):
            pair = (space.universe[i], space.universe[j])
            s = _segment(space, key, i) | _segment(space, key, j)
            comps = []
            for v in range(n):
                if s >> v & 1 and not any(c >> v & 1 for c in comps):
                    comps.append(_mask(kempe_component(g, phi, v, pair)))
            assert space.memo[s] == tuple(comps)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
    def test_a_valid_swap_is_an_involution(self, seed, n):
        g, phi, lists = _random_colored_case(random.Random(seed), n)
        palette = sorted(set().union(*lists))
        for anchor in range(n):
            for pair in itertools.combinations(palette, 2):
                move = SwapMove(anchor, pair)
                out = classify_swap(g, lists, phi, move)
                if out.valid:
                    back = classify_swap(g, lists, out.coloring, move)
                    assert back.valid and back.coloring == phi
                    assert back.component == out.component
        space = ReconfigSpace(g, lists)
        key = space.key_of(phi)
        for new in space.neighbors(key):
            assert key in set(space.neighbors(new))

    def test_spaces_on_one_graph_share_the_memo(self):
        g = fam("cycle(5)")
        first = ReconfigSpace(g, make_lists([{1, 2, 3}] * 5))
        second = ReconfigSpace(fam("cycle(5)"), make_lists([{1, 2}, {2, 3}] * 2 + [{1, 3}]))
        assert first.memo is second.memo
        assert first.memo is not ReconfigSpace(fam("cycle(6)"), make_lists([{1, 2}] * 6)).memo


def _random_lists_case(rng: random.Random):
    """A random graph with random lists, half of them degree-sized lists on a cycle."""
    n = rng.randrange(3, 8)
    pairs = list(itertools.combinations(range(n), 2))
    if rng.random() < 0.5:
        ring = {tuple(sorted((v, (v + 1) % n))) for v in range(n)}
        g = from_edges(n, sorted(ring | {e for e in pairs if rng.random() < 0.1}))
        top = max(g.degrees()) + rng.randrange(0, 2)
        return g, make_lists([rng.sample(range(1, top + 1), g.degree(v)) for v in range(n)])
    g = from_edges(n, [e for e in pairs if rng.random() < 0.5])
    top = rng.randrange(2, 6)
    return g, make_lists([rng.sample(range(1, top + 1), rng.randrange(1, top + 1))
                          for _ in range(n)])


def _bfs_reference(space, start: int, goal=None, stop_at: int = 0) -> dict:
    """A plain breadth-first search over space.neighbors: key -> the key it was reached from."""
    seen = {start: None}
    frontier = deque([start])
    while frontier:
        key = frontier.popleft()
        for new in space.neighbors(key):
            if new not in seen:
                seen[new] = key
                if new == goal or len(seen) == stop_at:
                    return seen
                frontier.append(new)
    return seen


class TestFloodOracle:
    def test_flood_agrees_with_a_search_over_neighbors(self):
        rng = random.Random(1517)
        goals_met = cut = symmetric = 0
        for _ in range(150):
            g, lists = _random_lists_case(rng)
            space = ReconfigSpace(g, lists)
            keys = [space.key_of(phi) for phi in space.colorings]
            if not keys:
                continue
            start, goal = rng.choice(keys), rng.choice(keys)
            whole = _bfs_reference(space, start)
            orbits = {space.canon(k) for k in whole}
            # No goal: depth-first over orbits, the canonical keys of the class.
            seen = {space.canon(start): None}
            space.flood(space.canon(start), seen)
            assert seen.keys() == orbits
            # A goal: breadth-first over colorings, the same links in the same order.
            seen = {start: None}
            space.flood(start, seen, goal)
            assert list(seen.items()) == list(_bfs_reference(space, start, goal).items())
            goals_met += goal in whole and goal != start
            # stop_at: the search stops once seen holds that many keys.
            stop_at = rng.randrange(2, len(whole) + 2)  # seen starts with one
            seen = {space.canon(start): None}
            space.flood(space.canon(start), seen, None, stop_at)
            assert seen.keys() <= orbits and len(seen) == min(stop_at, len(orbits))
            seen = {start: None}
            space.flood(start, seen, goal, stop_at)
            assert list(seen.items()) == list(_bfs_reference(space, start, goal, stop_at).items())
            cut += stop_at < len(whole)
            symmetric += len(orbits) < len(whole)
        assert goals_met > 20 and cut > 20 and symmetric > 20


def _types_reference(lists) -> list[list[int]]:
    """The types of two or more colors, from the lists alone: colors that
    exactly the same vertices' lists hold, ascending."""
    holders: dict = {}
    for c in sorted(set().union(*lists)):
        holders.setdefault(frozenset(v for v, s in enumerate(lists) if c in s), []).append(c)
    return [t for t in holders.values() if len(t) > 1]


def _canon_reference(lists, phi):
    """The canonical member of phi's orbit: within each type, the colors in
    order of first use along the vertices are renamed to the type's colors
    in ascending order."""
    rename = {}
    for t in _types_reference(lists):
        used = list(dict.fromkeys(c for c in phi if c in t))
        rename.update(zip(used, t))
    return tuple(rename.get(c, c) for c in phi)


def _orbit_case(rng: random.Random, kind: str):
    """A random graph with uniform, two-block or asymmetric lists."""
    n = rng.randrange(2, 7)
    g = from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
    if kind == "uniform":
        return g, make_lists([range(1, rng.randrange(2, 5) + 1)] * n)
    if kind == "blocks":
        a = set(range(1, rng.randrange(2, 4) + 1))
        b = set(range(len(a) + 1, len(a) + rng.randrange(2, 4) + 1))
        return g, make_lists([rng.choice((a, b, a | b)) for _ in range(n)])
    return g, make_lists([rng.sample(range(1, 6), rng.randrange(1, 5)) for _ in range(n)])


class TestColorOrbits:
    def test_orbit_flood_agrees_with_a_search_over_colorings(self):
        # The oracle numbers the classes by a plain breadth-first search over
        # neighbors on colorings; the canonical forms and the orbit count
        # come from the lists alone.  K3xK2, L(K3,3) and K3xK2 beside an edge,
        # with lists {1,2,3}, have two classes each; random draws seldom have
        # several.
        rng = random.Random(1818)
        prism = cartesian_product(fam("clique(3)"), fam("clique(2)"))
        cases = [(prism, make_lists([{1, 2, 3}] * 6)),
                 (line_graph(fam("complete_bipartite(3,3)")), make_lists([{1, 2, 3}] * 9)),
                 (from_edges(8, [*prism.edges(), (6, 7)]), make_lists([{1, 2, 3}] * 8))]
        cases += [_orbit_case(rng, kind) for kind in ("uniform", "blocks", "asymmetric")
                  for _ in range(40)]
        symmetric = several = paths = 0
        for g, lists in cases:
            space = ReconfigSpace(g, lists)
            colorings = space.colorings
            keys = [space.key_of(phi) for phi in colorings]
            number: dict = {}
            for key in keys:
                if key not in number:
                    count = len(set(number.values()))
                    number.update(dict.fromkeys(_bfs_reference(space, key), count))
            ids = tuple(number[key] for key in keys)
            sizes = Counter(ids)
            reps = tuple(colorings[ids.index(c)] for c in range(len(sizes)))
            frozen = tuple(phi for phi, c in zip(colorings, ids) if sizes[c] == 1)

            report = mixing_classes(g, lists)
            assert report.component_ids == ids
            assert (report.representatives, report.frozen) == (reps, frozen)
            assert build_reconfig_graph(g, lists).component_ids == ids
            assert is_L_swappable(g, lists) == (len(sizes) <= 1)

            canon = [space.key_of(_canon_reference(lists, phi)) for phi in colorings]
            assert [space.canon(key) for key in keys] == canon
            first = keys[0] if keys else None
            assert space.count_colorings() == (len(set(canon)), first)
            # Each class floods, over orbits, to the canonical forms of its colorings.
            for c in range(len(sizes)):
                start = canon[ids.index(c)]
                seen = {start: None}
                space.flood(start, seen)
                assert seen.keys() == {k for k, i in zip(canon, ids) if i == c}
            # Shortest paths stay on colorings.
            for _ in range(3 if keys else 0):
                a, b = rng.randrange(len(keys)), rng.randrange(len(keys))
                path = equivalence_path(g, lists, colorings[a], colorings[b])
                if ids[a] != ids[b]:
                    assert path is None
                    continue
                trail = _bfs_reference(space, keys[a], keys[b])
                steps, key = 0, keys[b]
                while trail[key] is not None:
                    key, steps = trail[key], steps + 1
                assert len(path) == steps
                paths += steps > 1
            symmetric += bool(_types_reference(lists))
            several += len(sizes) > 1
        assert symmetric > 80 and several == 3 and paths > 30


class TestClassNumbers:
    def test_mixing_ids_equal_the_explicit_graph_and_networkx_components(self):
        # One class takes _classes' shortcut, several take the renumbering
        # loop; both must number classes by their first colorings.
        import networkx as nx

        rng = random.Random(1518)
        named = [(fam("cycle(4)"), FROZEN_C4_LISTS), (fam("cycle(6)"), make_lists([{1, 2}] * 6)),
                 (cartesian_product(fam("clique(3)"), fam("clique(2)")),
                  make_lists([{1, 2, 3}] * 6)),
                 (fam("cycle(4)"), make_lists([{1, 2, 3}] * 4))]
        kinds = Counter()
        # Random cases until each branch has been taken 25 times; about one
        # in fifteen has several classes.
        while min(kinds[1], kinds[2]) < 25:
            assert sum(kinds.values()) < 3000
            g, lists = named.pop() if named else _random_lists_case(rng)
            report = mixing_classes(g, lists)
            rg = build_reconfig_graph(g, lists)
            explicit = nx.Graph()
            explicit.add_nodes_from(range(len(rg.colorings)))
            explicit.add_edges_from((a, b) for a, b, _ in rg.edges)
            least = {a: min(comp) for comp in nx.connected_components(explicit) for a in comp}
            number = {a: i for i, a in enumerate(sorted(set(least.values())))}
            expected = tuple(number[least[a]] for a in range(len(rg.colorings)))
            assert report.component_ids == rg.component_ids == expected
            assert report.colorings == rg.colorings
            kinds[min(report.class_count, 2)] += 1


class TestFusedSwappability:
    def test_agrees_with_the_full_partition(self):
        rng = random.Random(606)
        verdicts = []
        for _ in range(200):
            g, lists = _random_lists_case(rng)
            verdict = is_L_swappable(g, lists)
            assert verdict == (mixing_classes(g, lists).class_count <= 1)
            verdicts.append(verdict)
        assert 0 < verdicts.count(False) < len(verdicts)

    def test_count_matches_the_reference_and_first_is_enumerated_first(self):
        # count_colorings counts Sigma-orbits; with no color type each orbit
        # is one coloring.
        rng = random.Random(607)
        symmetric = 0
        for _ in range(100):
            g, lists = _random_lists_case(rng)
            space = ReconfigSpace(g, lists)
            total, first = space.count_colorings()
            colorings = enumerate_L_colorings(g, lists)
            assert total == len({space.canon(space.key_of(phi)) for phi in colorings})
            if space.types:
                symmetric += 1
            else:
                assert total == count_L_colorings_reference(g, lists) == len(colorings)
            assert first == (space.key_of(colorings[0]) if colorings else None)
        assert 10 < symmetric < 90

    def test_searches_leave_no_cycle_through_the_space(self):
        # A search closure that refers to itself and holds the space would
        # keep the space alive until a cyclic GC pass.
        gc.disable()
        try:
            for search in (ReconfigSpace.count_colorings, ReconfigSpace.frozen):
                space = ReconfigSpace(fam("cycle(4)"), FROZEN_C4_LISTS)
                assert search(space)
                alive = weakref.ref(space)
                del space
                assert alive() is None, search.__name__
        finally:
            gc.enable()

    def test_budget_error_carries_the_product_bound(self):
        g = fam("cycle(4)")
        lists = make_lists([{1, 2, 3}] * 4)
        for budget in (0, 17, 80):
            with pytest.raises(BudgetError) as fused:
                is_L_swappable(g, lists, max_colorings=budget)
            with pytest.raises(BudgetError) as listed:
                enumerate_L_colorings(g, lists, max_colorings=budget)
            assert fused.value.bound == listed.value.bound == 81
            assert str(fused.value) == str(listed.value)
        assert is_L_swappable(g, lists, max_colorings=81)

    def test_negative_budget_is_a_parameter_error(self):
        g = fam("cycle(4)")
        lists = make_lists([{1, 2, 3}] * 4)
        phi = (1, 2, 1, 2)
        for call in (lambda: is_L_swappable(g, lists, -1),
                     lambda: mixing_classes(g, lists, -1),
                     lambda: enumerate_L_colorings(g, lists, -1),
                     lambda: equivalence_path(g, lists, phi, phi, -1)):
            with pytest.raises(ParameterError, match="max_colorings must be at least 0"):
                call()


class TestEquivalencePath:
    def test_identical_colorings_give_empty_path(self):
        g = fam("cycle(4)")
        lists = make_lists([{1, 2, 3}] * 4)
        phi = enumerate_L_colorings(g, lists)[0]
        assert equivalence_path(g, lists, phi, phi) == []

    def test_frozen_pair_has_no_path(self):
        g = fam("cycle(4)")
        phi1, phi2 = enumerate_L_colorings(g, FROZEN_C4_LISTS)
        assert equivalence_path(g, FROZEN_C4_LISTS, phi1, phi2) is None

    def test_c4_alternating_pair_connected_with_replay(self):
        g = fam("cycle(4)")
        lists = make_lists([{1, 2, 3}] * 4)
        moves = equivalence_path(g, lists, (1, 2, 1, 2), (2, 1, 2, 1))
        assert moves is not None
        assert apply_moves(g, lists, (1, 2, 1, 2), moves) == (2, 1, 2, 1)

    def test_path_is_shortest(self):
        g = fam("cycle(4)")
        lists = make_lists([{1, 2, 3}] * 4)
        rg = build_reconfig_graph(g, lists)
        # BFS distances on the explicit graph
        adj = {i: set() for i in range(len(rg.colorings))}
        for a, b, _ in rg.edges:
            adj[a].add(b)
            adj[b].add(a)
        src = 0
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        for j, phi2 in enumerate(rg.colorings):
            moves = equivalence_path(g, lists, rg.colorings[src], phi2)
            if j in dist:
                assert moves is not None and len(moves) == dist[j]
            else:
                assert moves is None

    def test_rejects_non_colorings(self):
        g = fam("cycle(4)")
        with pytest.raises(PreconditionError):
            equivalence_path(g, FROZEN_C4_LISTS, (1, 1, 1, 1), (1, 2, 3, 4))

    def test_budget_corners(self):
        # A search fails once it reaches one coloring past max_colorings; a
        # frozen start reaches only itself, so it gives None at any budget.
        g = fam("cycle(4)")
        phi1, phi2 = enumerate_L_colorings(g, FROZEN_C4_LISTS)
        for budget in (0, 1):
            assert equivalence_path(g, FROZEN_C4_LISTS, phi1, phi2, budget) is None
        lists = make_lists([{1, 2, 3}] * 4)
        for budget in (0, 1):
            with pytest.raises(BudgetError, match=f"exceeded {budget} colorings"):
                equivalence_path(g, lists, (1, 2, 1, 2), (2, 1, 2, 1), budget)
        # (3, 1, 3, 1) is the last of the 18 colorings of the one class reached.
        report = mixing_classes(g, lists)
        assert (report.class_count, report.total) == (1, 18)
        with pytest.raises(BudgetError):
            equivalence_path(g, lists, (1, 2, 1, 2), (3, 1, 3, 1), 17)
        for budget in (18, 19, DEFAULT_MAX_COLORINGS):
            moves = equivalence_path(g, lists, (1, 2, 1, 2), (3, 1, 3, 1), budget)
            assert len(moves) == 3
            assert apply_moves(g, lists, (1, 2, 1, 2), moves) == (3, 1, 3, 1)


class TestSubsetMixes:
    def test_single_coloring_mixes(self):
        g = fam("cycle(4)")
        phi = enumerate_L_colorings(g, FROZEN_C4_LISTS)[0]
        constraint = ClassConstraint.conjunction([(v, phi[v]) for v in range(4)])
        verdict = subset_mixes(g, FROZEN_C4_LISTS, constraint)
        assert verdict.mixes and not verdict.empty and verdict.size == 1

    def test_frozen_c4_full_set_does_not_mix(self):
        g = fam("cycle(4)")
        verdict = subset_mixes(g, FROZEN_C4_LISTS, ClassConstraint.everything())
        assert not verdict.mixes

    def test_empty_subset_flagged(self):
        g = fam("cycle(4)")
        verdict = subset_mixes(g, FROZEN_C4_LISTS, ClassConstraint.fix(0, 2))
        # no L-coloring gives vertex 0 color 2 here: (2,3,4,1) does... pick color with no coloring
        verdict = subset_mixes(g, FROZEN_C4_LISTS,
                               ClassConstraint.conjunction([(0, 1), (1, 3)]))
        assert verdict.empty and verdict.mixes

    def test_barbell_line_graph_fixed_color_class_mixes(self):
        # Degree assignment shaped like the barbell proof: rungs {a,b}/{a,b,c}.
        h = line_graph(fam("barbell(4,4,1)"))
        # vertex ids follow lexicographic edge order of the barbell
        g = fam("barbell(4,4,1)")
        deg3 = [i for i in range(h.n) if h.degree(i) == 3]
        deg2 = [i for i in range(h.n) if h.degree(i) == 2]
        deg4 = [i for i in range(h.n) if h.degree(i) == 4]
        lists = [None] * h.n
        for i in deg2:
            lists[i] = {1, 2}
        for i in deg3:
            lists[i] = {1, 2, 3}
        for i in deg4:
            lists[i] = {1, 2, 3, 4}
        lists = make_lists(lists)
        v = deg3[0]
        constraint = ClassConstraint.fix(v, 3)
        verdict = subset_mixes(h, lists, constraint)
        assert verdict.mixes and not verdict.empty
        # independent confirmation: explicit path between two members
        members = [phi for phi in enumerate_L_colorings(h, lists) if phi[v] == 3]
        assert len(members) >= 2
        moves = equivalence_path(h, lists, members[0], members[-1])
        assert moves is not None
        assert apply_moves(h, lists, members[0], moves) == members[-1]


class TestClassConstraint:
    def test_union_and_intersection_semantics(self):
        a = ClassConstraint.fix(0, 1)
        b = ClassConstraint.fix(1, 2)
        both = a.intersect(b)
        either = a.union(b)
        phi_a = (1, 3)
        phi_b = (2, 2)
        phi_ab = (1, 2)
        assert both.satisfied(phi_ab) and not both.satisfied(phi_a)
        assert either.satisfied(phi_a) and either.satisfied(phi_b)
        assert not either.satisfied((3, 3))

    def test_contradictory_intersection_is_empty(self):
        a = ClassConstraint.fix(0, 1)
        b = ClassConstraint.fix(0, 2)
        assert a.intersect(b).clauses == frozenset()


class TestCoverCertificate:
    def test_single_class_everything_on_swappable_instance(self):
        g = fam("cycle(4)")
        lists = make_lists([{1, 2, 3}] * 4)
        verdict = cover_certificate(g, lists, [ClassConstraint.everything()])
        assert verdict.certified

    def test_frozen_c4_two_singletons_fail_chaining(self):
        g = fam("cycle(4)")
        phi1, phi2 = enumerate_L_colorings(g, FROZEN_C4_LISTS)
        classes = [ClassConstraint.fix(0, phi1[0]), ClassConstraint.fix(0, phi2[0])]
        verdict = cover_certificate(g, FROZEN_C4_LISTS, classes)
        assert not verdict.certified
        assert verdict.failure == "no earlier class intersects this one"

    def test_certified_implies_one_mixing_class(self):
        g = fam("cycle(5)")
        lists = make_lists([{1, 2, 3}] * 5)
        classes = [ClassConstraint.fix(0, c) for c in (1, 2, 3)]
        verdict = cover_certificate(g, lists, classes)
        if verdict.certified:
            assert mixing_classes(g, lists).class_count == 1

    def test_k4k2_proof_partition_certifies(self):
        # All-equal 4-lists; D_{i,j} = union over colors a of
        # {phi(v_i) = a = phi(w_j)}; vertex (a,b) of the product has id 2a+b.
        # The chain D12, D23, D14, D32, D13 links consecutive classes, and
        # D12 u D13 u D14 covers everything (phi(v_1) appears on some w_j,
        # never on w_1).
        g = cartesian_product(fam("clique(4)"), fam("clique(2)"))
        lists = make_lists([{1, 2, 3, 4}] * 8)
        v = [0, 2, 4, 6]  # (i, 0)
        w = [1, 3, 5, 7]  # (i, 1)

        def d(i, j):
            out = ClassConstraint(frozenset())
            for a in (1, 2, 3, 4):
                out = out.union(
                    ClassConstraint.conjunction([(v[i - 1], a), (w[j - 1], a)]))
            return out

        classes = [d(1, 2), d(2, 3), d(1, 4), d(3, 2), d(1, 3)]
        verdict = cover_certificate(g, lists, classes)
        assert verdict.certified, verdict
        assert mixing_classes(g, lists).class_count == 1


class TestCorollaryOrdering:
    def test_slack_order_implies_one_class(self):
        # Degree lists plus one slack color anywhere: always swappable.
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randrange(3, 6)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            g = from_edges(n, edges)
            if g.min_degree() < 1:
                continue
            from kempe.graphs import is_connected
            if not is_connected(g):
                continue
            lists = [set(rng.sample(range(1, 6), g.degree(v))) for v in range(n)]
            slack_vertex = rng.randrange(n)
            lists[slack_vertex] |= {7}
            sizes = [len(s) for s in lists]
            if slack_order(g, sizes) is None:
                continue
            assert is_L_swappable(g, make_lists(lists))

"""Canonical assignment streams and the lemma-verification harnesses."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from kempe.coloring import make_lists
from kempe.errors import ParameterError
from kempe.graphs import generate, line_graph, parse_family
from kempe.reconfig import mixing_classes
from kempe.verify import (
    DEFAULT_MAX_ASSIGNMENTS,
    AssignmentStream,
    canonicalize_assignment,
    count_assignment_orbits_reference,
    degree_swappable_verdict,
    enumerate_degree_assignments,
    f_swappable_verdict,
    frozen_colorings,
    slack_order,
    verify_lemma,
)


def fam(text):
    return generate(parse_family(text))


class TestCanonicalStream:
    def test_single_edge_two_assignments(self):
        stream = AssignmentStream(sizes=(1, 1), cap=2)
        out = list(enumerate_degree_assignments(stream))
        assert out == [(frozenset({1}), frozenset({1})),
                       (frozenset({1}), frozenset({2}))]

    def test_counts_match_independent_orbit_count(self):
        for sizes, cap in [((2, 2, 2, 2), 4), ((1, 2, 2), 3), ((2, 2, 3), 4),
                           ((1, 1, 1), 3), ((2, 3), 4)]:
            stream = AssignmentStream(sizes=sizes, cap=cap)
            ours = sum(1 for _ in enumerate_degree_assignments(stream))
            assert ours == count_assignment_orbits_reference(sizes, cap), (sizes, cap)

    def test_k3_includes_all_equal_two_lists(self):
        stream = AssignmentStream(sizes=(2, 2, 2), cap=3)
        assert (frozenset({1, 2}),) * 3 in list(enumerate_degree_assignments(stream))

    def test_all_emitted_are_canonical_and_unique(self):
        stream = AssignmentStream(sizes=(2, 2, 2), cap=4)
        out = list(enumerate_degree_assignments(stream))
        assert len(set(out)) == len(out)
        for lists in out:
            assert canonicalize_assignment(lists, 4) == lists

    def test_canonicalize_lands_in_exhaustive_stream(self):
        import random
        rng = random.Random(3)
        stream_set = set(enumerate_degree_assignments(AssignmentStream((2, 2, 3), 4)))
        for _ in range(50):
            raw = [frozenset(rng.sample(range(1, 5), s)) for s in (2, 2, 3)]
            assert canonicalize_assignment(raw, 4) in stream_set

    def test_sampled_mode_deterministic_and_canonical(self):
        stream = AssignmentStream(sizes=(2, 2, 2, 2), cap=4, sample=25, seed=9)
        one = list(enumerate_degree_assignments(stream))
        two = list(enumerate_degree_assignments(stream))
        assert one == two and len(one) == 25
        for lists in one:
            assert canonicalize_assignment(lists, 4) == lists

    def test_cap_below_size_rejected(self):
        with pytest.raises(ParameterError):
            list(enumerate_degree_assignments(AssignmentStream((3, 1), 2)))

    def test_gap_free_color_introduction(self):
        for lists in enumerate_degree_assignments(AssignmentStream((2, 1, 3), 4)):
            seen: set[int] = set()
            for s in lists:
                for c in sorted(s):
                    assert c <= len(seen) + 1 or c in seen
                    seen.add(c)


class TestDegreeSwappableVerdict:
    def test_c4_counterexample_found_and_replays(self):
        g = fam("cycle(4)")
        report = degree_swappable_verdict(g, cap=4)
        assert report.verdict == "counterexample"
        assert mixing_classes(g, report.counterexample).class_count >= 2

    def test_paper_frozen_assignment_is_counterexample(self):
        g = fam("cycle(4)")
        paper = canonicalize_assignment(
            [{1, 2}, {2, 3}, {3, 4}, {4, 1}], 4)
        report = mixing_classes(g, paper)
        assert report.class_count == 2 and len(report.frozen) == 2

    def test_every_even_cycle_has_counterexample(self):
        for n in (4, 6, 8):
            report = degree_swappable_verdict(fam(f"cycle({n})"), cap=4)
            assert report.verdict == "counterexample", n

    def test_barbell_line_graph_verified(self):
        h = line_graph(fam("barbell(4,4,0)"))
        report = degree_swappable_verdict(h, cap=4)
        assert report.verdict == "verified"
        assert report.assignments_checked == 60

    def test_budget_reported(self):
        report = degree_swappable_verdict(fam("cycle(6)"), cap=4, max_assignments=2)
        assert report.verdict in ("budget-exceeded", "counterexample")

    @pytest.mark.parametrize("lemma, graph, budget, verdict", [
        (None, "barbell", DEFAULT_MAX_ASSIGNMENTS, "verified"),
        (None, "cycle(6)", DEFAULT_MAX_ASSIGNMENTS, "counterexample"),
        (None, "barbell", 17, "budget-exceeded"),
        (None, "barbell", 0, "budget-exceeded"),
        ("cor-fix-one", "theta(1,3,3)", DEFAULT_MAX_ASSIGNMENTS, "verified"),
        ("cor-fix-one", "theta(1,3,3)", 17, "budget-exceeded"),
        ("big-intersection", "clique(4)", DEFAULT_MAX_ASSIGNMENTS, "verified"),
    ], ids=["verified", "counterexample", "budget-exceeded", "zero-budget",
            "cor-fix-one", "cor-fix-one-budget", "big-intersection"])
    def test_workers_give_identical_reports(self, lemma, graph, budget, verdict):
        # The lemma cases run a checker of their own, which goes to the pool too.
        def run(workers):
            if lemma is not None:
                return verify_lemma(lemma, graph, cap=4, max_assignments=budget, workers=workers)
            g = line_graph(fam("barbell(4,4,0)")) if graph == "barbell" else fam(graph)
            return degree_swappable_verdict(g, cap=4, max_assignments=budget, workers=workers)

        seq, par = run(1), run(2)
        assert seq.verdict == verdict
        assert dataclasses.replace(seq, runtime=0.0) == dataclasses.replace(par, runtime=0.0)


class TestVerifyLemma:
    def test_unknown_id_rejected(self):
        with pytest.raises(ParameterError, match="unknown lemma"):
            verify_lemma("no-such-lemma")

    def test_prism_excluded_instance(self):
        with pytest.raises(ParameterError, match="excluded"):
            verify_lemma("prism", "prism(1,1,1)")

    def test_prism_small_verified(self):
        report = verify_lemma("prism", "prism(2,1,1)", cap=4)
        assert report.verdict == "verified"

    def test_barbell_rejects_odd_cycles(self):
        with pytest.raises(ParameterError, match="bipartite"):
            verify_lemma("barbell", "barbell(3,4,0)")

    def test_short_theta_requires_length_one_path(self):
        with pytest.raises(ParameterError, match="length 1"):
            verify_lemma("short-theta", "theta(2,2,2)")
        with pytest.raises(ParameterError, match="bipartite"):
            verify_lemma("short-theta", "theta(1,2,3)")

    def test_short_theta_verified(self):
        report = verify_lemma("short-theta", "theta(1,3,3)", cap=4)
        assert report.verdict == "verified"

    def test_k4k2_sampled(self):
        report = verify_lemma("k4k2", cap=6, sample=40, seed=5)
        assert report.verdict == "verified"
        assert report.assignments_checked == 40
        assert "seed=5" in report.summary()

    def test_big_intersection_on_k4(self):
        report = verify_lemma("big-intersection", "clique(4)", cap=4)
        assert report.verdict == "verified"

    def test_cor_order(self):
        report = verify_lemma("cor-order", "cycle(4)", cap=4)
        assert report.verdict == "verified"

    def test_cor_fix_one_and_two(self):
        assert verify_lemma("cor-fix-one", "cycle(4)", cap=4).verdict == "verified"
        assert verify_lemma("cor-fix-two", "theta(1,2,2)", cap=4).verdict == "verified"

    def test_reduc_schedule_runs(self):
        report = verify_lemma("reduc-lem", cap=3, max_assignments=40)
        assert report.lemma_id == "reduc-lem"
        assert "barbell" in report.detail


class TestFrozenColorings:
    def test_frozen_c4(self):
        g = fam("cycle(4)")
        lists = make_lists([{1, 2}, {2, 3}, {3, 4}, {4, 1}])
        assert frozen_colorings(g, lists) == [(1, 2, 3, 4), (2, 3, 4, 1)]

    def test_k3_full_lists_unfrozen(self):
        g = fam("clique(3)")
        assert frozen_colorings(g, make_lists([{1, 2, 3}] * 3)) == []

    def test_slack_everywhere_unfrozen(self):
        # One extra color over the degree at every vertex: an elimination
        # order exists, so no coloring can be frozen.
        for text in ("cycle(5)", "path(4)", "clique(3)"):
            g = fam(text)
            lists = make_lists([set(range(1, g.degree(v) + 2)) for v in range(g.n)])
            order_sizes = [g.degree(v) + 1 for v in range(g.n)]
            assert slack_order(g, order_sizes) is not None
            assert frozen_colorings(g, lists) == []


class TestSlackOrder:
    def test_exists_with_slack(self):
        g = fam("cycle(4)")
        assert slack_order(g, (3, 2, 2, 2)) is not None

    def test_missing_without_slack(self):
        g = fam("clique(3)")
        assert slack_order(g, (1, 1, 1)) is None

    def test_order_property_holds(self):
        g = fam("barbell(4,4,1)")
        sizes = tuple(g.degree(v) + (1 if v == 2 else 0) for v in range(g.n))
        order = slack_order(g, sizes)
        assert order is not None
        pos = {v: i for i, v in enumerate(order)}
        for v in range(g.n):
            earlier = sum(1 for w in g.adj[v] if pos[w] < pos[v])
            assert earlier < sizes[v]

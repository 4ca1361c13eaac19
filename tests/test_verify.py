"""Canonical assignment streams and the lemma-verification harnesses."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import kempe.verify
from kempe.coloring import DEFAULT_MAX_COLORINGS, make_lists
from kempe.errors import ParameterError
from kempe.graphs import automorphisms, from_edges, generate, is_connected, line_graph, parse_family
from kempe.reconfig import (
    ClassConstraint,
    ReconfigSpace,
    is_L_swappable,
    mixing_classes,
    subset_mixes,
)
from kempe.verify import (
    _cor_fix_one_failure,
    _cor_fix_two_failure,
    DEFAULT_MAX_ASSIGNMENTS,
    MAX_CAP,
    AssignmentStream,
    canonicalize_assignment,
    canonicalize_assignment_reference,
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

    def test_lead_tables_agree_with_every_permutation(self):
        # Seeded random draws at caps 3-6, with a first list of every size
        # from 0 to the cap, and later lists of any size.
        rng = random.Random(21)
        for cap in range(3, 7):
            for first in range(cap + 1):
                for _ in range(60):
                    lists = [frozenset(rng.sample(range(1, cap + 1), first))]
                    lists += [frozenset(rng.sample(range(1, cap + 1), rng.randrange(cap + 1)))
                              for _ in range(rng.randrange(7))]
                    assert canonicalize_assignment(lists, cap) == \
                        canonicalize_assignment_reference(lists, cap), (lists, cap)
        assert canonicalize_assignment([], 4) == canonicalize_assignment_reference([], 4) == ()

    def test_cap_below_size_rejected(self):
        with pytest.raises(ParameterError):
            list(enumerate_degree_assignments(AssignmentStream((3, 1), 2)))

    @pytest.mark.parametrize("canon", [canonicalize_assignment, canonicalize_assignment_reference])
    @pytest.mark.parametrize("lists, match", [
        ([frozenset({0, 1})], "below 1"),
        ([frozenset({1, 2}), frozenset({-1, 3})], "below 1"),
        ([frozenset({1, 4})], "above the cap 3"),
    ])
    def test_colors_outside_one_to_cap_are_parameter_errors(self, canon, lists, match):
        with pytest.raises(ParameterError, match=match):
            canon(lists, 3)

    def test_oversized_cap_and_short_sizes_rejected_before_any_table(self):
        cap = MAX_CAP + 1
        for lists in ([{1}], []):
            with pytest.raises(ParameterError, match=f"cap {cap} is above {MAX_CAP}"):
                canonicalize_assignment(lists, cap)
        for sample in (None, 3):
            with pytest.raises(ParameterError, match=f"cap {cap} is above"):
                next(enumerate_degree_assignments(AssignmentStream((1, 1), cap, sample=sample)))
        with pytest.raises(ParameterError, match="covers 3 vertices, graph has 4"):
            f_swappable_verdict(fam("cycle(4)"), (2, 2, 2), cap=4)
        # A list size of 9 raises the cap to 9 without being asked.
        with pytest.raises(ParameterError, match="cap 9 is above"):
            f_swappable_verdict(fam("cycle(3)"), (9, 1, 1), cap=4, workers=2)

    @pytest.mark.parametrize("sizes, graph", [
        ((2, 1, 3), None), ((1, 1, 1, 1), None), ((1, 2, 2, 1), None),
        ((1, 2, 1), "path(3)"), ((1, 1, 1, 1), "cycle(4)"), ((2, 1, 2, 1), "cycle(4)"),
    ])
    def test_stabiliser_prefix_test_counts_orbits_at_cap_5(self, sizes, graph):
        # The stream narrows the color permutations to the stabiliser of
        # each prefix; here the first list is smaller than the cap, so its
        # stabiliser is not the whole group.  With a graph, its
        # automorphisms that keep the sizes mark the non-least assignments
        # as None.
        group = [] if graph is None else [
            s for s in list(automorphisms(fam(graph)))[1:]
            if all(sizes[v] == sizes[w] for v, w in enumerate(s))]
        out = list(enumerate_degree_assignments(AssignmentStream(sizes, 5), group))
        assert len(out) == count_assignment_orbits_reference(sizes, 5)
        kept = [lists for lists in out if lists is not None]
        assert len(kept) == count_assignment_orbits_reference(sizes, 5, group=group)
        assert len(kept) < len(out) or not group

    def test_every_exhaustive_item_is_its_own_reference_form(self):
        for sizes, caps in [((2, 1, 3), (3, 4, 5)), ((1, 1, 1, 1), (3, 4, 5)),
                            ((2, 2, 2, 2), (3, 4, 5)), ((3, 1, 2), (3, 4, 5)),
                            ((4, 2, 2, 1), (4, 5)), ((5, 1, 3), (5,))]:
            for cap in caps:
                out = list(enumerate_degree_assignments(AssignmentStream(sizes, cap)))
                assert out, (sizes, cap)
                for lists in out:
                    assert canonicalize_assignment_reference(lists, cap) == lists, (lists, cap)

    @pytest.mark.parametrize("sizes, cap", [
        ((3, 1, 2), 3), ((4, 2, 1), 4), ((5, 2, 1), 5),  # the first list fills the universe
        ((2, 2, 1), 3), ((2, 1, 3, 1), 4), ((2, 1, 3, 1), 5),
    ])
    def test_stream_is_the_sorted_reference_forms(self, sizes, cap):
        # The orbit skip in f_swappable_verdict relies on this order: the
        # stream yields every least image once, in increasing mask order.
        forms = {_masks(canonicalize_assignment_reference([frozenset(c) for c in raw], cap))
                 for raw in itertools.product(*[itertools.combinations(range(1, cap + 1), s)
                                                for s in sizes])}
        out = enumerate_degree_assignments(AssignmentStream(sizes, cap))
        assert [_masks(lists) for lists in out] == sorted(forms)

    def test_group_orbit_count_reference(self):
        # One color per vertex of the path 0-1-2 at cap 3: the Sym(3) orbits
        # are the 5 set partitions of the vertices.  Reversing the path maps
        # {0,1 | 2} to {1,2 | 0}, which leaves 4.
        reverse = (2, 1, 0)
        assert count_assignment_orbits_reference((1, 1, 1), 3) == 5
        assert count_assignment_orbits_reference((1, 1, 1), 3, group=[reverse]) == 4
        assert list(automorphisms(fam("path(3)"))) == [(0, 1, 2), reverse]

    def test_group_marks_every_non_least_assignment(self):
        # With a group, the stream yields the same assignments in the same
        # order, and None in place of exactly those that are not the least
        # of their orbit under the group and color permutation.
        g = line_graph(fam("theta(1,3,3)"))
        group = list(automorphisms(g))[1:]
        spec = AssignmentStream(g.degrees(), 4)
        plain = list(enumerate_degree_assignments(spec))
        marked = list(enumerate_degree_assignments(spec, group))
        assert len(plain) == len(marked) == 400
        seen = set()
        for lists, mark in zip(plain, marked):
            images = [canonicalize_assignment([lists[v] for v in sigma], 4) for sigma in group]
            least = all(_masks(lists) <= _masks(image) for image in images)
            assert mark == (lists if least else None)
            assert least == (lists not in seen)
            seen.update(images + [lists])
        with pytest.raises(ParameterError, match="exhaustive"):
            next(enumerate_degree_assignments(dataclasses.replace(spec, sample=2), group))

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

    def test_batch_edges_give_identical_reports(self):
        # A planted failure and a budget at the last assignment of each batch
        # and at the first of the next.  Batches start at 8 per worker and
        # double up to _BATCH per worker.
        g = fam("path(6)")
        sizes = (2,) * g.n
        stream = list(enumerate_degree_assignments(AssignmentStream(sizes, 4)))
        never = functools.partial(_fails_on, None)
        for workers in (1, 2):
            ends, size = [0], 8 * workers
            while ends[-1] < len(stream):
                ends.append(min(ends[-1] + size, len(stream)))
                size = min(2 * size, kempe.verify._BATCH * workers)
            assert ends[-2] - ends[-3] == kempe.verify._BATCH * workers
            for position in sorted({e + d for e in ends[1:] for d in (0, 1)} - {len(stream) + 1}):
                target = stream[position - 1]
                planted = functools.partial(_fails_on, target)
                report = f_swappable_verdict(g, sizes, cap=4, checker=planted, workers=workers)
                assert (report.verdict, report.assignments_checked,
                        report.counterexample) == ("counterexample", position, target)
                report = f_swappable_verdict(g, sizes, cap=4, max_assignments=position,
                                             checker=never, workers=workers)
                assert (report.verdict, report.assignments_checked) == (
                    "verified" if position == len(stream) else "budget-exceeded", position)


    @pytest.mark.parametrize("family", ["cycle(6)", "cycle(8)"])
    def test_skip_before_a_counterexample_in_one_batch(self, family):
        # At cap 3 the fourth item of the stream fails, and the third is an
        # orbit skip (None); all of them fall in the first batch.  The
        # skip counts as checked, though no check runs on it.
        g = fam(family)
        group = list(automorphisms(g))[1:]
        items = list(itertools.islice(
            enumerate_degree_assignments(AssignmentStream(g.degrees(), 3), group), 8))
        position = next(i for i, lists in enumerate(items, 1)
                        if lists is not None and not is_L_swappable(g, lists))
        assert position == 4 and items[:position].count(None) == 1
        reports = [degree_swappable_verdict(g, cap=3, workers=workers) for workers in (1, 2)]
        for report in reports:
            assert (report.verdict, report.assignments_checked, report.counterexample) == (
                "counterexample", position, items[position - 1])
        assert dataclasses.replace(reports[0], runtime=0.0) == \
            dataclasses.replace(reports[1], runtime=0.0)


def _fails_on(target, g, lists):
    return "planted" if lists == target else None


def _masks(lists):
    return tuple(sum(1 << (c - 1) for c in s) for s in lists)


def _check_every_assignment(g, sizes, cap, max_assignments):
    """The verdict loop without orbit skipping: a swappability check per assignment."""
    stream = enumerate_degree_assignments(AssignmentStream(tuple(sizes), max(cap, *sizes)))
    checked = 0
    for lists in itertools.islice(stream, max_assignments):
        checked += 1
        if not is_L_swappable(g, lists):
            return "counterexample", checked, lists, "not swappable"
    if next(stream, None) is not None:
        return "budget-exceeded", checked, None, f"stopped after {checked} assignments"
    return "verified", checked, None, ""


class TestOrbitSkipping:
    @pytest.mark.parametrize("family, line, slack", [
        ("theta(1,3,3)", True, False), ("prism(2,1,1)", False, False),
        ("barbell(4,4,0)", True, False), ("cycle(5)", False, True),
    ])
    def test_checks_run_equal_the_aut_sym_orbit_count(self, family, line, slack, monkeypatch):
        import kempe.verify

        g = line_graph(fam(family)) if line else fam(family)
        calls = []
        original = kempe.verify.is_L_swappable
        monkeypatch.setattr(kempe.verify, "is_L_swappable",
                            lambda *args: calls.append(1) or original(*args))
        # Slack at vertex 0, as cor-order has it: only the automorphisms
        # that fix vertex 0 keep the sizes.
        sizes = tuple(d + (slack and v == 0) for v, d in enumerate(g.degrees()))
        report = f_swappable_verdict(g, sizes, cap=4)
        group = [s for s in automorphisms(g) if s != tuple(range(g.n))
                 and all(sizes[v] == sizes[w] for v, w in enumerate(s))]
        assert report.verdict == "verified"
        assert report.assignments_checked == count_assignment_orbits_reference(sizes, 4)
        assert len(calls) == count_assignment_orbits_reference(sizes, 4, group=group)
        assert len(calls) < report.assignments_checked

    def test_report_equals_the_check_every_assignment_reference(self):
        # Random connected graphs, with degree sizes or with one vertex of
        # slack (which only the automorphisms fixing its size class keep);
        # the stream is cut at random places, and some runs use 2 workers.
        rng = random.Random(1212)
        verdicts = []
        for trial in range(45):
            n = rng.randrange(3, 7)
            while True:
                g = from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                   if rng.random() < 0.5])
                if is_connected(g):
                    break
            sizes = list(g.degrees())
            if trial % 3 == 0:
                sizes[rng.randrange(n)] += 1
            cap = rng.choice((3, 4)) if max(sizes) <= 3 else 4
            budget = rng.choice((None, None, rng.randrange(1, 40)))
            workers = 2 if trial % 9 == 4 else 1
            report = f_swappable_verdict(g, sizes, cap=cap, max_assignments=budget,
                                         workers=workers)
            expected = _check_every_assignment(g, sizes, cap, budget)
            assert (report.verdict, report.assignments_checked, report.counterexample,
                    report.detail) == expected, (g.adj, sizes, cap, budget)
            verdicts.append(report.verdict)
        assert {"verified", "counterexample", "budget-exceeded"} <= set(verdicts)


# Each run repeats on a fresh pool: a verified run, a budget-cut run and a
# counterexample run.  The pool is idle between batches, so leaving the loop
# terminates it on every path, and no worker outlives its run.
_POOL_RUNS = """
import faulthandler
faulthandler.dump_traceback_later(100, exit=True)  # a hang prints every thread's stack
import multiprocessing

from kempe.graphs import generate, line_graph, parse_family
from kempe.verify import degree_swappable_verdict

theta = line_graph(generate(parse_family("theta(1,3,3)")))
cycle = generate(parse_family("cycle(6)"))
for _ in range(6):
    assert degree_swappable_verdict(theta, cap=4, workers=2).verdict == "verified"
    assert multiprocessing.active_children() == []
    assert degree_swappable_verdict(theta, cap=4, max_assignments=50,
                                    workers=2).verdict == "budget-exceeded"
    assert multiprocessing.active_children() == []
    assert degree_swappable_verdict(cycle, cap=3, workers=2).verdict == "counterexample"
    assert multiprocessing.active_children() == []
print("done")
"""


class TestPoolExit:
    def test_two_worker_runs_always_return(self):
        src = str(Path(sys.modules["kempe"].__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _POOL_RUNS], capture_output=True,
                              text=True, timeout=120, env=env)
        assert (proc.returncode, proc.stdout) == (0, "done\n"), proc.stderr

    def test_only_the_main_thread_reads_the_stream(self, monkeypatch):
        drawn_by = []
        stream = kempe.verify.enumerate_degree_assignments

        def recorded(*args, **kwargs):
            for lists in stream(*args, **kwargs):
                drawn_by.append(threading.current_thread().name)
                yield lists

        monkeypatch.setattr(kempe.verify, "enumerate_degree_assignments", recorded)
        theta = line_graph(fam("theta(1,3,3)"))
        verdicts = [degree_swappable_verdict(theta, cap=4, workers=2).verdict,
                    degree_swappable_verdict(theta, cap=4, max_assignments=50,
                                             workers=2).verdict,
                    degree_swappable_verdict(fam("cycle(6)"), cap=3, workers=2).verdict]
        assert verdicts == ["verified", "budget-exceeded", "counterexample"]
        assert drawn_by and set(drawn_by) == {"MainThread"}


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

    def test_pruned_search_equals_the_filter_over_every_coloring(self):
        # The pruned search against the unpruned filter, is_frozen on every
        # coloring, in the same order.  Named corners first: the frozen
        # 4-cycle of criterion 1, the empty graph, isolated vertices and
        # lists shorter than the degree; then seeded random graphs with tight
        # lists (size = degree, where colorings freeze), slack lists and
        # short lists.
        corners = [
            (fam("cycle(4)"), [{1, 2}, {2, 3}, {3, 4}, {4, 1}]),
            (from_edges(0, []), []),
            (from_edges(3, []), [{1}, {1, 2}, {2, 3}]),
            (from_edges(4, [(0, 1)]), [{2}, {1, 2}, {5}, {1, 3}]),
            (fam("clique(4)"), [{1, 2}, {2, 3}, {1, 3}, {1, 2, 3}]),
            (fam("cycle(5)"), [{1, 2}] * 5),
        ]
        rng = random.Random(1515)
        cases, with_frozen = 0, 0
        while cases < 1200:
            if corners:
                g, lists = corners.pop(0)
            else:
                n, p = rng.randrange(1, 9), rng.choice((0.2, 0.4, 0.6))
                g = from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                   if rng.random() < p])
                palette = range(1, rng.randrange(3, 8))
                kind = cases % 3
                sizes = [max(1, min(len(palette), g.degree(v) + (kind == 1)
                                    - (kind == 2) * rng.randrange(0, 3)))
                         for v in range(n)]
                if math.prod(sizes) > 4000:
                    continue
                lists = [rng.sample(palette, size) for size in sizes]
            lists = make_lists(lists)
            space = ReconfigSpace(g, lists)
            expected = [phi for phi in space.colorings if space.is_frozen(phi)]
            assert frozen_colorings(g, lists) == expected, (g.adj, lists)
            cases += 1
            with_frozen += bool(expected)
        assert with_frozen >= 200


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


def _full_loop_fix_one(g, lists, targets):
    """The cor-fix-one failure by the subset loop over the full partition, whatever its size."""
    report = mixing_classes(g, lists)
    for v in targets:
        for alpha in sorted(lists[v]):
            if any(alpha not in lists[w] for w in g.adj[v]):
                if not subset_mixes(g, lists, ClassConstraint.fix(v, alpha), report=report).mixes:
                    return f"L_({v},{alpha}) does not mix"
    return None


def _full_loop_fix_two(g, lists, triples):
    """The cor-fix-two failure by the subset loop over the full partition, whatever its size."""
    report = mixing_classes(g, lists)
    for v, _, x in triples:
        for alpha in sorted(lists[v] & lists[x]):
            constraint = ClassConstraint.conjunction([(v, alpha), (x, alpha)])
            if not subset_mixes(g, lists, constraint, report=report).mixes:
                return f"L_({v},{alpha}) ^ L_({x},{alpha}) does not mix"
    return None


class TestCorFixFailures:
    def test_single_class_shortcut_gives_the_full_loop_failure(self):
        # Random graphs and lists, many of them not swappable: the failure
        # string must be the full subset loop's, None included.
        rng = random.Random(1010)
        swappable, failures = 0, 0
        for _ in range(150):
            n = rng.randrange(3, 7)
            g = from_edges(n, [e for e in itertools.combinations(range(n), 2)
                               if rng.random() < 0.5])
            top = rng.randrange(2, 5)
            lists = make_lists([rng.sample(range(1, top + 1), rng.randrange(1, top + 1))
                                for _ in range(n)])
            targets = list(range(n))
            triples = [(v, w, x) for w in range(n)
                       for v, x in itertools.combinations(g.adj[w], 2) if not g.has_edge(v, x)]
            one = _cor_fix_one_failure(g, lists, targets, DEFAULT_MAX_COLORINGS)
            two = _cor_fix_two_failure(g, lists, triples, DEFAULT_MAX_COLORINGS)
            assert one == _full_loop_fix_one(g, lists, targets)
            assert two == _full_loop_fix_two(g, lists, triples)
            swappable += is_L_swappable(g, lists)
            failures += (one is not None) + (two is not None)
        assert 0 < swappable < 150 and failures > 0

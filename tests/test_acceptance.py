"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them live);
a failing assertion is the FAIL signal.  Wall-clock limits follow the stated
budgets.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from plane_corpus import platonic_solids, random_plane_min2, random_triangulation, wheel

from kempe.coloring import (
    SwapMove,
    apply_moves,
    classify_swap,
    enumerate_L_colorings,
    make_lists,
)
from kempe.errors import ParameterError
from kempe.graphs import (
    cartesian_product,
    from_edges,
    generate,
    is_connected,
    is_gallai_tree,
    is_isomorphic,
    line_graph,
    parse_family,
)
from kempe.planar import structural_audit
from kempe.discharging import run_discharging
from kempe.reconfig import (
    ClassConstraint,
    cover_certificate,
    lift_through_subgraph,
    lift_through_vertex,
    mixing_classes,
)
from kempe.verify import (
    degree_swappable_verdict,
    f_swappable_verdict,
    is_degree_choosable,
    verify_lemma,
)

from test_lifting import random_walk_moves, restricted


def fam(text):
    return generate(parse_family(text))


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


class Stopwatch:
    def __init__(self, limit_s):
        self.limit = limit_s
        self.t0 = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit, f"time budget exceeded: {elapsed:.1f}s >= {self.limit}s"
        return elapsed


def test_criterion_1_frozen_4_cycle():
    clock = Stopwatch(1.0)
    g = fam("cycle(4)")
    lists = make_lists([{1, 2}, {2, 3}, {3, 4}, {4, 1}])
    result = mixing_classes(g, lists)
    assert result.total == 2
    assert result.class_count == 2
    assert len(result.frozen) == 2
    assert set(result.frozen) == set(result.colorings)
    elapsed = clock.check()
    report(1, f"frozen 4-cycle: 2 colorings, 2 classes, both frozen ({elapsed:.2f}s)")


def test_criterion_2_single_edge_swap():
    clock = Stopwatch(1.0)
    g = from_edges(2, [(0, 1)])
    lists = make_lists([{1, 2}, {1, 3}])
    outcome = classify_swap(g, lists, (1, 3), SwapMove(1, (1, 3)))
    assert not outcome.valid
    assert outcome.violator == 0
    elapsed = clock.check()
    report(2, f"single-edge 1,3-swap at w invalid, v named as violator ({elapsed:.2f}s)")


@pytest.mark.parametrize("n", [4, 6, 8])
def test_criterion_3_no_cycle_degree_swappable(n):
    clock = Stopwatch(10.0)
    verdict = degree_swappable_verdict(fam(f"cycle({n})"), cap=4)
    assert verdict.verdict == "counterexample"
    assert mixing_classes(fam(f"cycle({n})"), verdict.counterexample).class_count >= 2
    elapsed = clock.check()
    report(3, f"C{n} counterexample assignment found exhaustively at cap 4 "
              f"({elapsed:.2f}s)")


def test_criterion_4_k3k2_exception():
    clock = Stopwatch(10.0)
    g = cartesian_product(fam("clique(3)"), fam("clique(2)"))
    result = mixing_classes(g, make_lists([{1, 2, 3}] * 6))
    assert result.class_count >= 2
    elapsed = clock.check()
    report(4, f"K3xK2 with lists {{1,2,3}}: {result.class_count} classes "
              f"({elapsed:.2f}s)")


def test_criterion_5_barbell_lemma():
    clock = Stopwatch(15 * 60)
    checked = 0
    for spec in ("barbell(4,4,0)", "barbell(4,4,1)"):
        h = line_graph(fam(spec))
        exhaustive = degree_swappable_verdict(h, cap=4, instance=spec)
        assert exhaustive.verdict == "verified", spec
        sampled = degree_swappable_verdict(h, cap=6, sample=1000, seed=20260810,
                                           instance=spec)
        assert sampled.verdict == "verified", spec
        checked += exhaustive.assignments_checked + sampled.assignments_checked
    elapsed = clock.check()
    report(5, f"barbell line graphs degree-swappable: exhaustive cap 4 plus "
              f"1000 samples at cap 6 each, {checked} assignments ({elapsed:.1f}s)")


def test_criterion_6_k4k2_lemma():
    clock = Stopwatch(15 * 60)
    g = cartesian_product(fam("clique(4)"), fam("clique(2)"))
    sampled = f_swappable_verdict(g, (4,) * 8, cap=6, sample=1000, seed=20260810,
                                  lemma_id="k4k2", instance="K4xK2")
    assert sampled.verdict == "verified"
    all_equal = make_lists([{1, 2, 3, 4}] * 8)
    assert mixing_classes(g, all_equal).class_count == 1

    # the proof's structured partition: D_{i,j} classes chained as in the text
    v = [0, 2, 4, 6]
    w = [1, 3, 5, 7]

    def d(i, j):
        out = ClassConstraint(frozenset())
        for a in (1, 2, 3, 4):
            out = out.union(ClassConstraint.conjunction([(v[i - 1], a), (w[j - 1], a)]))
        return out

    verdict = cover_certificate(g, all_equal, [d(1, 2), d(2, 3), d(1, 4), d(3, 2), d(1, 3)])
    assert verdict.certified
    elapsed = clock.check()
    report(6, f"K4xK2 4-swappable: 1000 seeded 4-assignments over universe 6, "
              f"all-equal lists, and the proof partition certified ({elapsed:.1f}s)")


def test_criterion_7_short_theta_and_prisms():
    clock = Stopwatch(30 * 60)
    with pytest.raises(ParameterError):
        verify_lemma("prism", "prism(1,1,1)")
    checked = 0
    jobs = [("short-theta", "theta(1,3,3)"),
            ("prism", "prism(2,1,1)"), ("prism", "prism(2,2,1)"),
            ("prism", "prism(2,2,2)")]
    for lemma_id, instance in jobs:
        exhaustive = verify_lemma(lemma_id, instance, cap=4)
        assert exhaustive.verdict == "verified", instance
        sampled = verify_lemma(lemma_id, instance, cap=6, sample=500, seed=20260810)
        assert sampled.verdict == "verified", instance
        checked += exhaustive.assignments_checked + sampled.assignments_checked
    elapsed = clock.check()
    report(7, f"short-theta and prism lemmas verified, prism(1,1,1) rejected; "
              f"{checked} assignments ({elapsed:.1f}s)")


def test_criterion_8_line_graph_k24_is_k4k2():
    clock = Stopwatch(1.0)
    lg = line_graph(fam("complete_bipartite(2,4)"))
    product = cartesian_product(fam("clique(4)"), fam("clique(2)"))
    mapping = is_isomorphic(lg, product)
    assert mapping is not None
    mapped = sorted((min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                    for u, v in lg.edges())
    assert mapped == sorted(product.edges())
    elapsed = clock.check()
    report(8, f"line graph of K_2,4 isomorphic to K4xK2, witness verified "
              f"({elapsed:.2f}s)")


def test_criterion_9_ert_cross_check():
    clock = Stopwatch(5 * 60)
    corpus = []
    for text in ("cycle(3)", "cycle(4)", "cycle(5)", "cycle(6)", "cycle(7)",
                 "path(2)", "path(3)", "path(4)", "path(5)", "path(6)", "path(7)",
                 "clique(2)", "clique(3)", "clique(4)", "clique(5)", "clique(6)",
                 "clique(7)", "star(2)", "star(3)", "star(4)", "star(5)", "star(6)",
                 "complete_bipartite(1,3)", "complete_bipartite(2,2)",
                 "complete_bipartite(2,3)", "complete_bipartite(2,4)",
                 "complete_bipartite(2,5)", "complete_bipartite(3,3)",
                 "complete_bipartite(3,4)", "theta(1,2,2)", "theta(1,3,3)",
                 "theta(2,2,2)", "theta(2,2,3)", "theta(1,2,4)", "theta(2,3,3)",
                 "barbell(3,3,0)", "barbell(3,3,1)", "barbell(3,4,0)",
                 "barbell(4,4,0)", "barbell(3,3,2)", "barbell(3,4,1)",
                 "prism(1,1,1)"):
        corpus.append(fam(text))
    rng = random.Random(20260810)
    while len(corpus) < 55:
        n = rng.randrange(3, 8)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.45]
        try:
            g = from_edges(n, edges)
        except ParameterError:
            continue
        if not is_connected(g) or g.min_degree() < 1 or g.n > 7:
            continue
        corpus.append(g)
    disagreements = 0
    for g in corpus:
        choosable = is_degree_choosable(g, cap=4).degree_choosable
        gallai = is_gallai_tree(g).is_gallai_tree
        if choosable != (not gallai):
            disagreements += 1
    assert disagreements == 0
    elapsed = clock.check()
    report(9, f"ERT cross-check on {len(corpus)} connected graphs <= 7 vertices: "
              f"0 disagreements ({elapsed:.1f}s)")


def test_criterion_10_lifting():
    clock = Stopwatch(5 * 60)
    rng = random.Random(20260810)
    done = 0
    while done < 100:
        n = rng.randrange(4, 9)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.45]
        try:
            g = from_edges(n, edges)
        except ParameterError:
            continue
        if not is_connected(g):
            continue
        v = rng.randrange(n)
        lists = [set(rng.sample(range(1, 10), max(g.degree(x) + (1 if x == v else 0), 1)))
                 for x in range(n)]
        lists = make_lists(lists)
        colorings = enumerate_L_colorings(g, lists, 300_000)
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

    # 25 instances with H an even cycle plus a chord (C6 plus antipodal chord)
    sub_done = 0
    while sub_done < 25:
        extra = rng.randrange(2, 4)
        n = 6 + extra
        edges = [(c, c + 1) for c in range(5)] + [(5, 0), (0, 3)]
        # attach the extra vertices as a connected appendage
        for i in range(extra):
            x = 6 + i
            edges.append((x, rng.randrange(6 + i)))
        g = from_edges(n, edges)
        h = set(range(6))
        lists = []
        for x in range(n):
            if x in h:
                lists.append(set(range(1, g.degree(x) + 1)))
            else:
                lists.append(set(rng.sample(range(1, 8), g.degree(x) + 1)))
        lists = make_lists(lists)
        colorings = enumerate_L_colorings(g, lists, 300_000)
        if not colorings:
            continue
        start = colorings[rng.randrange(len(colorings))]
        moves, expected = random_walk_moves(g, lists, start, frozenset(h),
                                            rng.randrange(1, 4), rng)
        if not moves:
            continue
        sub_done += 1
        result = lift_through_subgraph(g, h, lists, start, moves)
        assert apply_moves(g, lists, start, result.moves) == result.final
        assert restricted(result.final, frozenset(h)) == expected
    elapsed = clock.check()
    report(10, f"lifting: 100 vertex instances and 25 chorded-cycle subgraph "
               f"instances replay correctly ({elapsed:.1f}s)")


def test_criterion_11_discharging_corpus():
    clock = Stopwatch(60.0)
    corpus = platonic_solids()
    corpus += [wheel(k) for k in range(4, 11)]
    corpus += [random_triangulation(8 + (s % 13), 1000 + s) for s in range(12)]
    violations = 0
    for pg in corpus:
        for variant in ("lemma1", "lemma2"):
            result = run_discharging(pg, variant)
            if result.total != -8:
                violations += 1
            if any(total != -8 for _, total in result.rule_totals):
                violations += 1
    assert violations == 0
    elapsed = clock.check()
    report(11, f"discharging on {len(corpus)} plane graphs, both variants: "
               f"initial total -8 and exact conservation after every rule "
               f"({elapsed:.1f}s)")


def test_criterion_12_structural_audit_corpus():
    clock = Stopwatch(10 * 60)
    rng = random.Random(20260810)
    none_hold = 0
    audited = 0
    for i in range(200):
        n = rng.randrange(6, 21)
        pg = random_plane_min2(n, seed=31_000 + i)
        assert pg.graph.min_degree() >= 2
        for variant in ("lemma1", "lemma2"):
            result = structural_audit(pg, variant)
            audited += 1
            if not result.witnesses:
                none_hold += 1
                continue
            host = pg.graph
            for witness in result.witnesses:
                witness.validate(host)
    assert none_hold == 0
    elapsed = clock.check()
    report(12, f"structural audit on 200 random plane graphs (delta >= 2, both "
               f"variants, {audited} audits): every report nonempty and every "
               f"witness re-validates ({elapsed:.1f}s)")

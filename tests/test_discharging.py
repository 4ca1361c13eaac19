"""Exact discharging ledgers: initial totals, conservation, rule behavior."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from plane_corpus import (
    cube,
    dodecahedron,
    icosahedron,
    octahedron,
    platonic_solids,
    random_plane_min2,
    random_triangulation,
    tetrahedron,
    wheel,
)

from kempe import discharging
from kempe import io as kio
from kempe.cli import main
from kempe.errors import KempeError, ParameterError, PreconditionError
from kempe.graphs import Graph
from kempe.planar import PlaneGraph, plane_graph_from_faces, trace_faces
from kempe.discharging import ChargeLedger, run_discharging


def k4_minus_edge_embedded() -> PlaneGraph:
    return plane_graph_from_faces(4, [(0, 2, 1), (0, 1, 3), (0, 3, 1, 2)])


CORPUS = platonic_solids() + [wheel(5), wheel(9), k4_minus_edge_embedded(),
                              random_triangulation(12, 1), random_triangulation(18, 2),
                              random_plane_min2(15, 3), random_plane_min2(20, 8)]


class TestInitialCharges:
    def test_icosahedron_initial_arithmetic(self):
        # 12 vertices of degree 5 and 20 triangles: 12*(5-4) + 20*(3-4) = -8.
        report = run_discharging(icosahedron(), "lemma1")
        assert sum(report.initial.values()) == -8
        assert report.total == -8

    def test_total_is_minus_eight_everywhere(self):
        for pg in CORPUS:
            for variant in ("lemma1", "lemma2"):
                report = run_discharging(pg, variant)
                assert report.total == Fraction(-8), variant


class TestConservation:
    def test_every_rule_conserves_total(self):
        for pg in CORPUS:
            for variant in ("lemma1", "lemma2"):
                report = run_discharging(pg, variant)
                for rule, total in report.rule_totals:
                    assert total == Fraction(-8), (variant, rule)

    def test_transfer_log_replays_to_final_state(self):
        pg = random_triangulation(14, 9)
        report = run_discharging(pg, "lemma1")
        g = pg.graph
        faces = trace_faces(pg)
        vertex = [Fraction(g.degree(v) - 4) for v in range(g.n)]
        face = [Fraction(f.length - 4) for f in faces]
        pot = [Fraction(0)] * len(report.pots_vertices)
        buckets = {"v": vertex, "f": face, "pot": pot}
        assert report.initial == {(tag, i): c for tag, charges in buckets.items()
                                  for i, c in enumerate(charges)}
        for t in report.ledger.transfers:
            buckets[t.source[0]][t.source[1]] -= t.amount
            buckets[t.sink[0]][t.sink[1]] += t.amount
        assert vertex == report.ledger.vertex
        assert face == report.ledger.face
        assert pot == report.ledger.pot


    def test_total_equals_a_plain_fraction_sum(self):
        # Random ledgers on the lattice of a random scale, random moves, then
        # total() against a plain Fraction sum over the public charges.
        rng = random.Random(13)

        def units(k, scale):
            return [rng.randrange(-40, 41) * (scale // rng.choice((1, 2, 3, 6)))
                    for _ in range(k)]

        for _ in range(300):
            scale = math.lcm(6, *(2 * d for d in rng.sample(range(5, 16), rng.randrange(0, 4))))
            ledger = ChargeLedger(scale, units(rng.randrange(1, 12), scale),
                                  units(rng.randrange(1, 12), scale),
                                  units(rng.randrange(0, 4), scale))
            if rng.random() < 0.3:
                ledger.units["v"][0] = 0
                ledger.publish()
            before = sum(ledger.vertex + ledger.face + ledger.pot, Fraction(0))
            assert ledger.total() == before
            holders = [(tag, i) for tag, charges in ledger.units.items()
                       for i in range(len(charges))]
            for _ in range(rng.randrange(0, 20)):
                ledger.move(rng.choice(holders), rng.choice(holders),
                            rng.randrange(-3 * scale, 3 * scale), "R1")
            ledger.publish()
            expected = sum(ledger.vertex + ledger.face + ledger.pot, Fraction(0))
            assert ledger.total() == expected == before
            assert ledger.total().denominator == expected.denominator
            assert all(ledger.charge(h) == Fraction(ledger.units[h[0]][h[1]], scale)
                       for h in holders)

    def test_charge_changed_outside_move_is_caught(self, monkeypatch):
        spread = discharging._rule_spread_five_plus

        def leaky_spread(g, ledger, incidence, rule):
            spread(g, ledger, incidence, rule)
            ledger.units["f"][0] += ledger.scale // 3  # not a transfer: 1/3 appears

        monkeypatch.setattr(discharging, "_rule_spread_five_plus", leaky_spread)
        for variant in ("lemma1", "lemma2"):
            with pytest.raises(KempeError, match="charge not conserved after R2: total -23/3"):
                run_discharging(icosahedron(), variant)

    def test_off_lattice_move_is_an_internal_error(self):
        ledger = ChargeLedger(6, [6, -6], [0], [])
        for amount in (Fraction(1, 7), Fraction(6), 0.5, 3.0):
            with pytest.raises(KempeError, match="internal: R1 moves .* units of 1/6, "
                                                 "off the charge lattice"):
                ledger.move(("v", 0), ("f", 0), amount, "R1")
        assert ledger.units == {"v": [6, -6], "f": [0], "pot": []}
        assert ledger.transfers == []

    def test_r2_share_off_the_lattice_is_an_internal_error(self):
        # The hub of wheel(5) has degree 5 and charge 1: six units of 1/6
        # do not split five ways.
        pg = wheel(5)
        g = pg.graph
        faces = trace_faces(pg)
        ledger = ChargeLedger(6, [(g.degree(v) - 4) * 6 for v in range(g.n)],
                              [(f.length - 4) * 6 for f in faces], [])
        incidence = [[(fi, f.vertices().count(v)) for fi, f in enumerate(faces)
                      if v in f.vertices()] for v in range(g.n)]
        with pytest.raises(KempeError, match="internal: R2 splits 1 at vertex 5 5 ways, "
                                             "off the 1/6 charge lattice"):
            discharging._rule_spread_five_plus(g, ledger, incidence, "R2")
        assert ledger.transfers == []


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestDischargeGolden:
    # Full `kempe discharge` stdout, pinned from the Fraction-based ledger.
    # wheel(9) has a 9-vertex hub, so D = 18 and R2's shares are 1/2 each.
    @pytest.mark.parametrize("name, pg, variant", [
        ("wheel9_lemma1", wheel(9), "lemma1"),
        ("k4_minus_edge_lemma2", k4_minus_edge_embedded(), "lemma2"),
        ("plane_min2_20_8_lemma1", random_plane_min2(20, 8), "lemma1"),
        ("plane_min2_20_8_lemma2", random_plane_min2(20, 8), "lemma2"),
    ])
    def test_stdout_is_pinned(self, name, pg, variant, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("plane.rot").write_text(kio.write_rotation_system(pg))
        code = main(["discharge", "--plane", "plane.rot", "--variant", variant])
        assert capsys.readouterr().out == (GOLDEN / f"discharge_{name}.txt").read_text()
        assert code == 1  # each of these ledgers has a negative holder


class TestLemma1Rules:
    def test_icosahedron_r2_spreads_everything(self):
        # No 3-vertices, so R1 is silent; every 5-vertex spreads 1/5 per corner
        # and each triangle ends at -1 + 3/5 = -2/5.
        report = run_discharging(icosahedron(), "lemma1")
        assert all(c == 0 for c in report.ledger.vertex)
        assert all(c == Fraction(-2, 5) for c in report.ledger.face)
        assert report.pots_vertices == ()

    def test_cube_pot_refilled_by_r3_faces_go_negative(self):
        # R1: no senders (the maximum degree is 3), takers drain the pot to -8.
        # R3: every vertex lies on a G3 4-cycle and takes 3 * 1/2 from its
        # three quad faces, refilling the pot to +4; each face ends at -2.
        report = run_discharging(cube(), "lemma1")
        assert all(c == 0 for c in report.ledger.vertex)
        assert all(c == Fraction(-2) for c in report.ledger.face)
        assert report.ledger.pot == [Fraction(4)]
        assert {h for h, _ in report.negative} == {("f", i) for i in range(6)}

    def test_k4_minus_edge_lemma1_hand_ledger(self):
        # Hand trace: takers 0,1 drain the pot by 2; R3 on the 4-cycle of G3
        # pulls 1/2 from the outer quad per 3-vertex and returns it.
        report = run_discharging(k4_minus_edge_embedded(), "lemma1")
        assert report.ledger.vertex == [0, 0, Fraction(-2), Fraction(-2)]
        assert sorted(report.ledger.face) == [Fraction(-1)] * 3
        assert report.ledger.pot == [Fraction(-1)]

    def test_r2_leaves_five_plus_vertices_at_zero(self):
        for pg in (wheel(7), icosahedron(), random_triangulation(16, 5)):
            report = run_discharging(pg, "lemma1")
            g = pg.graph
            for v in range(g.n):
                if g.degree(v) >= 5:
                    assert report.ledger.vertex[v] == 0

    def test_dodecahedron_pot_goes_negative(self):
        # All vertices are 3-vertices; no high-degree senders exist, so the
        # single pot ends deeply negative (C1 holds, no contradiction).
        report = run_discharging(dodecahedron(), "lemma1")
        assert report.ledger.pot[0] < 0
        assert any(h[0] == "pot" for h, _ in report.negative)


class TestLemma2Rules:
    def test_k4_minus_edge_lemma2_hand_ledger(self):
        # Hand trace: the two 2-vertices draw from the pot (-2); R3 gives the
        # 3-vertices 1/3 per corner; R4 gives each 2-vertex 1/3 from its
        # triangle and 2/3 from the alternating outer quad; no surplus for R5.
        report = run_discharging(k4_minus_edge_embedded(), "lemma2")
        assert report.ledger.vertex == [0, 0, 0, 0]
        assert sorted(report.ledger.face) == [Fraction(-2)] * 3
        assert report.ledger.pot == [Fraction(-2)]
        assert report.total == -8

    def test_alternating_quad_detected_in_transfers(self):
        report = run_discharging(k4_minus_edge_embedded(), "lemma2")
        r4_amounts = sorted(t.amount for t in report.ledger.transfers if t.rule == "R4")
        assert r4_amounts == [Fraction(1, 3), Fraction(1, 3),
                              Fraction(2, 3), Fraction(2, 3)]

    def test_k4_minus_edge_lemma2_describe_lines(self):
        # Same hand trace as above, per holder.  Face 2 is the outer quad
        # (0,3,1,2): R3 takes 1/3 at each of the 3-vertices 0 and 1, R4 takes
        # 2/3 at each of the 2-vertices 2 and 3.  Vertex 2 (degree 2) draws 1
        # from the pot in R1 and 1/3 + 2/3 from its two faces in R4.
        report = run_discharging(k4_minus_edge_embedded(), "lemma2")
        lines = report.describe().splitlines()
        assert "vertex 2: initial -2 | R1:+1 R4:+1 | final 0" in lines
        assert "face 2: initial 0 | R3:-2/3 R4:-4/3 | final -2" in lines
        assert "pot 0: initial 0 | R1:-2 | final -2" in lines
        assert "NEGATIVE pot 0: -2" in lines

    def test_icosahedron_lemma2_same_as_lemma1_spread(self):
        report = run_discharging(icosahedron(), "lemma2")
        assert all(c == 0 for c in report.ledger.vertex)
        assert all(c == Fraction(-2, 5) for c in report.ledger.face)


class TestPreconditions:
    def test_disconnected_rejected(self):
        two_triangles = plane_graph_from_faces(
            6, [(0, 1, 2), (2, 1, 0), (3, 4, 5), (5, 4, 3)])
        with pytest.raises(PreconditionError, match="connected"):
            run_discharging(two_triangles, "lemma1")

    def test_min_degree_two_required(self):
        g = Graph(2, ((1,), (0,)))
        pg = PlaneGraph(g, ((1,), (0,)))
        with pytest.raises(PreconditionError, match="degree"):
            run_discharging(pg, "lemma1")

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            run_discharging(tetrahedron(), "lemma3")

    def test_empty_plane_graph_rejected(self):
        with pytest.raises(PreconditionError, match="nonempty"):
            run_discharging(PlaneGraph(Graph(0, ()), ()), "lemma1")


class TestContradictionInvariant:
    def test_negative_holder_or_configuration_everywhere(self):
        # The structural lemmas promise: no configuration implies some holder
        # ends negative.  Equivalently a fully nonnegative ledger must come
        # with a configuration; both ways round is checked on the corpus.
        from kempe.planar import structural_audit
        for pg in CORPUS:
            for variant in ("lemma1", "lemma2"):
                report = run_discharging(pg, variant)
                audit = structural_audit(pg, variant)
                if not report.negative:
                    assert not audit.none_found, "nonnegative ledger without a " \
                        "configuration would refute the structural lemma"
                if audit.none_found:
                    assert report.negative

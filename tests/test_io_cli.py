"""Serialization round-trips and the command-line front end."""

from __future__ import annotations

import itertools
import random

import pytest

from plane_corpus import cube, icosahedron, wheel

from kempe import io as kio
from kempe.cli import main
from kempe.coloring import SwapMove, make_lists
from kempe.errors import ParameterError
from kempe.graphs import from_edges, generate, parse_family
from kempe.reconfig import build_reconfig_graph


def fam(text):
    return generate(parse_family(text))


class TestFormats:
    def test_edge_list_round_trip(self):
        for text in ("cycle(5)", "barbell(4,4,1)", "clique(4)"):
            g = fam(text)
            assert kio.parse_edge_list(kio.write_edge_list(g)).adj == g.adj

    def test_edge_list_rejects_bad_header(self):
        with pytest.raises(ParameterError):
            kio.parse_edge_list("3\n0 1\n")
        with pytest.raises(ParameterError):
            kio.parse_edge_list("3 2\n0 1\n")

    def test_graph6_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(1, 12)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.4]
            g = from_edges(n, edges)
            assert kio.graph_from_graph6(kio.graph_to_graph6(g)).adj == g.adj

    def test_graph6_known_values(self):
        # C4 is "Cl": upper-triangle bits 101101 = chr(45 + 63), checked
        # against networkx's writer.
        c4 = fam("cycle(4)")
        assert kio.graph_to_graph6(c4) == "Cl"
        assert kio.graph_from_graph6(">>graph6<<Cl").adj == c4.adj

    def test_graph6_large_n_header(self):
        g = from_edges(70, [(i, i + 1) for i in range(69)])
        assert kio.graph_from_graph6(kio.graph_to_graph6(g)).adj == g.adj

    def test_rotation_round_trip(self):
        for pg in (cube(), icosahedron(), wheel(6)):
            back = kio.parse_plane_graph(kio.write_rotation_system(pg))
            assert back.rotation == pg.rotation

    def test_lists_and_coloring_round_trip(self):
        lists = make_lists([{1, 2}, {2, 3, 4}, {1}])
        assert kio.parse_lists(kio.write_lists(lists)) == lists
        phi = (1, 3, 1)
        assert kio.parse_coloring(kio.write_coloring(phi)) == phi

    def test_moves_round_trip(self):
        moves = [SwapMove(0, (1, 2)), SwapMove(3, (2, 5))]
        assert kio.parse_moves(kio.write_moves(moves)) == moves

    def test_dot_outputs(self):
        g = fam("cycle(3)")
        dot = kio.graph_to_dot(g)
        assert "graph G {" in dot and "0 -- 1" in dot
        rg = build_reconfig_graph(g, make_lists([{1, 2, 3}] * 3))
        rdot = kio.reconfig_to_dot(rg)
        assert rdot.count("--") == len(rg.edges)


class TestCli:
    def run(self, *argv, tmp_path=None):
        return main(list(argv))

    def test_gen_and_detect_flow(self, tmp_path, capsys):
        graph_file = tmp_path / "k23.el"
        assert main(["gen", "theta(2,2,2)", "-o", str(graph_file)]) == 0
        code = main(["detect", "--graph", str(graph_file), "--kind", "C3-theta"])
        out = capsys.readouterr().out
        assert code == 1 and "absent" in out

    def test_mix_frozen_c4_reports_two_classes(self, tmp_path, capsys):
        graph_file = tmp_path / "c4.el"
        lists_file = tmp_path / "c4.lists"
        main(["gen", "cycle(4)", "-o", str(graph_file)])
        lists_file.write_text("0: 1 2\n1: 2 3\n2: 3 4\n3: 4 1\n")
        code = main(["mix", "--graph", str(graph_file), "--lists", str(lists_file)])
        out = capsys.readouterr().out
        assert code == 1
        assert "2 colorings, 2 classes, 2 frozen" in out

    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "barbell", "--instance", "barbell(4,4,0)"]) == 0
        capsys.readouterr()
        assert main(["verify", "degree-swappable-nonsense"]) == 3
        capsys.readouterr()
        assert main(["verify", "prism", "--instance", "prism(1,1,1)"]) == 3

    @pytest.mark.parametrize("flag, value", [
        ("--sample", "-5"), ("--sample", "0"), ("--max-assignments", "-1"),
        ("--max-colorings", "-1"), ("--workers", "0"), ("--workers", "-2"),
    ])
    def test_verify_bad_budget_is_input_error(self, flag, value, capsys):
        assert main(["verify", "barbell", flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and flag[2:].replace("-", "_") in captured.err

    def test_verify_counterexample_exit(self, tmp_path, capsys):
        # no cycle is degree-swappable
        assert main(["verify", "cor-order", "--instance", "cycle(4)"]) == 0
        capsys.readouterr()
        code = main(["verify", "prism", "--instance", "prism(2,1,1)", "--cap", "3"])
        capsys.readouterr()
        assert code == 0

    def test_faces_extract_audit_discharge(self, tmp_path, capsys):
        plane_file = tmp_path / "cube.rot"
        plane_file.write_text(kio.write_rotation_system(cube()))
        assert main(["faces", "--plane", str(plane_file)]) == 0
        out = capsys.readouterr().out
        assert "6 faces" in out
        assert main(["extract", "--plane", str(plane_file), "--kind", "G3"]) == 0
        capsys.readouterr()
        assert main(["audit", "--plane", str(plane_file), "--variant", "lemma1"]) == 0
        capsys.readouterr()
        code = main(["discharge", "--plane", str(plane_file), "--variant", "lemma1"])
        out = capsys.readouterr().out
        assert code == 1  # cube ledger has negative faces
        assert "total=-8" in out
        assert "pot 0: initial 0 | R1:-8 R3:+12 | final 4" in out

    def test_path_and_frozen(self, tmp_path, capsys):
        graph_file = tmp_path / "c4.el"
        lists_file = tmp_path / "l.lists"
        start = tmp_path / "a.col"
        goal = tmp_path / "b.col"
        main(["gen", "cycle(4)", "-o", str(graph_file)])
        capsys.readouterr()
        lists_file.write_text("0: 1 2 3\n1: 1 2 3\n2: 1 2 3\n3: 1 2 3\n")
        start.write_text("0: 1\n1: 2\n2: 1\n3: 2\n")
        goal.write_text("0: 2\n1: 1\n2: 2\n3: 1\n")
        assert main(["path", "--graph", str(graph_file), "--lists", str(lists_file),
                     "--start", str(start), "--goal", str(goal)]) == 0
        capsys.readouterr()
        assert main(["frozen", "--graph", str(graph_file),
                     "--lists", str(lists_file)]) == 0
        out = capsys.readouterr().out
        assert "0 frozen" in out

    def test_lift_cli(self, tmp_path, capsys):
        graph_file = tmp_path / "p2.el"
        graph_file.write_text("2 1\n0 1\n")
        lists_file = tmp_path / "l.lists"
        lists_file.write_text("0: 1 2 3\n1: 1 2\n")
        start = tmp_path / "s.col"
        start.write_text("0: 3\n1: 1\n")
        moves = tmp_path / "m.moves"
        moves.write_text("1: 1 2\n")
        code = main(["lift", "--graph", str(graph_file), "--lists", str(lists_file),
                     "--start", str(start), "--moves", str(moves), "--vertex", "0"])
        out = capsys.readouterr().out
        assert code == 0 and "1 lifted moves" in out

    def test_report_reproducible_byte_for_byte(self, tmp_path):
        graph_file = tmp_path / "c6.el"
        main(["gen", "cycle(6)", "-o", str(graph_file)])
        first = tmp_path / "r1.txt"
        second = tmp_path / "r2.txt"
        argv = ["verify", "k4k2", "--sample", "5", "--seed", "11", "--cap", "6"]
        assert main(argv + ["-o", str(first)]) == 0
        # re-run the embedded config
        embedded = first.read_text().splitlines()[0]
        assert embedded.startswith("# config: ")
        import shlex
        rerun = shlex.split(embedded[len("# config: "):])
        rerun[rerun.index("-o") + 1] = str(second)
        assert main(rerun) == 0
        assert first.read_text().splitlines()[1:] == second.read_text().splitlines()[1:]

    def test_budget_exit_code(self, tmp_path, capsys):
        graph_file = tmp_path / "c4.el"
        lists_file = tmp_path / "l.lists"
        main(["gen", "cycle(4)", "-o", str(graph_file)])
        lists_file.write_text("0: 1 2 3\n1: 1 2 3\n2: 1 2 3\n3: 1 2 3\n")
        code = main(["colorings", "--graph", str(graph_file), "--lists", str(lists_file),
                     "--max-colorings", "5"])
        capsys.readouterr()
        assert code == 2

    def test_input_error_exit_code(self, capsys):
        assert main(["gen", "cycle(2)"]) == 3
        capsys.readouterr()
        assert main(["mix", "--graph", "/nonexistent", "--lists", "/nonexistent"]) == 3


class TestCounterexampleReplay:
    def test_verify_counterexample_file_replays_with_mix(self, tmp_path, capsys):
        # A counterexample assignment written as a lists file must replay to
        # a multi-class mix run (exit 1).
        from kempe.verify import degree_swappable_verdict
        g = fam("cycle(6)")
        verdict = degree_swappable_verdict(g, cap=4)
        assert verdict.verdict == "counterexample"
        lists_file = tmp_path / "bad.lists"
        lists_file.write_text(kio.write_lists(verdict.counterexample))
        graph_file = tmp_path / "c6.el"
        main(["gen", "cycle(6)", "-o", str(graph_file)])
        capsys.readouterr()
        code = main(["mix", "--graph", str(graph_file), "--lists", str(lists_file)])
        capsys.readouterr()
        assert code == 1

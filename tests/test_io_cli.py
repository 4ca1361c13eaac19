"""Serialization round-trips and the command-line front end."""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

import pytest

from lift_corpus import LIFTS
from plane_corpus import cube, icosahedron, wheel

from kempe import io as kio
from kempe.cli import main
from kempe.coloring import SwapMove, make_lists
from kempe.errors import ParameterError
from kempe.graphs import cartesian_product, from_edges, generate, line_graph, parse_family
from kempe.reconfig import build_reconfig_graph


GOLDEN = Path(__file__).resolve().parent / "golden"


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

    @pytest.mark.parametrize("extra", [[], ["--sample", "5"], ["--workers", "2"]])
    def test_verify_cap_above_the_maximum_is_a_quick_input_error(self, extra, capsys):
        # cap 8 already takes seconds to tabulate; cap 40 never finished.
        start = time.perf_counter()
        assert main(["verify", "barbell", "--cap", "40", "--max-assignments", "3", *extra]) == 3
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == "" and "cap 40 is above 8" in captured.err

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

    @pytest.mark.parametrize("command", ["audit", "discharge"])
    def test_empty_plane_graph_is_input_error(self, command, tmp_path, capsys):
        plane_file = tmp_path / "empty.rot"
        plane_file.write_text("")
        assert main([command, "--plane", str(plane_file), "--variant", "lemma1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and "nonempty" in captured.err

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

    def test_frozen_budget_errors(self, tmp_path, capsys):
        # C4 with lists {1,2,3}: the list-size product is 81.
        graph_file = tmp_path / "c4.el"
        lists_file = tmp_path / "l.lists"
        graph_file.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
        lists_file.write_text("0: 1 2 3\n1: 1 2 3\n2: 1 2 3\n3: 1 2 3\n")
        argv = ["frozen", "--graph", str(graph_file), "--lists", str(lists_file),
                "--max-colorings"]
        for budget in ("80", "0"):
            assert main(argv + [budget]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"budget exceeded: coloring space bound 81 exceeds budget {budget}\n"
        assert main(argv + ["-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: max_colorings must be at least 0, got -1\n"
        assert main(argv + ["81"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0 frozen colorings"

    @pytest.mark.parametrize("command", ["colorings", "mix", "frozen"])
    def test_search_deeper_than_the_recursion_limit_is_a_budget_error(self, command,
                                                                      tmp_path, capsys):
        # path(1500) with lists {1} and {2} alternating has one coloring, so the
        # product bound passes, but the searches recurse once per vertex.
        n = 1500
        graph_file = tmp_path / "p.el"
        lists_file = tmp_path / "p.lists"
        graph_file.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        lists_file.write_text("".join(f"{i}: {1 + i % 2}\n" for i in range(n)))
        code = main([command, "--graph", str(graph_file), "--lists", str(lists_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command",
                             ["colorings", "mix", "frozen", "path", "lift", "lift-vertex"])
    def test_negative_max_colorings_is_input_error(self, command, tmp_path, capsys):
        files = {"graph": "4 4\n0 1\n0 3\n1 2\n2 3\n",
                 "lists": "0: 1 2\n1: 2 3\n2: 3 4\n3: 4 1\n",
                 "start": "0: 1\n1: 2\n2: 3\n3: 4\n",
                 "moves": "2: 3 4\n"}
        if command == "lift-vertex":
            # P2 with lists {1,2,3}/{1,2}: the lift succeeds at any valid budget.
            files = {"graph": "2 1\n0 1\n", "lists": "0: 1 2 3\n1: 1 2\n",
                     "start": "0: 1\n1: 2\n", "moves": "1: 1 2\n"}
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / name
            paths[name].write_text(text)
        argv = [command.split("-")[0], "--graph", str(paths["graph"]),
                "--lists", str(paths["lists"]), "--max-colorings", "-1"]
        if command == "path":
            argv += ["--start", str(paths["start"]), "--goal", str(paths["start"])]
        if command.startswith("lift"):
            argv += ["--start", str(paths["start"]), "--moves", str(paths["moves"])]
            argv += ["--vertex", "0"] if command == "lift-vertex" else ["--subgraph", "0,1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "max_colorings" in captured.err

    @pytest.mark.parametrize("mode, flag, value", [
        ("--vertex", "--target", "target.col"), ("--subgraph", "--target-color", "2")])
    def test_lift_rejects_the_other_modes_target(self, mode, flag, value, tmp_path, capsys):
        # P2 with lists {1,2,3}/{1,2}: the lift succeeds, and would end at 3 2
        # whatever the stray target asks for.
        files = {"graph": "2 1\n0 1\n", "lists": "0: 1 2 3\n1: 1 2\n",
                 "start": "0: 3\n1: 1\n", "moves": "1: 1 2\n", "target.col": "0: 2\n1: 2\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = ["lift", mode, "0"] + [arg for name in ("graph", "lists", "start", "moves")
                                      for arg in (f"--{name}", str(tmp_path / name))]
        assert main(argv) == 0
        capsys.readouterr()
        stray = str(tmp_path / value) if flag == "--target" else value
        assert main(argv + [flag, stray]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err

    @pytest.mark.parametrize("edge", ["1 5", "-1 2"])
    def test_edge_endpoint_out_of_range_is_input_error(self, edge, tmp_path, capsys):
        graph_file = tmp_path / "g.el"
        lists_file = tmp_path / "l.lists"
        graph_file.write_text(f"3 2\n0 1\n{edge}\n")
        lists_file.write_text("0: 1 2\n1: 1 2\n2: 1 2\n")
        code = main(["colorings", "--graph", str(graph_file), "--lists", str(lists_file)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and "outside 0..2" in captured.err

    @pytest.mark.parametrize("mode", [["--vertex", "0"], ["--subgraph", "0"]])
    @pytest.mark.parametrize("anchor", ["5", "-1"])
    def test_lift_move_anchor_out_of_range_is_input_error(self, mode, anchor, tmp_path, capsys):
        # P2 with lists {1,2,3}/{1,2}: "1: 1 2" lifts; any other anchor is no vertex.
        files = {"graph": "2 1\n0 1\n", "lists": "0: 1 2 3\n1: 1 2\n",
                 "start": "0: 3\n1: 1\n", "moves": f"{anchor}: 1 2\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = ["lift"] + mode + [arg for name in files
                                  for arg in (f"--{name}", str(tmp_path / name))]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"anchor {anchor} out of range" in captured.err

    # A "v: ..." file of each kind on the 4-cycle: a command that reads it
    # first among its files, its good rows, and how int() quotes a bad token.
    ROWS = {
        "list": ("mix", ["lists", "graph"], ["0: 1 2", "1: 1 2", "2: 1 2", "3: 1 2"], "'x'"),
        "coloring": ("path", ["start", "graph", "lists", "goal"],
                     ["0: 1", "1: 2", "2: 1", "3: 2"], "' x'"),
        "rotation": ("faces", ["plane"], ["0: 1 3", "1: 2 0", "2: 3 1", "3: 0 2"], "'x'"),
    }

    @pytest.mark.parametrize("kind", sorted(ROWS))
    @pytest.mark.parametrize("case", ["duplicate", "missing", "bad token first"])
    def test_row_errors_are_input_errors(self, kind, case, tmp_path, capsys):
        command, reads, rows, token = self.ROWS[kind]
        bad, expected = {
            "duplicate": (rows[:3] + rows[2:], f"duplicate {kind} line for vertex 2"),
            "missing": (rows[:2] + rows[3:],
                        f"{kind} lines must cover vertices 0..n-1 exactly once"),
            # The bad token on line 0 is read before the duplicate of vertex 2.
            "bad token first": (["0: x"] + rows[1:3] + rows[2:],
                                f"invalid literal for int() with base 10: {token}"),
        }[case]
        files = {"graph": ["4 4", "0 1", "1 2", "2 3", "0 3"], "lists": self.ROWS["list"][2],
                 "start": self.ROWS["coloring"][2], "goal": self.ROWS["coloring"][2],
                 reads[0]: bad}
        argv = [command]
        for file in reads:
            (tmp_path / file).write_text("\n".join(files[file]) + "\n")
            argv += [f"--{file}", str(tmp_path / file)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input error: {expected}\n")

    def test_input_error_exit_code(self, capsys):
        assert main(["gen", "cycle(2)"]) == 3
        capsys.readouterr()
        assert main(["mix", "--graph", "/nonexistent", "--lists", "/nonexistent"]) == 3


def bfs_classes(rg):
    """Classes of the explicit reconfiguration graph, in order of their first coloring."""
    adj = {a: [] for a in range(len(rg.colorings))}
    for a, b, _ in rg.edges:
        adj[a].append(b)
        adj[b].append(a)
    classes, seen = [], set()
    for a in range(len(rg.colorings)):
        if a not in seen:
            seen.add(a)
            queue, members = [a], []
            while queue:
                x = queue.pop(0)
                members.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            classes.append(sorted(members))
    return classes


class TestMixReport:
    CASES = {
        "c4-one-class": (4, [(0, 1), (1, 2), (2, 3), (3, 0)], [{1, 2, 3}] * 4),
        "c4-frozen": (4, [(0, 1), (1, 2), (2, 3), (3, 0)], [{1, 2}, {2, 3}, {3, 4}, {4, 1}]),
        "prism-two-classes": (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                  (0, 3), (1, 4), (2, 5)], [{1, 2, 3}] * 6),
        "sizes-1-2-4": (6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 5),
                            (4, 5)],
                        [{2, 3}, {2, 4}, {1, 3, 4}, {1, 2}, {2, 3, 4}, {2, 3}]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mix_lines_match_bfs_and_dot_follows_the_report(self, case, tmp_path, capsys):
        n, edges, sets = self.CASES[case]
        g, lists = from_edges(n, edges), make_lists(sets)
        graph_file, lists_file = tmp_path / "g.el", tmp_path / "g.lists"
        graph_file.write_text(kio.write_edge_list(g))
        lists_file.write_text(kio.write_lists(lists))
        argv = ["mix", "--graph", str(graph_file), "--lists", str(lists_file)]
        code = main(argv)
        report = capsys.readouterr().out
        assert main(argv + ["--dot"]) == code
        with_dot = capsys.readouterr().out
        rg = build_reconfig_graph(g, lists)
        assert with_dot.split("\n", 1)[1] == report.split("\n", 1)[1] + kio.reconfig_to_dot(rg)

        classes = bfs_classes(rg)
        frozen = [rg.colorings[c[0]] for c in classes if len(c) == 1]

        def text(phi):
            return " ".join(str(c) for c in phi)

        expected = [f"{len(rg.colorings)} colorings, {len(classes)} classes, {len(frozen)} frozen"]
        expected += [f"class {i} size {len(c)} representative {text(rg.colorings[c[0]])}"
                     for i, c in enumerate(classes)]
        expected += [f"frozen {text(phi)}" for phi in frozen]
        assert report.splitlines()[1:] == expected
        sizes = [int(line.split()[3]) for line in report.splitlines() if line.startswith("class ")]
        assert sum(sizes) == len(rg.colorings)
        assert code == (0 if len(classes) <= 1 else 1)


class TestMixGolden:
    # Full `kempe mix` stdout, pinned from the coloring-by-coloring flood.
    # The lists {1..k} on every vertex make every color renaming a symmetry.
    PRISM = cartesian_product(fam("clique(3)"), fam("clique(2)"))

    @pytest.mark.parametrize("name, g, colors, extra, code", [
        ("mix_k4k2_6", cartesian_product(fam("clique(4)"), fam("clique(2)")), 6, [], 0),
        ("mix_k3k2_3", PRISM, 3, [], 1),
        ("mix_dot_k3k2_3", PRISM, 3, ["--dot"], 1),
        ("mix_lk33_3", line_graph(fam("complete_bipartite(3,3)")), 3, [], 1),
    ])
    def test_stdout_is_pinned(self, name, g, colors, extra, code, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.el").write_text(kio.write_edge_list(g))
        (tmp_path / "g.lists").write_text(kio.write_lists(make_lists([range(1, colors + 1)] * g.n)))
        assert main(["mix", *extra, "--graph", "g.el", "--lists", "g.lists"]) == code
        assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


class TestLiftGolden:
    # Full `kempe lift` stdout: a vertex lift that parks and then recolors to
    # a target color, a slack subgraph lift (a peel along an elimination
    # order), and a tight one that bridges inside H and then to a target.
    @pytest.mark.parametrize("name", sorted(LIFTS))
    def test_stdout_is_pinned(self, name, tmp_path, monkeypatch, capsys):
        files, argv = LIFTS[name]
        monkeypatch.chdir(tmp_path)
        for file, text in files.items():
            (tmp_path / file).write_text(text)
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


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

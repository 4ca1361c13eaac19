"""Command-line front end for batch verification and inspection.

Exit status: 0 verified/success, 1 counterexample or negative finding,
2 budget exceeded, 3 input error.  Every report embeds the config line it was
produced from, so re-running that line reproduces the report byte for byte.
Randomized commands record their seed.
"""

from __future__ import annotations

import argparse
import shlex
import sys

from . import io as kio
from .coloring import DEFAULT_MAX_COLORINGS, check_coloring, enumerate_L_colorings
from .discharging import run_discharging
from .errors import BudgetError, KempeError, ParameterError, PreconditionError
from .graphs import Graph, generate, is_isomorphic, line_graph, parse_family
from .planar import detect_configuration, extract_special_subgraph, structural_audit, trace_faces
from .reconfig import (
    build_reconfig_graph,
    equivalence_path,
    lift_through_subgraph,
    lift_through_vertex,
    mixing_classes,
)
from .verify import DEFAULT_MAX_ASSIGNMENTS, frozen_colorings, verify_lemma


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args) -> Graph:
    if getattr(args, "graph", None):
        text = _read(args.graph)
        if text.lstrip().startswith(">>graph6<<") or args.graph.endswith(".g6"):
            return kio.graph_from_graph6(text)
        return kio.parse_edge_list(text)
    if getattr(args, "plane", None):
        return kio.parse_plane_graph(_read(args.plane)).graph
    raise ParameterError("no graph input given")


def _emit(args, lines) -> None:
    config = "# config: " + shlex.join(args.argv)
    body = config + "\n" + "\n".join(lines).rstrip("\n") + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-colorings", type=int, default=DEFAULT_MAX_COLORINGS)
    p.add_argument("--max-assignments", type=int, default=DEFAULT_MAX_ASSIGNMENTS)
    p.add_argument("--cap", type=int, default=4, help="color-universe cap")
    p.add_argument("--sample", type=int, default=None, help="sampled mode with N draws")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kempe", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", "-o", default=None, help="write the report to this file")
    sub = top.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("gen", help="generate a family graph")
    p.add_argument("spec", help='family string, e.g. "barbell(4,4,0)"')
    p.add_argument("--format", choices=("edgelist", "graph6", "dot"), default="edgelist")

    p = add_parser("line", help="line graph of an input graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=("edgelist", "graph6", "dot"), default="edgelist")

    p = add_parser("faces", help="trace the faces of a plane graph")
    p.add_argument("--plane", required=True, help="rotation-system file")

    p = add_parser("extract", help="extract the special subgraph G3 or G2")
    p.add_argument("--plane", required=True)
    p.add_argument("--kind", choices=("G3", "G2"), required=True)

    p = add_parser("detect", help="search for one reducible configuration")
    p.add_argument("--graph", help="edge-list input (C2/C3 kinds, or C1 with --threshold)")
    p.add_argument("--plane", help="rotation-system input")
    p.add_argument("--kind", choices=("C1", "C2-barbell", "C3-theta", "C3-K24"),
                   required=True)
    p.add_argument("--threshold", type=int, default=None, help="C1 degree-sum threshold")

    p = add_parser("audit", help="run the structural audit on a plane graph")
    p.add_argument("--plane", required=True)
    p.add_argument("--variant", choices=("lemma1", "lemma2"), required=True)

    p = add_parser("discharge", help="run a discharging rule system")
    p.add_argument("--plane", required=True)
    p.add_argument("--variant", choices=("lemma1", "lemma2"), required=True)

    p = add_parser("colorings", help="enumerate all L-colorings")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--max-colorings", type=int, default=DEFAULT_MAX_COLORINGS)

    p = add_parser("mix", help="mixing classes of the reconfiguration graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--max-colorings", type=int, default=DEFAULT_MAX_COLORINGS)
    p.add_argument("--dot", action="store_true", help="emit the reconfiguration graph as DOT")

    p = add_parser("path", help="shortest swap sequence between two L-colorings")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--start", required=True, dest="start")
    p.add_argument("--goal", required=True, dest="goal")
    p.add_argument("--max-colorings", type=int, default=DEFAULT_MAX_COLORINGS)

    p = add_parser("frozen", help="list the frozen L-colorings")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--max-colorings", type=int, default=DEFAULT_MAX_COLORINGS)

    p = add_parser("lift", help="lift a swap sequence through a vertex or subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--moves", required=True)
    p.add_argument("--vertex", type=int, default=None, help="lift through this vertex")
    p.add_argument("--subgraph", default=None,
                   help="comma-separated vertex set to lift through")
    p.add_argument("--target-color", type=int, default=None)
    p.add_argument("--target", default=None, help="target coloring file (subgraph mode)")
    p.add_argument("--max-colorings", type=int, default=DEFAULT_MAX_COLORINGS)

    p = add_parser("verify", help="verify a named lemma by brute force")
    p.add_argument("lemma", help="reduc-lem barbell k4k2 short-theta prism "
                                 "big-intersection cor-order cor-fix-one cor-fix-two")
    p.add_argument("--instance", default=None, help='family string, e.g. "theta(1,3,3)"')
    p.add_argument("--counterexample-out", default=None,
                   help="write a found counterexample assignment here, "
                        "replayable with the mix command")
    p.add_argument("--workers", type=int, default=1,
                   help="worker count; output is identical for any value")
    _budget_args(p)

    return top


def _cmd_gen(args) -> int:
    g = generate(parse_family(args.spec))
    return _emit_graph(args, g)


def _cmd_line(args) -> int:
    g = line_graph(_load_graph(args))
    lines = []
    if g.labels:
        lines += [f"# vertex {v} = source edge {lbl}" for v, lbl in enumerate(g.labels)]
    return _emit_graph(args, g, lines)


def _emit_graph(args, g, extra=None) -> int:
    fmt = getattr(args, "format", "edgelist")
    if fmt == "edgelist":
        payload = kio.write_edge_list(g)
    elif fmt == "graph6":
        payload = kio.graph_to_graph6(g) + "\n"
    else:
        payload = kio.graph_to_dot(g)
    _emit(args, (extra or []) + [payload])
    return 0


def _cmd_faces(args) -> int:
    pg = kio.parse_plane_graph(_read(args.plane))
    faces = trace_faces(pg)
    lines = [f"{len(faces)} faces, total incidences {sum(f.length for f in faces)}"]
    for i, f in enumerate(faces):
        walk = " ".join(f"{u}->{v}" for u, v in f.edges)
        lines.append(f"face {i} length {f.length}: {walk}")
    _emit(args, lines)
    return 0


def _cmd_extract(args) -> int:
    pg = kio.parse_plane_graph(_read(args.plane))
    sub = extract_special_subgraph(pg, args.kind)
    lines = [f"{args.kind}: {sub.graph.n} vertices, {sub.graph.m} edges",
             f"host vertices: {' '.join(str(v) for v in sub.vertices)}"]
    if sub.adjacent_qualifying_pair:
        lines.append(f"adjacent qualifying pair: {sub.adjacent_qualifying_pair}")
    lines.append(kio.write_edge_list(sub.graph))
    _emit(args, lines)
    return 0


def _cmd_detect(args) -> int:
    g = _load_graph(args)
    witness = detect_configuration(g, args.kind, threshold=args.threshold)
    if witness is None:
        note = ""
        if args.kind == "C3-theta" and g.n <= 12:
            if is_isomorphic(g, generate(parse_family("complete_bipartite(2,3)"))) is not None:
                note = " (isomorphic to K_{2,3})"
        _emit(args, [f"{args.kind}: absent{note}"])
        return 1
    witness.validate(g)
    _emit(args, [f"{args.kind}: " + witness.describe()])
    return 0


def _cmd_audit(args) -> int:
    pg = kio.parse_plane_graph(_read(args.plane))
    report = structural_audit(pg, args.variant)
    _emit(args, [report.describe()])
    if report.none_found:
        return 1 if report.complete else 2
    return 0


def _cmd_discharge(args) -> int:
    pg = kio.parse_plane_graph(_read(args.plane))
    report = run_discharging(pg, args.variant)
    lines = [report.describe()]
    lines += [t.describe() for t in report.ledger.transfers]
    _emit(args, lines)
    return 1 if report.negative else 0


def _cmd_colorings(args) -> int:
    g = _load_graph(args)
    lists = kio.parse_lists(_read(args.lists), g)
    colorings = enumerate_L_colorings(g, lists, args.max_colorings)
    lines = [f"{len(colorings)} L-colorings"]
    lines += [" ".join(str(c) for c in phi) for phi in colorings]
    _emit(args, lines)
    return 0


def _cmd_mix(args) -> int:
    g = _load_graph(args)
    lists = kio.parse_lists(_read(args.lists), g)
    report = mixing_classes(g, lists, args.max_colorings)
    lines = [f"{report.total} colorings, {report.class_count} classes, "
             f"{len(report.frozen)} frozen"]
    for i, rep in enumerate(report.representatives):
        size = sum(1 for c in report.component_ids if c == i)
        lines.append(f"class {i} size {size} representative "
                     + " ".join(str(c) for c in rep))
    for phi in report.frozen:
        lines.append("frozen " + " ".join(str(c) for c in phi))
    if args.dot:
        lines.append(kio.reconfig_to_dot(build_reconfig_graph(g, lists, args.max_colorings)))
    _emit(args, lines)
    return 0 if report.class_count <= 1 else 1


def _cmd_path(args) -> int:
    g = _load_graph(args)
    lists = kio.parse_lists(_read(args.lists), g)
    phi1 = kio.parse_coloring(_read(args.start), g)
    phi2 = kio.parse_coloring(_read(args.goal), g)
    moves = equivalence_path(g, lists, phi1, phi2, args.max_colorings)
    if moves is None:
        _emit(args, ["not L-equivalent"])
        return 1
    _emit(args, [f"{len(moves)} moves", kio.write_moves(moves) if moves else ""])
    return 0


def _cmd_frozen(args) -> int:
    g = _load_graph(args)
    lists = kio.parse_lists(_read(args.lists), g)
    out = frozen_colorings(g, lists, args.max_colorings)
    lines = [f"{len(out)} frozen colorings"]
    lines += [" ".join(str(c) for c in phi) for phi in out]
    _emit(args, lines)
    return 1 if out else 0


def _cmd_lift(args) -> int:
    g = _load_graph(args)
    lists = kio.parse_lists(_read(args.lists), g)
    start = kio.parse_coloring(_read(args.start), g)
    moves = kio.parse_moves(_read(args.moves))
    if (args.vertex is None) == (args.subgraph is None):
        raise ParameterError("give exactly one of --vertex or --subgraph")
    if args.vertex is not None:
        result = lift_through_vertex(g, lists, args.vertex, start, moves,
                                     target_color=args.target_color)
    else:
        h = [int(t) for t in args.subgraph.split(",")]
        target = kio.parse_coloring(_read(args.target), g) if args.target else None
        result = lift_through_subgraph(g, h, lists, start, moves, target=target,
                                       max_colorings=args.max_colorings)
    lines = [f"{len(result.moves)} lifted moves",
             kio.write_moves(result.moves) if result.moves else "",
             "final " + " ".join(str(c) for c in result.final)]
    _emit(args, lines)
    return 0


def _cmd_verify(args) -> int:
    report = verify_lemma(args.lemma, instance=args.instance, cap=args.cap,
                          sample=args.sample, seed=args.seed,
                          max_assignments=args.max_assignments,
                          max_colorings=args.max_colorings, workers=args.workers)
    lines = [report.summary()]
    if report.counterexample is not None:
        lines.append(kio.write_lists(report.counterexample))
        if args.counterexample_out:
            with open(args.counterexample_out, "w", encoding="utf-8") as fh:
                fh.write(kio.write_lists(report.counterexample))
            lines.append(f"counterexample written to {args.counterexample_out}")
    _emit(args, lines)
    return {"verified": 0, "counterexample": 1, "budget-exceeded": 2}[report.verdict]


_COMMANDS = {
    "gen": _cmd_gen,
    "line": _cmd_line,
    "faces": _cmd_faces,
    "extract": _cmd_extract,
    "detect": _cmd_detect,
    "audit": _cmd_audit,
    "discharge": _cmd_discharge,
    "colorings": _cmd_colorings,
    "mix": _cmd_mix,
    "path": _cmd_path,
    "frozen": _cmd_frozen,
    "lift": _cmd_lift,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return _COMMANDS[args.command](args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, PreconditionError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except KempeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

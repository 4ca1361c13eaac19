"""The benchmark's three workloads: inputs, set-up, one round of operations, checks.

A workload draws its inputs from the seed with its own code (nothing from
kempe), builds the program's objects in setup() through kempe's own
constructors and parsers, and lists the operations of one round in ops().
Every round runs the same operations on the same inputs.  An operation is
(label, call, record): call() is the timed call into the program, and
record(result), applied after the round's timer stops, turns its result into
plain comparable data (None keeps the result as it is).  check() tests the
records of the first round against the independent computations in
oracle.py, after the timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import random
import re
from types import SimpleNamespace

import oracle

CAP_EXHAUSTIVE = 4


class OpError(Exception):
    """An operation ended in an exit code other than a verdict (budget or input error)."""


def run_cli(k, argv):
    """kempe.cli.main in-process; the report text and exit code are the record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = k.cli.main(list(argv))
    if rc not in (0, 1):
        raise OpError(f"kempe {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def report_fields(text):
    """key=value fields of a verify report's summary line."""
    return dict(re.findall(r"(\w+)=(\S+)", text.splitlines()[1]))


def sets_text(lists):
    return "".join(f"{v}: {' '.join(str(c) for c in sorted(s))}\n" for v, s in enumerate(lists))


def coloring_text(phi):
    return "".join(f"{v}: {c}\n" for v, c in enumerate(phi))


def edges_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def moves_text(moves):
    return "".join(f"{a}: {p[0]} {p[1]}\n" for a, p in moves)


def clique_k2_edges(m):
    """K_m x K2 with vertex (a, b) numbered 2a + b, as kempe's cartesian_product does."""
    edges = [(2 * a, 2 * a + 1) for a in range(m)]
    edges += [(2 * a + b, 2 * c + b) for b in range(2) for a, c in itertools.combinations(range(m), 2)]
    return sorted(edges)


def burnside_errors(name, fields, instance):
    """checked must lie between the orbit counts under Aut(G) x Sym(cap) and Sym(cap)."""
    cap = int(re.search(r"cap=(\d+)", fields["mode"]).group(1))
    low, high = oracle.orbit_bounds(oracle.family_nx(instance), cap)
    checked = int(fields["checked"])
    if not low <= checked <= high:
        return [f"{name}: checked={checked} outside the orbit counts [{low}, {high}]"]
    return []


def recheck_errors(name, instance, rng, count, cap):
    """Seeded raw degree assignments of a verified instance must each be swappable."""
    g = oracle.family_nx(instance)
    adj = oracle.adjacency(g.number_of_nodes(), oracle.nx_edges(g))
    sizes = [len(a) for a in adj]
    for _ in range(count):
        lists = oracle.random_assignment(rng, sizes, cap)
        if not oracle.is_swappable(adj, lists):
            return [f"{name}: oracle finds assignment {lists} not swappable"]
    return []


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.draw()

    def draw(self):
        """Benchmark-owned inputs from the seed (not timed, not set-up)."""

    def write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def setup(self, k):
        """Build the program's objects through its own code (timed as setup_s)."""

    def ops(self, k):
        raise NotImplementedError

    def check(self, records):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify-exhaustive
# ---------------------------------------------------------------------------

class VerifyExhaustive(Workload):
    name = "verify-exhaustive"
    # (lemma, --instance, the graph the lemma checks, as oracle.family_nx names it)
    LEMMAS = (
        ("short-theta", "theta(1,3,3)", "line_graph(theta(1,3,3))"),
        ("prism", "prism(2,1,1)", "prism(2,1,1)"),
        ("barbell", "barbell(4,4,0)", "line_graph(barbell(4,4,0))"),
        ("k4k2", None, "k4k2"),
    )
    RECHECKS = 6

    def setup(self, k):
        g = k.graphs
        self.k3k2 = g.cartesian_product(g.generate(g.parse_family("clique(3)")),
                                        g.generate(g.parse_family("clique(2)")))

    def ops(self, k):
        out = []
        for lemma, instance, _ in self.LEMMAS:
            argv = ["verify", lemma, "--cap", str(CAP_EXHAUSTIVE), "--workers", "1"]
            if instance:
                argv += ["--instance", instance]
            out.append((f"verify {lemma}", lambda argv=argv: run_cli(k, argv), None))

        def k3k2(r):
            lists = None if r.counterexample is None else tuple(map(tuple, map(sorted, r.counterexample)))
            return r.verdict, r.assignments_checked, lists

        out.append(("K3xK2 degree assignments",
                    lambda: k.verify.degree_swappable_verdict(self.k3k2, cap=CAP_EXHAUSTIVE), k3k2))
        return out

    def check(self, records):
        errors = []
        rng = random.Random(self.seed)
        for (lemma, instance, graph), record in zip(self.LEMMAS, records):
            if record is None:
                continue
            rc, text = record
            fields = report_fields(text)
            if rc != 0 or fields.get("verdict") != "verified" or fields.get("lemma") != lemma:
                errors.append(f"verify {lemma}: expected a verified report, got {text!r}")
                continue
            if fields["mode"] != f"exhaustive(cap={CAP_EXHAUSTIVE})":
                errors.append(f"verify {lemma}: mode {fields['mode']}")
            errors += burnside_errors(f"verify {lemma}", fields, graph)
            errors += recheck_errors(f"verify {lemma}", graph, rng, self.RECHECKS, CAP_EXHAUSTIVE)
        k3k2 = records[-1]
        if k3k2 is not None:
            verdict, checked, lists = k3k2
            if verdict != "counterexample" or checked != 1:
                errors.append(f"K3xK2: expected a counterexample at the first assignment, "
                              f"got {verdict} after {checked}")
            else:
                parts, _ = oracle.classes(oracle.adjacency(6, clique_k2_edges(3)),
                                          [frozenset(s) for s in lists])
                if len(parts) < 2:
                    errors.append(f"K3xK2: oracle finds {len(parts)} class for {lists}")
        return errors


# ---------------------------------------------------------------------------
# classes-lift
# ---------------------------------------------------------------------------

def random_connected(rng, n, p):
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        adj = oracle.adjacency(n, edges)
        seen = oracle.component(adj, [0] * n, 0, (0,))
        if len(seen) == n:
            return edges, adj


def random_coloring(rng, adj, lists):
    """One proper list coloring by randomized backtracking, or None."""
    n = len(adj)
    phi = [None] * n

    def descend(v):
        if v == n:
            return True
        for c in rng.sample(sorted(lists[v]), len(lists[v])):
            if all(phi[w] != c for w in adj[v]):
                phi[v] = c
                if descend(v + 1):
                    return True
        phi[v] = None
        return False

    return tuple(phi) if descend(0) else None


def random_walk(rng, adj, lists, start, absent, steps):
    """Random L-valid Kempe moves on the graph minus the absent vertices."""
    universe = sorted(set().union(*lists))
    phi = tuple(None if x in absent else c for x, c in enumerate(start))
    moves = []
    for _ in range(steps):
        options = []
        for anchor in range(len(adj)):
            if anchor in absent:
                continue
            for pair in itertools.combinations(universe, 2):
                new = oracle.apply_move(adj, lists, phi, anchor, pair)
                if new is not None:
                    options.append(((anchor, pair), new))
        if not options:
            break
        move, phi = options[rng.randrange(len(options))]
        moves.append(move)
    return moves, phi


class ClassesLift(Workload):
    name = "classes-lift"
    BIG_COLORS = 6      # K4 x K2 with lists {1..6}: 65,160 colorings
    PATH_COLORS = 5     # K4 x K2 with lists {1..5}: 6,360 colorings
    PATHS = 4
    SMALL = 3
    VERTEX_LIFTS = 12
    SUBGRAPH_LIFTS = 3
    COR = (("cor-fix-one", "theta(1,3,3)"), ("cor-fix-two", "theta(1,2,2)"))
    # The K4 x K2 proof partition of criterion 6: D(i,j) over v = 0,2,4,6 and w = 1,3,5,7.
    PARTITION = ((1, 2), (2, 3), (1, 4), (3, 2), (1, 3))

    def draw(self):
        rng = self.rng
        w = self.write
        self.k4k2 = oracle.adjacency(8, clique_k2_edges(4))
        self.big_graph = w("k4k2.el", edges_text(8, clique_k2_edges(4)))
        self.big_lists = w("big.lists", sets_text([range(1, self.BIG_COLORS + 1)] * 8))
        path_lists = [frozenset(range(1, self.PATH_COLORS + 1))] * 8
        self.path_lists_file = w("path.lists", sets_text(path_lists))
        self.paths = []
        for i in range(self.PATHS):
            a = random_coloring(rng, self.k4k2, path_lists)
            b = random_coloring(rng, self.k4k2, path_lists)
            self.paths.append((a, b, w(f"path{i}.start", coloring_text(a)),
                               w(f"path{i}.goal", coloring_text(b))))
        # The frozen 4-cycle of criterion 1, then seeded small spaces.
        self.small = [(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [{1, 2}, {2, 3}, {3, 4}, {4, 1}])]
        while len(self.small) < 1 + self.SMALL:
            n = rng.randrange(5, 8)
            edges, adj = random_connected(rng, n, 0.45)
            lists = [set(rng.sample(range(1, 6), max(1, min(5, len(adj[x]) + rng.randrange(0, 2)))))
                     for x in range(n)]
            if random_coloring(rng, adj, lists) is not None:
                self.small.append((n, edges, lists))
        self.small_files = [(w(f"small{i}.el", edges_text(n, edges)),
                             w(f"small{i}.lists", sets_text(lists)))
                            for i, (n, edges, lists) in enumerate(self.small)]
        self.lifts = [self._draw_lift(vertex=True) for _ in range(self.VERTEX_LIFTS)]
        self.lifts += [self._draw_lift(vertex=False) for _ in range(self.SUBGRAPH_LIFTS)]

    def _draw_lift(self, vertex):
        """A lifting instance in the style of acceptance criterion 10."""
        rng = self.rng
        while True:
            if vertex:
                n = rng.randrange(4, 9)
                edges, adj = random_connected(rng, n, 0.45)
                v = rng.randrange(n)
                absent = frozenset({v})
                lists = [frozenset(rng.sample(range(1, 10), len(adj[x]) + (x == v)))
                         for x in range(n)]
            else:
                extra = rng.randrange(2, 4)
                n = 6 + extra
                edges = [(c, c + 1) for c in range(5)] + [(0, 5), (0, 3)]
                edges += [(rng.randrange(6 + i), 6 + i) for i in range(extra)]
                adj = oracle.adjacency(n, edges)
                absent = frozenset(range(6))
                lists = [frozenset(range(1, len(adj[x]) + 1)) if x in absent
                         else frozenset(rng.sample(range(1, 8), len(adj[x]) + 1))
                         for x in range(n)]
            start = random_coloring(rng, adj, lists)
            if start is None:
                continue
            moves, expected = random_walk(rng, adj, lists, start, absent,
                                          rng.randrange(1, 6 if vertex else 4))
            if moves:
                texts = (edges_text(n, edges), sets_text(lists), coloring_text(start),
                         moves_text(moves))
                return dict(adj=adj, lists=lists, start=start, absent=absent,
                            expected=expected, texts=texts)

    def setup(self, k):
        g, kio, rc = k.graphs, k.io, k.reconfig
        self.cover_graph = g.cartesian_product(g.generate(g.parse_family("clique(4)")),
                                               g.generate(g.parse_family("clique(2)")))
        self.cover_lists = kio.parse_lists(sets_text([range(1, 5)] * 8), self.cover_graph)
        v, w = (0, 2, 4, 6), (1, 3, 5, 7)
        self.cover_classes = []
        for i, j in self.PARTITION:
            d = rc.ClassConstraint(frozenset())
            for a in (1, 2, 3, 4):
                d = d.union(rc.ClassConstraint.conjunction([(v[i - 1], a), (w[j - 1], a)]))
            self.cover_classes.append(d)
        self.lift_inputs = []
        for lift in self.lifts:
            edges, lists, start, moves = lift["texts"]
            graph = kio.parse_edge_list(edges)
            self.lift_inputs.append((graph, kio.parse_lists(lists, graph),
                                     kio.parse_coloring(start, graph), kio.parse_moves(moves)))

    def ops(self, k):
        out = [("mix K4xK2", lambda: run_cli(k, ["mix", "--graph", self.big_graph,
                                                  "--lists", self.big_lists]), None),
               ("frozen K4xK2", lambda: run_cli(k, ["frozen", "--graph", self.big_graph,
                                                     "--lists", self.big_lists]), None)]
        for i, (graph, lists) in enumerate(self.small_files):
            for cmd in ("mix", "frozen"):
                argv = [cmd, "--graph", graph, "--lists", lists]
                out.append((f"{cmd} small {i}", lambda argv=argv: run_cli(k, argv), None))
        for i, (_, _, start, goal) in enumerate(self.paths):
            argv = ["path", "--graph", self.big_graph, "--lists", self.path_lists_file,
                    "--start", start, "--goal", goal]
            out.append((f"path {i}", lambda argv=argv: run_cli(k, argv), None))
        out.append(("cover certificate",
                    lambda: k.reconfig.cover_certificate(self.cover_graph, self.cover_lists,
                                                         self.cover_classes),
                    lambda r: (r.certified, r.failure, r.class_sizes, r.total)))
        for lemma, instance in self.COR:
            argv = ["verify", lemma, "--instance", instance, "--cap", str(CAP_EXHAUSTIVE)]
            out.append((f"verify {lemma}", lambda argv=argv: run_cli(k, argv), None))
        for i, (lift, inputs) in enumerate(zip(self.lifts, self.lift_inputs)):
            out.append((f"lift {i}", lambda lift=lift, inputs=inputs: self._lift(k, lift, inputs),
                        lambda r: (tuple((mv.anchor, mv.colors) for mv in r.moves), r.final)))
        return out

    @staticmethod
    def _lift(k, lift, inputs):
        graph, lists, start, moves = inputs
        if len(lift["absent"]) == 1:
            (v,) = lift["absent"]
            return k.reconfig.lift_through_vertex(graph, lists, v, start, moves)
        return k.reconfig.lift_through_subgraph(graph, lift["absent"], lists, start, moves)

    def check(self, records):
        errors = []
        it = iter(records)
        big_mix, big_frozen = next(it), next(it)
        k = self.BIG_COLORS
        sizes, frozen = oracle.classes_all_equal(self.k4k2, k)
        least = oracle.least_coloring(self.k4k2, [frozenset(range(1, k + 1))] * 8)
        if big_mix is not None:
            errors += self._mix_errors("mix K4xK2", big_mix, sizes, [least] if len(sizes) == 1
                                       else None, frozen_count=frozen)
        if big_frozen is not None and big_frozen[1].splitlines()[1] != f"{frozen} frozen colorings":
            errors.append(f"frozen K4xK2: oracle counts {frozen} frozen colorings")
        for i, (n, edges, lists) in enumerate(self.small):
            mix, frz = next(it), next(it)
            parts, frozen_list = oracle.classes(oracle.adjacency(n, edges),
                                                [frozenset(s) for s in lists])
            if mix is not None:
                errors += self._mix_errors(f"mix small {i}", mix, [len(p) for p in parts],
                                           [p[0] for p in parts], frozen_list=frozen_list)
            if frz is not None:
                got = [tuple(int(c) for c in line.split()) for line in frz[1].splitlines()[2:]]
                if got != frozen_list:
                    errors.append(f"frozen small {i}: {got} != oracle {frozen_list}")
        path_lists = [frozenset(range(1, self.PATH_COLORS + 1))] * 8
        space = oracle.reconfig_graph(self.k4k2, path_lists)
        for i, (a, b, _, _) in enumerate(self.paths):
            record = next(it)
            if record is not None:
                errors += self._path_errors(i, record, space, a, b, path_lists)
        cover = next(it)
        if cover is not None:
            errors += self._cover_errors(cover)
        for lemma, instance in self.COR:
            record = next(it)
            if record is None:
                continue
            fields = report_fields(record[1])
            if record[0] != 0 or fields.get("verdict") != "verified":
                errors.append(f"verify {lemma}: expected verified, got {record[1]!r}")
            else:
                errors += burnside_errors(f"verify {lemma}", fields, instance)
        for i, lift in enumerate(self.lifts):
            record = next(it)
            if record is not None:
                errors += self._lift_errors(i, lift, *record)
        return errors

    @staticmethod
    def _mix_errors(name, record, sizes, reps, frozen_count=None, frozen_list=None):
        rc, text = record
        lines = text.splitlines()[1:]
        head = f"{sum(sizes)} colorings, {len(sizes)} classes, "
        head += f"{frozen_count if frozen_list is None else len(frozen_list)} frozen"
        errors = []
        if lines[0] != head or rc != (0 if len(sizes) <= 1 else 1):
            errors.append(f"{name}: report {lines[0]!r} (exit {rc}), oracle {head!r}")
        classes = [re.match(r"class (\d+) size (\d+) representative (.*)", line)
                   for line in lines if line.startswith("class ")]
        got_sizes = [int(m.group(2)) for m in classes]
        if sorted(got_sizes) != sorted(sizes):
            errors.append(f"{name}: class sizes {got_sizes}, oracle {sizes}")
        if reps is not None:
            got_reps = [tuple(int(c) for c in m.group(3).split()) for m in classes]
            if got_reps != reps or got_sizes != sizes:
                errors.append(f"{name}: representatives {got_reps} (sizes {got_sizes}), "
                              f"oracle {reps} (sizes {sizes})")
        if frozen_list is not None:
            got = [tuple(int(c) for c in line.split()[1:]) for line in lines
                   if line.startswith("frozen ")]
            if got != frozen_list:
                errors.append(f"{name}: frozen {got}, oracle {frozen_list}")
        return errors

    def _path_errors(self, i, record, space, a, b, lists):
        import networkx as nx

        rc, text = record
        lines = text.splitlines()[1:]
        distance = nx.shortest_path_length(space, a, b)
        moves = [re.match(r"(\d+): (\d+) (\d+)", line).groups() for line in lines[1:] if line]
        if rc != 0 or lines[0] != f"{distance} moves" or len(moves) != distance:
            return [f"path {i}: report {lines[0]!r}, oracle distance {distance}"]
        phi = a
        for anchor, c1, c2 in moves:
            phi = oracle.apply_move(self.k4k2, lists, phi, int(anchor), (int(c1), int(c2)))
            if phi is None:
                return [f"path {i}: move {anchor}: {c1} {c2} is not L-valid"]
        return [] if phi == b else [f"path {i}: moves end at {phi}, not the goal {b}"]

    def _cover_errors(self, record):
        certified, failure, class_sizes, total = record
        space = oracle.colorings(self.k4k2, [frozenset(range(1, 5))] * 8)
        v, w = (0, 2, 4, 6), (1, 3, 5, 7)
        sizes = tuple(sum(1 for phi in space if phi[v[i - 1]] == phi[w[j - 1]])
                      for i, j in self.PARTITION)
        if not certified or class_sizes != sizes or total != len(space):
            return [f"cover certificate: certified={certified} ({failure}) sizes {class_sizes} "
                    f"of {total}; oracle sizes {sizes} of {len(space)}"]
        return []

    @staticmethod
    def _lift_errors(i, lift, moves, final):
        adj, lists, phi = lift["adj"], lift["lists"], lift["start"]
        for anchor, pair in moves:
            phi = oracle.apply_move(adj, lists, phi, anchor, pair)
            if phi is None:
                return [f"lift {i}: lifted move {anchor}: {pair} is not L-valid"]
        restricted = tuple(None if x in lift["absent"] else c for x, c in enumerate(phi))
        if phi != final or restricted != lift["expected"]:
            return [f"lift {i}: lifted moves end at {phi} (reported {final}), which does not "
                    f"restrict to the input trajectory's end {lift['expected']}"]
        return []


# ---------------------------------------------------------------------------
# plane-pipeline
# ---------------------------------------------------------------------------

DODECAHEDRON_FACES = [
    (0, 1, 2, 3, 4), (0, 5, 10, 6, 1), (1, 6, 11, 7, 2), (2, 7, 12, 8, 3),
    (3, 8, 13, 9, 4), (4, 9, 14, 5, 0), (15, 16, 11, 6, 10), (16, 17, 12, 7, 11),
    (17, 18, 13, 8, 12), (18, 19, 14, 9, 13), (19, 15, 10, 5, 14), (19, 18, 17, 16, 15),
]


def prism_faces(k):
    """Faces of the cubic plane prism C_k x K2, oriented consistently."""
    faces = [tuple(range(k)), tuple(range(2 * k - 1, k - 1, -1))]
    faces += [((i + 1) % k, i, k + i, k + (i + 1) % k) for i in range(k)]
    return faces


def random_plane_rotation(rng, n):
    """A connected plane graph with minimum degree 2, as a rotation system.

    Grows a triangulation by putting each new vertex inside a random face,
    then deletes random edges whose ends keep degree at least 2 and whose
    removal keeps the graph connected.
    """
    rotation = [[1, 2], [2, 0], [0, 1]]
    faces = [(0, 1, 2), (2, 1, 0)]
    for u in range(3, n):
        fi = rng.randrange(len(faces))
        a, b, c = faces[fi]
        rotation.append([a, c, b])
        for x, y in ((a, b), (b, c), (c, a)):
            rotation[y].insert(rotation[y].index(x) + 1, u)
        faces[fi] = (a, b, u)
        faces += [(b, c, u), (c, a, u)]
    for _ in range(3 * n):
        u = rng.randrange(n)
        v = rotation[u][rng.randrange(len(rotation[u]))]
        if len(rotation[u]) <= 2 or len(rotation[v]) <= 2:
            continue
        iu, iv = rotation[u].index(v), rotation[v].index(u)
        del rotation[u][iu], rotation[v][iv]
        adj = [frozenset(r) for r in rotation]
        if len(oracle.component(adj, [0] * n, 0, (0,))) < n:
            rotation[u].insert(iu, v)
            rotation[v].insert(iv, u)
    return [tuple(r) for r in rotation]


class PlanePipeline(Workload):
    name = "plane-pipeline"
    SPARSE = 48
    CUBIC = (("dodecahedron", 20, DODECAHEDRON_FACES),) + tuple(
        (f"C{k}xK2", 2 * k, prism_faces(k)) for k in (8, 10, 12))

    def draw(self):
        sizes = [20 + (60 * i) // (self.SPARSE - 1) for i in range(self.SPARSE)]
        self.rotations = [random_plane_rotation(self.rng, n) for n in sizes]
        self.texts = ["".join(f"{v}: {' '.join(map(str, rot))}\n" for v, rot in enumerate(r))
                      for r in self.rotations]

    def setup(self, k):
        self.graphs = [k.io.parse_plane_graph(text) for text in self.texts]
        self.graphs += [k.planar.plane_graph_from_faces(n, faces) for _, n, faces in self.CUBIC]

    def ops(self, k):
        out = []
        for i, pg in enumerate(self.graphs):
            out.append((f"faces {i}", lambda pg=pg: k.planar.trace_faces(pg),
                        lambda faces: tuple(f.edges for f in faces)))
            for kind in ("G3", "G2"):
                out.append((f"extract {kind} {i}",
                            lambda pg=pg, kind=kind: k.planar.extract_special_subgraph(pg, kind),
                            lambda sub: tuple(sorted(sub.host_edges()))))
            for variant in ("lemma1", "lemma2"):
                out.append((f"audit {variant} {i}",
                            lambda pg=pg, variant=variant: k.planar.structural_audit(pg, variant),
                            _audit_record))
            for variant in ("lemma1", "lemma2"):
                out.append((f"discharge {variant} {i}",
                            lambda pg=pg, variant=variant: k.discharging.run_discharging(pg, variant),
                            _discharge_record))
        return out

    def check(self, records):
        errors = []
        per_graph = 7
        for i, pg in enumerate(self.graphs):
            rotation = [tuple(r) for r in pg.rotation]  # what the program parsed or built
            rec = records[i * per_graph:(i + 1) * per_graph]
            errors += [f"graph {i}: {e}" for e in _plane_errors(rotation, i < self.SPARSE
                                                               and self.rotations[i], rec)]
        return errors


def _audit_record(r):
    # Plain copies: each round imports kempe afresh, so its classes differ by round.
    witnesses = tuple(SimpleNamespace(**dataclasses.asdict(w)) for w in r.witnesses)
    return r.threshold, witnesses, r.none_found, r.complete, r.notes


def _discharge_record(r):
    ledger = r.ledger
    transfers = tuple((t.source, t.sink, t.amount, t.rule) for t in ledger.transfers)
    return (r.total, r.rule_totals, tuple(ledger.vertex), tuple(ledger.face),
            tuple(ledger.pot), transfers)


def _plane_errors(rotation, drawn, records):
    """Faces, special subgraphs, audits and ledgers of one plane graph."""
    from fractions import Fraction

    faces, g3, g2, audit1, audit2, dis1, dis2 = records
    errors = []
    if drawn and rotation != [tuple(r) for r in drawn]:
        errors.append("parsed rotation differs from the input")
    n = len(rotation)
    edges = sorted({(min(u, v), max(u, v)) for u, rot in enumerate(rotation) for v in rot})
    g = oracle.to_nx(n, edges)
    degree = [len(rot) for rot in rotation]
    if faces is not None:
        lengths = [len(f) for f in faces]
        if n - len(edges) + len(faces) != 2 or sum(lengths) != 2 * len(edges) \
                or lengths != [len(walk) for walk in oracle.face_walks(rotation)]:
            errors.append(f"faces: V-E+F = {n}-{len(edges)}+{len(faces)}, "
                          f"lengths sum {sum(lengths)}, or lengths differ from the oracle's")
        face_lengths = lengths
    special = {kind: oracle.special_edges(g, rotation, kind) for kind in ("G3", "G2")}
    for kind, got in (("G3", g3), ("G2", g2)):
        if got is not None and set(got) != special[kind]:
            errors.append(f"extract {kind}: {len(got)} edges, oracle {len(special[kind])}")
    for variant, record in (("lemma1", audit1), ("lemma2", audit2)):
        if record is None:
            continue
        threshold, witnesses, none_found, complete, notes = record
        expected = max(11, max(degree) + 2) if variant == "lemma1" else 16
        if threshold != expected or not witnesses or none_found:
            errors.append(f"audit {variant}: threshold {threshold} (expected {expected}), "
                          f"{len(witnesses)} witnesses, notes {notes}")
        kind = "G3" if variant == "lemma1" else "G2"
        for w in witnesses:
            errors += [f"audit {variant}: {e}"
                       for e in oracle.witness_errors(g, special[kind], w, threshold)]
    for variant, record in (("lemma1", dis1), ("lemma2", dis2)):
        if record is None or faces is None:
            continue
        total, rule_totals, vertex, face, pot, transfers = record
        charges = {("v", v): Fraction(degree[v] - 4) for v in range(n)}
        charges.update({("f", i): Fraction(length - 4) for i, length in enumerate(face_lengths)})
        charges.update({("pot", i): Fraction(0) for i in range(len(pot))})
        if sum(charges.values()) != -8:
            errors.append(f"discharge {variant}: initial total {sum(charges.values())}")
        for source, sink, amount, _ in transfers:
            charges[source] -= amount
            charges[sink] += amount
        final = {("v", i): c for i, c in enumerate(vertex)}
        final.update({("f", i): c for i, c in enumerate(face)})
        final.update({("pot", i): c for i, c in enumerate(pot)})
        if (total != -8 or any(t != -8 for _, t in rule_totals) or charges != final
                or sum(final.values()) != -8):
            errors.append(f"discharge {variant}: total {total}, rule totals {rule_totals}, "
                          f"replayed transfers {'match' if charges == final else 'differ'}")
    return errors


WORKLOADS = {w.name: w for w in (VerifyExhaustive, ClassesLift, PlanePipeline)}

"""The Kempe reconfiguration graph over all L-colorings of a graph.

Nodes are L-colorings, edges are L-valid Kempe swaps.  Mixing classes are the
connected components; a graph is L-swappable iff there is at most one class.

ReconfigSpace holds this graph for one (g, L) pair and has one search, flood,
over one class: mixing classes, swappability, the explicit graph and shortest
paths are each a few lines over it.  It holds one int per coloring, the
per-color vertex bitmasks side by side, so a swap is one XOR and its list
validity a few integer operations; two-colored components come from a memo
shared by every space on the same graph.  Frozen colorings come from a
coloring search that cuts each branch where some one-vertex swap is L-valid.
Public results are always plain colorings in the deterministic order
produced by enumerate_L_colorings.

Classes are flooded over color-renaming orbits.  Let Sigma be the group of
color permutations that fix every list.  It permutes colors within types,
a type being a set of colors held by exactly the same vertices' lists, and
it acts on colorings by renaming.

(1) Every sigma in Sigma maps L-valid swaps to L-valid swaps.  Swapping the
    {c,d}-component C of phi has the vertex set C of the {sigma c, sigma d}-
    component of sigma phi, and a vertex of C colored c has d in its list
    iff it has sigma d, since sigma fixes the list.  So sigma is an
    automorphism of the reconfiguration graph and maps classes onto classes.
(2) Every orbit lies inside one class.  For a transposition (a b) inside a
    type, swap the {a,b}-components of phi one by one.  Each swap is
    L-valid, because a vertex colored a or b holds both colors; swapping one
    component leaves the vertex set colored a or b, and so the others as
    components.  The last swap reaches (a b) phi.  Such transpositions
    generate Sigma.
(3) So the classes are the components of the orbit graph, and by (1) the
    orbits next to an orbit are the orbits of the swaps out of any one
    member: flood expands the canonical member, canon, and maps canon over
    its neighbors.

A flood without a goal runs over orbits, as is_L_swappable and _classes
use it, counted by count_colorings.  Shortest paths stay on colorings: a
path between orbits is no path between colorings, so a flood with a goal,
equivalence_path's, runs over colorings.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, deque
from dataclasses import dataclass

from .coloring import (
    DEFAULT_MAX_COLORINGS,
    Coloring,
    ListAssignment,
    SwapMove,
    _check,
    _classify,
    _extensions,
    _pair_components,
    _require_bound,
    _require_budget,
    apply_moves,
    check_coloring,
    classify_swap_partial,
    color_universe,
    enumerate_L_colorings,
    partial_component,
)
from .errors import BudgetError, KempeError, ParameterError, PreconditionError
from .graphs import Graph, _components, induced_subgraph, is_connected, is_gallai_tree, slack_order


# ---------------------------------------------------------------------------
# The reconfiguration space
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _component_memo(n: int, adj) -> dict[int, tuple[int, ...]]:
    """Vertex-subset mask -> the masks of its components, filled as subsets are met.

    One memo per graph, shared by every space on it: all the assignments of
    one lemma, in each worker process.  It outlives the call that filled it
    while its graph is among the 8 most recent, and holds at most one entry
    per vertex subset met, so at most 2^n.  On the path P18 with lists
    {1,2,3} (393,216 colorings) mixing_classes leaves 6,765 entries, 2 MiB.
    """
    return {}


class ReconfigSpace:
    """The reconfiguration graph of one (g, L) pair, with one int per coloring.

    A key holds the vertex mask of color index i at bits [i*n, (i+1)*n).  A
    swap of a component between color indices i < j flips it in both
    segments: one XOR with the component times the pair's spread.  The color
    tables are built at once and the colorings when first used, so a search
    that never needs the whole space never enumerates it.  types holds each
    type of two or more color indices, ascending (see the module docstring),
    and steps each pair of neighbors in a type, as canon swaps them.
    """

    def __init__(self, g: Graph, lists: ListAssignment,
                 max_colorings: int = DEFAULT_MAX_COLORINGS):
        _require_budget(max_colorings)
        self.g = g
        self.lists = lists
        self.max_colorings = max_colorings
        self.universe = color_universe(lists)
        self.cindex = {c: i for i, c in enumerate(self.universe)}
        self.k = len(self.universe)
        self.n = n = g.n
        self.bits = [{c: 1 << self.cindex[c] * n + v for c in s} for v, s in enumerate(lists)]
        # allowed is the key of all (vertex, color) pairs that L allows, so the
        # low n bits of ~(allowed >> i*n) are the vertices whose lists lack i.
        allowed = sum(sum(b.values()) for b in self.bits)
        self.pairs = [(i, j, ~(allowed >> i * n), ~(allowed >> j * n), 1 << i * n | 1 << j * n)
                      for i, j in itertools.combinations(range(self.k), 2)]
        self.memo = _component_memo(n, g.adj)
        self.full = full = (1 << n) - 1
        holders: dict[int, list[int]] = {}
        for i in range(self.k):
            holders.setdefault(allowed >> i * n & full, []).append(i)
        self.types = [tuple(t) for t in holders.values() if len(t) > 1]
        self.steps = [(a * n, b * n, 1 << a * n | 1 << b * n)
                      for t in self.types for a, b in zip(t, t[1:])]

    @functools.cached_property
    def colorings(self) -> list[Coloring]:
        """All L-colorings, in enumerate_L_colorings order."""
        return enumerate_L_colorings(self.g, self.lists, self.max_colorings)

    def key_of(self, phi: Coloring) -> int:
        """The key of the L-coloring phi."""
        return sum([b[c] for b, c in zip(self.bits, phi)])

    def count_colorings(self) -> tuple[int, int | None]:
        """The number of Sigma-orbits of L-colorings and the key of the first
        L-coloring, listing none.

        The first is the first in enumerate_L_colorings order, None if there
        is no L-coloring.  The same budget check as enumerate_L_colorings
        comes before any work.  Only colorings in which each color of a type
        is first used after the color before it in the type are counted, one
        per orbit, and the first coloring is one of them (renaming a color
        that breaks the rule to the unused one before it gives an earlier
        coloring).  Its key is canonical.  A color not yet allowed holds the
        blocked bit, which every back mask holds, so the test stays one AND.

        This and frozen are the two coloring searches besides
        coloring._extensions.  This one is kept because is_L_swappable runs
        it on every assignment of a verify run: a plain counting recursion
        that keeps only the first coloring takes 0.12 s over the 1,517
        assignments of the barbell, short-theta, prism and k4k2 lemmas at
        cap 4, against 0.21 s for counting the colorings that generator
        yields (Python 3.11, one core of a 2-core x86-64 box).
        """
        g, n, k, full = self.g, self.n, self.k, self.full
        _require_bound(g, self.lists, self.max_colorings)
        order = [[self.cindex[c] for c in sorted(s)] for s in self.lists]
        blocked = 1 << n
        back = [m & (1 << v) - 1 | blocked for v, m in enumerate(g.masks)]
        # masks[k] is a spare slot: after[c] is the color that the first use
        # of c allows, or k.
        masks = [0] * (k + 1)
        after = [k] * k
        for t in self.types:
            for a, b in zip(t, t[1:]):
                after[a] = b
                masks[b] = blocked
        first = []

        def descend(v: int) -> int:
            if v == n:
                if not first:
                    first.append(sum((m & full) << i * n for i, m in enumerate(masks[:k])))
                return 1
            total = 0
            bit, near, w = 1 << v, back[v], v + 1
            for c in order[v]:
                m = masks[c]
                if not m & near:
                    masks[c] = m | bit
                    if m:
                        total += descend(w)
                    else:
                        masks[after[c]] ^= blocked
                        total += descend(w)
                        masks[after[c]] ^= blocked
                    masks[c] = m
            return total

        total = descend(0)
        return total, (first[0] if first else None)

    def canon(self, key: int) -> int:
        """The canonical member of the Sigma-orbit of key.

        Within each type the color segments are ordered by lowest vertex,
        unused colors last, by swapping neighboring segments of a type that
        are out of order until none is.  Segments a before b are out of order
        iff b has a vertex at or below the lowest of a, that is, (a ^ (a-1)) & b
        (for a = 0 that is b itself).  A canonical key, and every key when
        there is no type, costs one pass of tests.
        """
        full, steps = self.full, self.steps
        swapped = True
        while swapped:
            swapped = False
            for sa, sb, spread in steps:
                a = key >> sa & full
                b = key >> sb & full
                if (a ^ (a - 1)) & b:
                    key ^= (a ^ b) * spread
                    swapped = True
        return key

    def neighbors(self, key: int) -> list[int]:
        """The key of every coloring one L-valid swap away, by color pair, then component."""
        n, memo = self.n, self.memo
        full = (1 << n) - 1
        masks = [key >> i * n & full for i in range(self.k)]
        out = []
        for i, j, not_i, not_j, spread in self.pairs:
            mi, mj = masks[i], masks[j]
            comps = memo.get(mi | mj)
            if comps is None:
                comps = memo[mi | mj] = _components(self.g.masks, mi | mj)
            bad = mi & not_j | mj & not_i
            for comp in comps:
                if not comp & bad:
                    out.append(key ^ comp * spread)
        return out

    def move_between(self, key: int, new: int) -> SwapMove:
        """The normalized swap taking key to its neighbor new."""
        n, d = self.n, key ^ new
        i = ((d & -d).bit_length() - 1) // n
        j = (d.bit_length() - 1) // n
        comp = d >> i * n & (1 << n) - 1
        anchor = (comp & -comp).bit_length() - 1
        return SwapMove(anchor, (self.universe[i], self.universe[j]))

    def is_frozen(self, phi: Coloring) -> bool:
        """Whether the L-coloring phi admits no L-valid swap."""
        return not self.neighbors(self.key_of(phi))

    def frozen(self) -> list[Coloring]:
        """The frozen L-colorings, in enumerate_L_colorings order, by a pruned search.

        Vertices are colored in order, colors ascending, as enumeration does.
        Once the closed neighborhood of a vertex v is colored, the branch is
        cut if some color c in L(v) other than phi(v) is on no neighbor of v.
        No completion of it is frozen: no neighbor has phi(v), by properness,
        or c, so the {phi(v), c}-component of v is {v} alone, and swapping it
        gives v the color c of its list, an L-valid swap.  Each coloring that
        survives gets the full test, is_frozen's, at its leaf, and only those
        that pass become tuples.  On K4xK2 with lists {1..6} every branch is
        cut, where the unpruned filter tests all 65,160 colorings.  The same
        budget check as enumerate_L_colorings comes before any work.
        """
        g, n = self.g, self.n
        _require_bound(g, self.lists, self.max_colorings)
        order = [[self.cindex[c] for c in sorted(s)] for s in self.lists]
        back = [m & (1 << v) - 1 for v, m in enumerate(g.masks)]
        # closes[u]: the vertices whose closed neighborhood is colored once u is.
        closes = [[] for _ in range(n)]
        for v, m in enumerate(g.masks):
            closes[max(v, m.bit_length() - 1)].append((v, m, order[v]))
        masks = [0] * self.k
        phi = [0] * n
        out = []

        def descend(u: int) -> None:
            if u == n:
                key = sum(m << i * n for i, m in enumerate(masks))
                if not self.neighbors(key):
                    out.append(tuple(self.universe[i] for i in phi))
                return
            bit = 1 << u
            for c in order[u]:
                if not masks[c] & back[u]:
                    masks[c] |= bit
                    phi[u] = c
                    if not any(d != phi[v] and not masks[d] & near
                               for v, near, ds in closes[u] for d in ds):
                        descend(u + 1)
                    masks[c] ^= bit

        descend(0)
        del descend  # it refers to itself, and would hold self until a GC pass
        return out

    def flood(self, start: int, seen: dict, goal: int | None = None, stop_at: int = 0) -> None:
        """Search the class of start, a key already in seen.

        Returns once the class is exhausted, goal is reached, or seen holds
        stop_at keys.  Without a goal the search floods orbits depth-first:
        start is canonical, and seen gets the canonical key of each orbit of
        the class, mapped to the canonical key of the orbit it was reached
        from; those links are no swaps.  Depth-first reaches a whole class
        sooner: over the verify-exhaustive lemma set, is_L_swappable expands
        57,362 colorings depth-first against 82,981 breadth-first.

        With a goal the search floods colorings breadth-first: seen gets each
        coloring reached, mapped to the coloring it was reached from, so the
        links give a shortest path of swaps.
        """
        neighbors = self.neighbors
        if goal is None and self.types:
            canon, swaps = self.canon, neighbors

            def neighbors(key: int):
                return map(canon, swaps(key))

        frontier = deque([start])
        take = frontier.pop if goal is None else frontier.popleft
        while frontier:
            key = take()
            for new in neighbors(key):
                if new not in seen:
                    seen[new] = key
                    if new == goal or len(seen) == stop_at:
                        return
                    frontier.append(new)


def _classes(space: ReconfigSpace):
    """Yield the class number of every L-coloring, in space.colorings order.

    Classes are numbered 0, 1, ... in the order of their first colorings.
    Each is flooded over orbits into one dict from its first coloring's
    orbit, then the orbits that flood added are renumbered in place.  A
    flood stops once the dict holds every orbit: on K4xK2 with lists
    {1..6}, 65,160 colorings in 95 orbits and one class, it expands 29 of
    them.  When the first flood reaches every orbit, each number is 0 and no
    other coloring is converted to its key.
    """
    seen: dict = {}
    number = 0
    colorings = space.colorings
    total, _ = space.count_colorings()
    for phi in colorings:
        start = space.canon(space.key_of(phi))
        if start not in seen:
            seen[start] = None
            space.flood(start, seen, stop_at=total)
            if len(seen) == total and not number:
                yield from itertools.repeat(0, len(colorings))
                return
            for key in reversed(seen):
                seen[key] = number
                if key == start:
                    break
            number += 1
        yield seen[start]


# ---------------------------------------------------------------------------
# Mixing classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixingReport:
    """Partition of all L-colorings into Kempe-equivalence classes."""

    total: int
    class_count: int
    component_ids: tuple[int, ...]
    representatives: tuple[Coloring, ...]
    frozen: tuple[Coloring, ...]
    colorings: tuple[Coloring, ...]

    @property
    def is_L_swappable(self) -> bool:
        return self.class_count <= 1

    @classmethod
    def from_classes(cls, colorings, component_ids) -> "MixingReport":
        """The report of colorings whose class numbers, in first-coloring order, are given."""
        ids = tuple(component_ids)
        sizes = Counter(ids)
        reps = []
        for phi, c in zip(colorings, ids):
            if c == len(reps):
                reps.append(phi)
        frozen = tuple(phi for phi, c in zip(colorings, ids) if sizes[c] == 1)
        return cls(len(colorings), len(sizes), ids, tuple(reps), frozen, tuple(colorings))


def mixing_classes(g: Graph, lists: ListAssignment,
                   max_colorings: int = DEFAULT_MAX_COLORINGS) -> MixingReport:
    """Connected components of the reconfiguration graph.

    Representatives are the lexicographically least coloring of each class;
    frozen colorings are those admitting no valid swap at all, which are
    exactly the classes of one coloring (a swap always changes the coloring).
    """
    space = ReconfigSpace(g, lists, max_colorings)
    return MixingReport.from_classes(space.colorings, _classes(space))


def is_L_swappable(g: Graph, lists: ListAssignment,
                   max_colorings: int = DEFAULT_MAX_COLORINGS) -> bool:
    """Fast connectivity check: count the orbits, then flood from the first only."""
    space = ReconfigSpace(g, lists, max_colorings)
    total, start = space.count_colorings()
    if total <= 1:
        return True
    seen = {start: None}
    space.flood(start, seen, stop_at=total)
    return len(seen) == total


# ---------------------------------------------------------------------------
# Explicit reconfiguration graph (small instances; DOT export, diagnostics)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconfigGraph:
    colorings: tuple[Coloring, ...]
    edges: tuple[tuple[int, int, SwapMove], ...]
    component_ids: tuple[int, ...]


def build_reconfig_graph(g: Graph, lists: ListAssignment,
                         max_colorings: int = DEFAULT_MAX_COLORINGS) -> ReconfigGraph:
    """Materialize nodes and normalized edges; meant for small instances.

    Its colorings and component_ids make the MixingReport of the same space.
    """
    space = ReconfigSpace(g, lists, max_colorings)
    ids = tuple(_classes(space))
    index = {space.key_of(phi): a for a, phi in enumerate(space.colorings)}
    edges = sorted((a, index[new], space.move_between(key, new))
                   for key, a in index.items() for new in space.neighbors(key) if a < index[new])
    return ReconfigGraph(tuple(space.colorings), tuple(edges), ids)


# ---------------------------------------------------------------------------
# Equivalence paths
# ---------------------------------------------------------------------------

def equivalence_path(g: Graph, lists: ListAssignment, phi1: Coloring, phi2: Coloring,
                     max_colorings: int = DEFAULT_MAX_COLORINGS) -> list[SwapMove] | None:
    """A shortest sequence of L-valid swaps from phi1 to phi2, or None.

    The search explores phi1's class only and never enumerates the space;
    max_colorings bounds the colorings it reaches.  The returned sequence is
    replayed through apply_moves as a self-check before being handed back.
    """
    _require_budget(max_colorings)
    for phi in (phi1, phi2):
        result = check_coloring(g, lists, phi)
        if not result:
            raise PreconditionError(f"endpoint is not an L-coloring: {result}")
    if phi1 == phi2:
        return []
    space = ReconfigSpace(g, lists, max_colorings)
    start = space.key_of(phi1)
    goal = space.key_of(phi2)
    prev = {start: None}
    # Reaching one coloring past the budget is the error; the start alone
    # never is, so a frozen start gives None even at budget 0.
    stop_at = max(max_colorings, 1) + 1
    space.flood(start, prev, goal, stop_at)
    if len(prev) == stop_at:
        raise BudgetError(f"equivalence search exceeded {max_colorings} colorings",
                          max_colorings)
    if goal not in prev:
        return None
    trail = [goal]
    while prev[trail[-1]] is not None:
        trail.append(prev[trail[-1]])
    trail.reverse()
    moves = [space.move_between(a, b) for a, b in zip(trail, trail[1:])]
    try:
        reached = apply_moves(g, lists, phi1, moves)
    except PreconditionError as exc:
        raise KempeError(f"internal: path replay failed: {exc}") from exc
    if reached != phi2:
        raise KempeError("internal: path replay does not reach the target coloring")
    return moves


# ---------------------------------------------------------------------------
# Coloring classes and mixing certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassConstraint:
    """A set of colorings in disjunctive normal form.

    Each clause is a conjunction of (vertex, color) atoms; a coloring belongs
    to the class when some clause holds entirely.  The class L_{v,a} of all
    colorings with phi(v) = a is the single-clause constraint fix(v, a).
    """

    clauses: frozenset[frozenset[tuple[int, int]]]

    @staticmethod
    def fix(vertex: int, color: int) -> "ClassConstraint":
        return ClassConstraint(frozenset({frozenset({(vertex, color)})}))

    @staticmethod
    def conjunction(atoms) -> "ClassConstraint":
        return ClassConstraint(frozenset({frozenset(atoms)}))

    @staticmethod
    def everything() -> "ClassConstraint":
        return ClassConstraint(frozenset({frozenset()}))

    def union(self, other: "ClassConstraint") -> "ClassConstraint":
        return ClassConstraint(self.clauses | other.clauses)

    def intersect(self, other: "ClassConstraint") -> "ClassConstraint":
        """Pairwise clause conjunctions, dropping those that fix a vertex to two colors."""
        merged = (c1 | c2 for c1 in self.clauses for c2 in other.clauses)
        return ClassConstraint(frozenset(c for c in merged if len({v for v, _ in c}) == len(c)))

    def satisfied(self, phi: Coloring) -> bool:
        return any(all(phi[v] == c for v, c in clause) for clause in self.clauses)

    def validate(self, g: Graph, lists: ListAssignment) -> None:
        for clause in self.clauses:
            for v, c in clause:
                if not 0 <= v < g.n:
                    raise ParameterError(f"constraint names vertex {v} out of range")
                if c not in lists[v]:
                    raise ParameterError(f"constraint color {c} not in list of vertex {v}")


@dataclass(frozen=True)
class SubsetMixVerdict:
    mixes: bool
    empty: bool
    size: int


def subset_mixes(g: Graph, lists: ListAssignment, constraint: ClassConstraint,
                 max_colorings: int = DEFAULT_MAX_COLORINGS,
                 report: MixingReport | None = None) -> SubsetMixVerdict:
    """Whether all colorings satisfying the constraint are pairwise L-equivalent.

    Mixing is membership in one component of the full reconfiguration graph;
    intermediate colorings may leave the subset.  An empty subset mixes
    vacuously and is flagged.
    """
    constraint.validate(g, lists)
    if report is None:
        report = mixing_classes(g, lists, max_colorings)
    ids = [c for c, phi in zip(report.component_ids, report.colorings)
           if constraint.satisfied(phi)]
    if not ids:
        return SubsetMixVerdict(True, True, 0)
    return SubsetMixVerdict(len(set(ids)) == 1, False, len(ids))


@dataclass(frozen=True)
class CoverVerdict:
    certified: bool
    failure: str | None
    failing_index: int | None
    class_sizes: tuple[int, ...]
    total: int


def cover_certificate(g: Graph, lists: ListAssignment, classes,
                      max_colorings: int = DEFAULT_MAX_COLORINGS) -> CoverVerdict:
    """Check the mixing-cover proof pattern on explicit coloring classes.

    Conditions, in the order they are reported on failure: (a) every class
    mixes, (b) the union covers all L-colorings, (c) every class after the
    first intersects some earlier one.  All three passing certifies that the
    whole coloring set mixes.
    """
    classes = list(classes)
    report = mixing_classes(g, lists, max_colorings)
    members: list[set[int]] = []

    def verdict(failure=None, index=None) -> CoverVerdict:
        return CoverVerdict(failure is None, failure, index,
                            tuple(len(m) for m in members), report.total)

    for idx, constraint in enumerate(classes):
        constraint.validate(g, lists)
        nodes = {i for i, phi in enumerate(report.colorings) if constraint.satisfied(phi)}
        members.append(nodes)
        if len({report.component_ids[i] for i in nodes}) > 1:
            return verdict("class does not mix", idx)
    if len(set().union(*members)) != report.total:
        return verdict("union does not cover all L-colorings")
    for i in range(1, len(members)):
        if not any(members[i] & members[j] for j in range(i)):
            return verdict("no earlier class intersects this one", i)
    return verdict()


# ---------------------------------------------------------------------------
# Lifting through a vertex (single-vertex reduction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    moves: tuple[SwapMove, ...]
    final: Coloring


def _restrict(phi: Coloring, absent: frozenset[int]):
    return tuple(None if v in absent else phi[v] for v in range(len(phi)))


def _lift(g: Graph, lists: ListAssignment, start, moves, absent: frozenset[int],
          wider: frozenset[int], prepare):
    """Lift moves on g-wider to g-absent (start is a coloring of g-absent).

    Per input step: check the move on the restriction to g-wider; let
    prepare(psi, mv) return the swaps inside wider-absent that make the step
    liftable; replay them and the move on g-absent; check that the lifted
    step restricts to the input step.  Returns the lifted moves and the final
    coloring of g-absent as a partial tuple.
    """
    psi = start
    out: list[SwapMove] = []
    for step, mv in enumerate(moves):
        outcome = classify_swap_partial(g, lists, _restrict(psi, wider), mv, wider)
        if not outcome.valid:
            raise PreconditionError(f"input move {step} ({mv}) is not L-valid on the "
                                    f"reduced graph: {outcome.reason}")
        psi = _play(g, lists, psi, [*prepare(psi, mv), mv], absent, out, f"step {step}")
        if _restrict(psi, wider) != outcome.coloring:
            raise KempeError(f"internal: lifted step {step} does not restrict correctly")
    return out, psi


def _play(g: Graph, lists: ListAssignment, psi, moves, absent: frozenset[int], out, what: str):
    """Replay moves on g-absent, appending each to out; returns the coloring reached.

    Each move is anchored at the least vertex of its component.  Every lifted
    move passes here, so an invalid one is an internal error.
    """
    for mv in moves:
        replay = classify_swap_partial(g, lists, psi, mv, absent)
        if not replay.valid:
            raise KempeError(f"internal: lifted replay of {what} failed: {replay.reason}")
        psi = replay.coloring
        out.append(SwapMove(min(replay.component), mv.colors))
    return psi


def _peel(g: Graph, lists: ListAssignment, order, start, moves):
    """Lift moves on g minus the order's vertices to g, inserting them in order.

    Each insertion is a single-vertex lift through _lift.  An input swap
    replays directly when it cannot disturb the new vertex v; otherwise v is
    first parked on a color unused on its closed neighborhood (one exists
    because |L(v)| exceeds v's degree among the vertices present), which is
    itself a single-vertex Kempe swap.  start is a coloring of g.
    """
    absent = frozenset(order)
    for v in order:
        absent = absent - {v}
        live = [w for w in g.adj[v] if w not in absent]
        if len(lists[v]) <= len(live):
            raise PreconditionError(f"need |L({v})| > d({v}) = {len(live)}")

        def park(psi, mv):
            a, b = mv.colors
            if psi[v] not in (a, b) or v not in partial_component(g, psi, mv.anchor, (a, b), absent):
                return []
            if a in lists[v] and b in lists[v] and sum(1 for w in live if psi[w] in (a, b)) <= 1:
                return []
            used = {psi[w] for w in live} | {psi[v]}
            gamma = min(c for c in lists[v] if c not in used)
            # v sits on an alpha,beta-path, so the other pair color is used on
            # N[v]; gamma is therefore outside the pair.
            if gamma in (a, b):
                raise KempeError("internal: parking color collides with the swap pair")
            return [SwapMove(v, (psi[v], gamma))]

        moves, psi = _lift(g, lists, _restrict(start, absent), moves, absent, absent | {v}, park)
    return moves, psi


def lift_through_vertex(g: Graph, lists: ListAssignment, v: int, start: Coloring,
                        moves, target_color: int | None = None) -> LiftResult:
    """Lift an L-valid swap sequence on g-v to one on g.

    Moves on g-v keep the host vertex ids (their anchors are simply never v).
    Needs |L(v)| > d(v).  If target_color is given and the final coloring
    differs there, one last recoloring of v is appended (the target color must
    then be absent from v's neighborhood).
    """
    if not 0 <= v < g.n:
        raise ParameterError(f"vertex {v} out of range")
    chk = check_coloring(g, lists, start)
    if not chk:
        raise PreconditionError(f"start is not an L-coloring: {chk}")
    out, psi = _peel(g, lists, (v,), start, moves)
    if target_color is not None and psi[v] != target_color:
        if target_color not in lists[v]:
            raise PreconditionError(f"target color {target_color} not in list of vertex {v}")
        if any(psi[w] == target_color for w in g.adj[v]):
            raise PreconditionError(f"target color {target_color} is used on a neighbor of {v}; "
                                    f"not reachable by recoloring v")
        psi = _play(g, lists, psi, [SwapMove(v, (psi[v], target_color))], frozenset(), out,
                    "the target recolor")
    return LiftResult(tuple(out), psi)


# ---------------------------------------------------------------------------
# Versatile extensions and lifting through a subgraph
# ---------------------------------------------------------------------------

def find_versatile_extension(g: Graph, h_vertices, lists: ListAssignment, partial,
                             w: int, pair) -> Coloring:
    """Extend a coloring of g-H to g, preserving swap validity at w.

    The extension keeps the alpha,beta-swap at w L-valid and merges no two
    alpha,beta-components of the partial coloring into one.  Found by
    exhaustive search over proper list extensions of H (ascending vertex,
    ascending color), returning the first, hence lexicographically least,
    extension satisfying the contract.
    """
    h = frozenset(h_vertices)
    if not h:
        raise ParameterError("H must be nonempty")
    if any(not 0 <= x < g.n for x in h):
        raise ParameterError("H names vertices out of range")
    if not 0 <= w < g.n:
        raise ParameterError(f"anchor {w} out of range")
    if w in h:
        raise ParameterError(f"w = {w} must lie outside H")
    a, b = sorted(pair)
    if a == b:
        raise ParameterError("swap colors must differ")
    sub_h, _ = induced_subgraph(g, h)
    if not is_connected(sub_h):
        raise PreconditionError("H is not connected")
    if is_gallai_tree(sub_h).is_gallai_tree:
        raise PreconditionError("H is a Gallai tree")
    for x in sorted(h):
        if len(lists[x]) < g.degree(x):
            raise PreconditionError(f"|L({x})| = {len(lists[x])} < d_G({x}) = {g.degree(x)}")
    chk = _check(g, lists, partial, h)
    if not chk:
        raise PreconditionError(f"partial coloring is not an L-coloring of g-H: {chk}")
    if partial[w] not in (a, b):
        raise PreconditionError(f"not versatile at {w}: its color is outside the pair")
    swap = classify_swap_partial(g, lists, partial, SwapMove(w, (a, b)), h)
    if not swap.valid:
        raise PreconditionError(f"not versatile at {w}: {swap.reason}")
    return _versatile_extension(g, h, lists, partial, SwapMove(w, (a, b)))


def _versatile_extension(g: Graph, h: frozenset[int], lists: ListAssignment, partial,
                         move: SwapMove) -> Coloring:
    """The search of find_versatile_extension, for callers whose hypotheses already hold."""
    old_comps = _pair_components(g, partial, move.colors, h)

    def contract_ok(cand: Coloring) -> bool:
        if not _classify(g, lists, cand, move).valid:
            return False
        for comp in _pair_components(g, cand, move.colors, frozenset()):
            if sum(1 for p in old_comps if p <= comp) > 1:
                return False
        return True

    result = next((cand for cand in _extensions(g, lists, partial, sorted(h))
                   if contract_ok(cand)), None)
    if result is None:
        raise KempeError("no versatile extension exists although the hypotheses hold; "
                         "potential counterexample to the extension lemma")
    return result


@functools.lru_cache(maxsize=16)
def _hypothesis_verdict(n: int, adj, max_colorings: int):
    """degree_swappable_verdict of H at cap 4, kept: lifts through one H ask for it at every call."""
    from .verify import degree_swappable_verdict  # verify builds on this module

    return degree_swappable_verdict(Graph(n, adj), cap=4, max_colorings=max_colorings)


def lift_through_subgraph(g: Graph, h_vertices, lists: ListAssignment, start: Coloring,
                          moves, target: Coloring | None = None,
                          max_colorings: int = DEFAULT_MAX_COLORINGS) -> LiftResult:
    """Lift an L-valid swap sequence on g-H to one on g.

    The reduction hypotheses on H are checked first: the reduced sizes
    f'(x) = |L(x)| - (d_G(x) - d_H(x)) must be at least d_H(x).  With slack
    somewhere, an elimination order certifies H, and the sequence is peeled:
    the vertices of H are inserted along the order, each by a vertex lift.
    Otherwise H must not be a Gallai tree and a brute-force
    degree-swappability verdict at cap 4 must not find a counterexample; then
    per input step, the current g-H coloring is extended to one of g that is
    versatile for the step's swap, and the current coloring is bridged to that
    extension by Kempe swaps confined to H (found under the reduced list
    assignment that strips colors used just outside H).  If target is given,
    a final bridge inside H reaches it.

    Both branches lift through _lift, which checks every step once: the input
    move is L-valid on g-H (else a PreconditionError names the step), every
    lifted move replays on g from the checked start, and the lifted coloring
    restricts to the input trajectory.
    """
    _require_budget(max_colorings)
    h = frozenset(h_vertices)
    if not h or any(not 0 <= x < g.n for x in h):
        raise ParameterError("H must be a nonempty set of graph vertices")
    sub_h, vmap_h = induced_subgraph(g, h)
    if not is_connected(sub_h):
        raise PreconditionError("H is not connected")
    fp = {x: len(lists[x]) - (g.degree(x) - sub_h.degree(i))
          for i, x in enumerate(vmap_h)}
    for i, x in enumerate(vmap_h):
        if fp[x] < sub_h.degree(i):
            raise PreconditionError(f"f'({x}) = {fp[x]} < d_H({x}) = {sub_h.degree(i)}")
    has_slack = any(fp[x] > sub_h.degree(i) for i, x in enumerate(vmap_h))
    if has_slack:
        order = slack_order(sub_h, tuple(fp[x] for x in vmap_h))
        if order is None:
            raise KempeError("internal: no elimination order despite slack in a connected H")
    else:
        if is_gallai_tree(sub_h).is_gallai_tree:
            raise PreconditionError("H is a Gallai tree, hence not f'-choosable")
        verdict = _hypothesis_verdict(sub_h.n, sub_h.adj, max_colorings)
        if verdict.verdict == "counterexample":
            raise PreconditionError("H is not f'-swappable: counterexample assignment "
                                    f"{verdict.counterexample}")
    chk = check_coloring(g, lists, start)
    if not chk:
        raise PreconditionError(f"start is not an L-coloring: {chk}")
    if has_slack:
        # Inserting the vertices in order keeps every insertion's live degree
        # below its list size, so each stage is a single-vertex lift.
        out, psi = _peel(g, lists, [vmap_h[i] for i in order], start, moves)
    else:
        def extend(psi, mv):
            # H was checked above, _lift found mv L-valid on g-H, and psi is a
            # replayed L-coloring, so every hypothesis of the extension holds.
            extension = _versatile_extension(g, h, lists, _restrict(psi, h), mv)
            return _bridge_inside(g, h, sub_h, vmap_h, lists, psi, extension, max_colorings)

        out, psi = _lift(g, lists, start, moves, frozenset(), h, extend)
    if target is not None:
        tchk = check_coloring(g, lists, target)
        if not tchk:
            raise ParameterError(f"target is not an L-coloring: {tchk}")
        if _restrict(target, h) != _restrict(psi, h):
            raise ParameterError("target disagrees with the lifted sequence outside H")
        bridge = _bridge_inside(g, h, sub_h, vmap_h, lists, psi, target, max_colorings)
        psi = _play(g, lists, psi, bridge, frozenset(), out, "the target bridge")
        if psi != target:
            raise KempeError("internal: bridge did not reach the goal coloring")
    return LiftResult(tuple(out), psi)


def _bridge_inside(g: Graph, h: frozenset[int], sub_h: Graph, vmap_h, lists, psi, phi_goal,
                   max_colorings) -> list[SwapMove]:
    """Kempe swaps taking psi to phi_goal (equal outside H), found on sub_h, the graph H induces.

    They are searched under the reduced lists, which strip the colors used
    just outside H, so each one's component in g is its component in H.
    """
    if psi == phi_goal:
        return []
    reduced = tuple(
        frozenset(lists[x]) - {psi[y] for y in g.adj[x] if y not in h}
        for x in vmap_h)
    for i, s in enumerate(reduced):
        if not s:
            raise KempeError(f"internal: reduced list of vertex {vmap_h[i]} is empty")
    start_h = tuple(psi[x] for x in vmap_h)
    goal_h = tuple(phi_goal[x] for x in vmap_h)
    path = equivalence_path(sub_h, reduced, start_h, goal_h, max_colorings)
    if path is None:
        raise KempeError("H restrictions are not equivalent under the reduced assignment; "
                         "the f'-swappability hypothesis fails on this instance")
    return [SwapMove(vmap_h[mv.anchor], mv.colors) for mv in path]

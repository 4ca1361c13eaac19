"""Canonical degree-assignment enumeration and lemma-verification harnesses.

Assignments are enumerated up to global color permutation: two list
assignments are equivalent when one is obtained from the other by renaming
colors, and exactly one representative per orbit is emitted.  Lists are
encoded as bitmasks over the capped universe 1..cap; the canonical form of an
assignment is the minimum, over all color permutations, of its mask tuple.
This makes every prefix of a canonical assignment canonical too, which lets
the exhaustive stream prune whole subtrees during generation.

Every canonicity question is answered by one stabiliser chain.  Its step,
_narrow, keeps the permutation tables that map one more mask onto its
target, and gives None as soon as one maps it below: the whole image is then
below, while a table that maps it above stays above for every extension.
The exhaustive stream starts from every table and passes the stabiliser of
its prefix down.  The other chains start at _leads, the tables (the identity
among them) that map a mask to the least mask of its size, where every
canonical form starts: the orbit test chains from there across an image, and
canonicalize_assignment narrows to the least image at each position.

Graph automorphisms are a second symmetry: relabelling the vertices of the
graph by an automorphism keeps L-swappability too.  The stream does not
prune with them, so every report counts the same assignments as without
them.  Instead, an exhaustive run with the default swappability check skips
the check on an assignment that an automorphism and a color permutation map
to a smaller one, which the stream yielded, and the run checked, earlier.
f_swappable_verdict gives the argument in full.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
import time
from dataclasses import dataclass, replace

from .coloring import DEFAULT_MAX_COLORINGS, Coloring, ListAssignment, has_L_coloring
from .errors import ParameterError, PreconditionError
from .graphs import (
    FamilySpec,
    Graph,
    automorphisms,
    cartesian_product,
    delete_edge,
    generate,
    induced_subgraph,
    is_connected,
    is_gallai_tree,
    line_graph,
    parse_family,
    slack_order,
)
from .reconfig import (
    ClassConstraint,
    ReconfigSpace,
    is_L_swappable,
    mixing_classes,
    subset_mixes,
)

DEFAULT_MAX_ASSIGNMENTS = 2_000_000
#: Bound on the images of one assignment that the orbit test compares: each
#: automorphism contributes one per color permutation.
_ORBIT_IMAGES = 10_000
#: Assignments per worker in the verdict loop's largest batch.
_BATCH = 256


# ---------------------------------------------------------------------------
# Canonical assignment streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssignmentStream:
    """Specification of a canonical assignment enumeration.

    sizes gives the required list size per vertex (a degree assignment uses
    the degree sequence).  cap bounds the color universe 1..cap.  With sample
    set, the stream draws that many random assignments (seeded) instead of
    enumerating exhaustively.
    """

    sizes: tuple[int, ...]
    cap: int
    sample: int | None = None
    seed: int = 0


#: The largest color universe a canonical stream accepts.  _perm_tables
#: holds cap!-1 tables of 2^cap masks: cap 8 takes about 13 s to build on a
#: 2-core x86-64 box, and every further color multiplies time and memory by
#: more than 2*cap.
MAX_CAP = 8


@functools.lru_cache(maxsize=None)
def _perm_tables(cap: int) -> tuple[tuple[int, ...], ...]:
    """For each non-identity permutation of the cap colors, a mask-image table."""
    if cap > MAX_CAP:
        raise ParameterError(f"cap {cap} is above {MAX_CAP}: the canonical forms would need "
                             f"{cap}!-1 color permutation tables (the cap is at least the "
                             f"largest list size)")
    identity = tuple(range(cap))
    return tuple(tuple(sum(1 << perm[i] for i in range(cap) if mask >> i & 1)
                       for mask in range(1 << cap))
                 for perm in itertools.permutations(identity) if perm != identity)


@functools.lru_cache(maxsize=None)
def _color_sets(cap: int) -> tuple[frozenset[int], ...]:
    """The color set of each mask over the universe 1..cap."""
    return tuple(frozenset(i + 1 for i in range(cap) if mask >> i & 1)
                 for mask in range(1 << cap))


def _narrow(tables, mask, target):
    """The tables that map mask to target, or None if one maps it below target."""
    kept = []
    for table in tables:
        image = table[mask]
        if image < target:
            return None
        if image == target:
            kept.append(table)
    return kept


@functools.lru_cache(maxsize=None)
def _leads(cap: int, mask: int) -> tuple:
    """The color permutations, the identity range(1 << cap) among them, that
    map mask to the least mask of its size: the first step of the chain.

    Each entry scans all cap! tables, so it is built when first asked for: a
    run meets few of the 2^cap masks.
    """
    least = (1 << bin(mask).count("1")) - 1
    return tuple(_narrow((range(1 << cap), *_perm_tables(cap)), mask, least))


def _set_to_mask(colors) -> int:
    mask = 0
    for c in colors:
        mask |= 1 << (c - 1)
    return mask


def _assignment_masks(lists, cap: int) -> tuple[int, ...]:
    if any(c < 1 for s in lists for c in s):
        raise ParameterError("assignment uses colors below 1")
    masks = tuple(_set_to_mask(s) for s in lists)
    if any(m >> cap for m in masks):
        raise ParameterError(f"assignment uses colors above the cap {cap}")
    return masks


def canonicalize_assignment(lists, cap: int) -> ListAssignment:
    """The orbit representative of a list assignment under color permutation.

    The representative is the least image of the mask tuple under all color
    permutations.  Position by position it takes the least image among the
    tables that map the positions before to the representative, and narrows
    to the tables that reach it.
    """
    masks = _assignment_masks(lists, cap)
    # With no lists, mask 0 looks up every table, so a cap above MAX_CAP
    # still fails in _perm_tables.
    tables = _leads(cap, masks[0] if masks else 0)
    best = []
    for m in masks:
        best.append(min(table[m] for table in tables))
        tables = _narrow(tables, m, best[-1])
    sets = _color_sets(cap)
    return tuple([sets[m] for m in best])


def canonicalize_assignment_reference(lists, cap: int) -> ListAssignment:
    """canonicalize_assignment by comparing the images under every color
    permutation; the oracle for the stabiliser chain."""
    masks = _assignment_masks(lists, cap)
    best = masks
    for table in _perm_tables(cap):
        image = tuple(table[m] for m in masks)
        if image < best:
            best = image
    sets = _color_sets(cap)
    return tuple([sets[m] for m in best])


def enumerate_degree_assignments(stream: AssignmentStream, group=()):
    """Iterate canonical assignments for the stream, deterministically.

    Exhaustive mode yields every canonical assignment over the capped
    universe exactly once, in increasing mask-tuple order.  Sampled mode
    draws raw assignments uniformly with the stream's seed and canonicalizes
    each; orbits are hit with probability proportional to their size, which
    is uniform up to the (rare) assignments with nontrivial stabilizer.

    group, in exhaustive mode only, holds vertex permutations (tuples
    v -> image) that preserve the sizes.  An assignment that one of them,
    with a color permutation, maps to a smaller mask tuple is yielded as None
    in its place: the smaller one came earlier in the stream.
    """
    sizes = stream.sizes
    cap = stream.cap
    if any(s < 1 for s in sizes):
        raise ParameterError("list sizes must be at least 1")
    if cap < max(sizes, default=1):
        raise ParameterError(f"cap {cap} is smaller than the largest list size {max(sizes)}")
    if stream.sample is not None:
        if group:
            raise ParameterError("a vertex group applies to exhaustive streams only")
        rng = random.Random(stream.seed)
        for _ in range(stream.sample):
            raw = [frozenset(rng.sample(range(1, cap + 1), size)) for size in sizes]
            yield canonicalize_assignment(raw, cap)
        return
    tables = _perm_tables(cap)  # first, so that a cap above MAX_CAP fails at once
    sets = _color_sets(cap)
    candidates = {s: [m for m in range(1 << cap) if bin(m).count("1") == s]
                  for s in set(sizes)}
    n = len(sizes)
    prefix = []

    def descend(k: int, tables):
        # tables holds the non-identity permutations that fix prefix.
        if k == n:
            masks = tuple(prefix)
            # masks[0] is the least mask of its size, so the chain over the
            # image of masks under sigma starts at the leads of its first
            # mask, the identity among them when that mask is masks[0].
            for sigma in group:
                chain, i = _leads(cap, masks[sigma[0]]), 1
                while chain and i < n:  # None: the image is below masks
                    chain, i = _narrow(chain, masks[sigma[i]], masks[i]), i + 1
                if chain is None:
                    yield None
                    return
            yield tuple([sets[m] for m in masks])
            return
        for mask in candidates[sizes[k]]:
            fixers = _narrow(tables, mask, mask)
            if fixers is not None:
                prefix.append(mask)
                yield from descend(k + 1, fixers)
                prefix.pop()

    yield from descend(0, tables)


def count_assignment_orbits_reference(sizes, cap: int, group=()) -> int:
    """Independent orbit count: enumerate all raw assignments and dedupe.

    Orbits are under color permutation, and also under group when given: a
    group of vertex permutations (tuples v -> image, for example every
    automorphism of the graph) that preserves the sizes.  Each raw
    assignment is keyed by the set of canonical forms of its images under
    the group.  Cross-check oracle for the canonical stream; exponential,
    tiny inputs only.
    """
    options = [list(itertools.combinations(range(1, cap + 1), s)) for s in sizes]
    perms = [tuple(range(len(sizes))), *group]
    seen = set()
    for raw in itertools.product(*options):
        seen.add(frozenset(canonicalize_assignment_reference([frozenset(raw[v]) for v in sigma],
                                                             cap)
                           for sigma in perms))
    return len(seen)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChoosabilityReport:
    degree_choosable: bool
    exhaustive: bool
    witness: tuple[frozenset[int], ...] | None
    assignments_checked: int


def _uncolorable_failure(g: Graph, lists: ListAssignment) -> str | None:
    return None if has_L_coloring(g, lists) is not None else "no L-coloring"


def is_degree_choosable(g: Graph, cap: int | None = None, sample: int | None = None,
                        seed: int = 0, max_assignments: int | None = None) -> ChoosabilityReport:
    """Brute-force degree-choosability verdict.

    Checks that every canonical degree assignment admits an L-coloring.  The
    color universe is capped at max(cap, max degree) so that the standard
    non-colorable assignments of Gallai trees stay inside the search space.
    When ``sample`` is given, or the assignment budget runs out, the verdict
    is flagged as non-exhaustive.
    """
    if not is_connected(g):
        raise PreconditionError("degree-choosability test requires a connected graph")
    # The loop raises the cap to the largest list size, here the max degree.
    report = f_swappable_verdict(g, g.degrees(), cap=4 if cap is None else cap, sample=sample,
                                 seed=seed, max_assignments=max_assignments,
                                 checker=_uncolorable_failure)
    return ChoosabilityReport(report.verdict != "counterexample",
                              sample is None and report.verdict != "budget-exceeded",
                              report.counterexample, report.assignments_checked)


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    instance: str
    mode: str
    verdict: str  # "verified" | "counterexample" | "budget-exceeded"
    counterexample: ListAssignment | None = None
    detail: str = ""
    assignments_checked: int = 0
    seed: int = 0
    runtime: float = 0.0

    def summary(self) -> str:
        base = (f"lemma={self.lemma_id} instance={self.instance} mode={self.mode} "
                f"verdict={self.verdict} checked={self.assignments_checked} seed={self.seed}")
        if self.counterexample is not None:
            lists = " ".join(",".join(str(c) for c in sorted(s)) for s in self.counterexample)
            base += f" counterexample=[{lists}]"
        if self.detail:
            base += f" detail={self.detail}"
        return base


def _mode_string(stream: AssignmentStream) -> str:
    if stream.sample is not None:
        return f"sampled(N={stream.sample},seed={stream.seed},cap={stream.cap})"
    return f"exhaustive(cap={stream.cap})"


def _swappable_failure(g: Graph, lists: ListAssignment, max_colorings: int) -> str | None:
    return None if is_L_swappable(g, lists, max_colorings) else "not swappable"


def f_swappable_verdict(g: Graph, sizes, cap: int = 4, sample: int | None = None,
                        seed: int = 0, max_assignments: int | None = DEFAULT_MAX_ASSIGNMENTS,
                        max_colorings: int = DEFAULT_MAX_COLORINGS,
                        lemma_id: str = "f-swappable", instance: str = "",
                        checker=None, workers: int = 1) -> LemmaReport:
    """Check L-swappability over every canonical assignment with the given sizes.

    checker replaces the default whole-graph swappability check: it gets
    (g, lists) and returns an error string or None.  It must be picklable
    (a module-level function, or a functools.partial of one) when
    workers > 1, since every check then runs in a pool of workers.  Only the
    calling thread reads the stream, in batches that start at 8 assignments
    per worker and double up to _BATCH per worker, and each batch is checked
    in full before the next is drawn.  The checks get only the assignments
    of a batch that need one; the calling thread counts the skipped ones in
    stream order.  Stops at the first counterexample in stream order, so the
    report is the same for any worker count.
    max_assignments=None checks the whole stream.

    An exhaustive run with the default check skips the check on assignments
    that an automorphism of g (one that keeps the sizes), with a color
    permutation, maps to a smaller one.  Each still counts as checked.  This
    is sound because swappability and the coloring budget are invariant under
    both relabellings, and the stream yields each assignment that is least
    under color permutation once, in increasing order.  So the least member
    of the orbit came earlier and was checked: had it failed, the run would
    have stopped there.  The least member is never skipped, so the argument
    holds for any subset of the automorphisms, any max_assignments cut and
    any worker count.  The run takes at most the first _ORBIT_IMAGES // cap!
    automorphisms in search order, which bounds the images compared per
    assignment by _ORBIT_IMAGES, well below the cost of one check.  A custom
    checker or a sampled stream checks every assignment: sampled draws are
    unordered and may repeat, and each checker would need its own
    invariance argument.
    """
    for name, value, least in (("sample", sample, 1), ("max_assignments", max_assignments, 0),
                               ("max_colorings", max_colorings, 0), ("workers", workers, 1)):
        if value is not None and value < least:
            raise ParameterError(f"{name} must be at least {least}, got {value}")
    if len(sizes) != g.n:
        raise ParameterError(f"list assignment covers {len(sizes)} vertices, graph has {g.n}")
    t0 = time.perf_counter()
    cap = max(cap, max(sizes, default=1))  # the stream must admit the sizes
    spec = AssignmentStream(tuple(sizes), cap, sample, seed)
    tables = _perm_tables(cap)  # here, so that a cap above MAX_CAP fails before a pool starts
    group = ()
    if checker is None and sample is None:
        # Past the identity, which comes first; each costs up to cap! images.
        auts = itertools.islice(automorphisms(g), 1, _ORBIT_IMAGES // (len(tables) + 1))
        group = [sigma for sigma in auts if all(sizes[v] == sizes[w] for v, w in enumerate(sigma))]
    stream = enumerate_degree_assignments(spec, group)
    assignments = itertools.islice(stream, max_assignments)
    check = (functools.partial(checker, g) if checker else
             functools.partial(_swappable_failure, g, max_colorings=max_colorings))
    pool, check_batch = contextlib.nullcontext(), functools.partial(map, check)
    if workers > 1:
        # Imported here, not at the top: the import alone adds about 1 MiB to
        # the peak memory of every run that loads this module.
        import multiprocessing

        pool = multiprocessing.Pool(workers)
        check_batch = functools.partial(pool.map, check, chunksize=8)

    def finish(verdict, checked, **kw):
        return LemmaReport(lemma_id, instance, _mode_string(spec), verdict,
                           assignments_checked=checked, seed=seed,
                           runtime=time.perf_counter() - t0, **kw)

    checked, size = 0, 8 * workers  # a chunk per worker, so a run that stops early draws few
    with pool:  # idle between batches, so leaving it terminates no work
        while batch := list(itertools.islice(assignments, size)):
            size = min(2 * size, _BATCH * workers)
            failures = iter(check_batch([lists for lists in batch if lists is not None]))
            for lists in batch:  # None stands for a skipped assignment
                checked += 1
                if lists is not None and (failure := next(failures)) is not None:
                    return finish("counterexample", checked, counterexample=lists, detail=failure)
    for _ in stream:  # an item is left
        return finish("budget-exceeded", checked, detail=f"stopped after {checked} assignments")
    return finish("verified", checked)


def degree_swappable_verdict(g: Graph, cap: int = 4, sample: int | None = None,
                             seed: int = 0, max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
                             max_colorings: int = DEFAULT_MAX_COLORINGS,
                             instance: str = "", workers: int = 1) -> LemmaReport:
    """Brute-force degree-swappability: one mixing run per canonical degree assignment."""
    if not is_connected(g):
        raise ParameterError("degree-swappability verdict requires a connected graph")
    return f_swappable_verdict(g, g.degrees(), cap=cap, sample=sample, seed=seed,
                               max_assignments=max_assignments, max_colorings=max_colorings,
                               lemma_id="degree-swappable", instance=instance, workers=workers)


def frozen_colorings(g: Graph, lists: ListAssignment,
                     max_colorings: int = DEFAULT_MAX_COLORINGS) -> list[Coloring]:
    """All L-colorings with no incident L-valid swap."""
    return ReconfigSpace(g, lists, max_colorings).frozen()


# ---------------------------------------------------------------------------
# Lemma harnesses
# ---------------------------------------------------------------------------

def _big_intersection_failure(g: Graph, lists: ListAssignment, edges,
                              max_colorings: int) -> str | None:
    for u, v in edges:
        if len(lists[u] & lists[v]) <= 1:
            if not is_L_swappable(g, lists, max_colorings):
                return f"not swappable though |L({u}) ^ L({v})| <= 1"
    return None


def _first_unmixed(g: Graph, lists: ListAssignment, max_colorings: int, subsets) -> str | None:
    """The message of the first (constraint, message) whose colorings do not mix, or None."""
    if is_L_swappable(g, lists, max_colorings):
        return None  # every subset of the one class mixes
    report = mixing_classes(g, lists, max_colorings)
    return next((message for constraint, message in subsets
                 if not subset_mixes(g, lists, constraint, report=report).mixes), None)


def _cor_fix_one_failure(g: Graph, lists: ListAssignment, targets,
                         max_colorings: int) -> str | None:
    return _first_unmixed(g, lists, max_colorings, (
        (ClassConstraint.fix(v, alpha), f"L_({v},{alpha}) does not mix")
        for v in targets for alpha in sorted(lists[v])
        if any(alpha not in lists[w] for w in g.adj[v])))


def _cor_fix_two_failure(g: Graph, lists: ListAssignment, triples,
                         max_colorings: int) -> str | None:
    return _first_unmixed(g, lists, max_colorings, (
        (ClassConstraint.conjunction([(v, alpha), (x, alpha)]),
         f"L_({v},{alpha}) ^ L_({x},{alpha}) does not mix")
        for v, _, x in triples for alpha in sorted(lists[v] & lists[x])))


def _spec(instance, default: FamilySpec, lemma_id: str | None = None) -> FamilySpec:
    """The instance's family spec, or the default; of the default's family when lemma_id is set."""
    if instance is None:
        return default
    spec = instance if isinstance(instance, FamilySpec) else parse_family(str(instance))
    if lemma_id is not None and spec.family != default.family:
        raise ParameterError(f"{lemma_id} lemma needs a {default.family} instance, got {spec}")
    return spec


def _barbell(instance, max_colorings):
    spec = _spec(instance, FamilySpec("barbell", (4, 4, 0)), "barbell")
    c1, c2, _ = spec.params
    if c1 % 2 or c2 % 2:
        raise ParameterError(f"{spec} is not a bipartite barbell: both cycle lengths "
                             f"must be even")
    h = line_graph(generate(spec))
    return h, h.degrees(), f"line_graph({spec})", None


def _k4k2(instance, max_colorings):
    if instance is not None:
        raise ParameterError("k4k2 takes no instance parameter")
    g = cartesian_product(generate(FamilySpec("clique", (4,))),
                          generate(FamilySpec("clique", (2,))))
    return g, (4,) * g.n, "K4xK2, 4-assignments", None


def _short_theta(instance, max_colorings):
    spec = _spec(instance, FamilySpec("theta", (1, 3, 3)), "short-theta")
    lengths = sorted(spec.params)
    if lengths[0] != 1:
        raise ParameterError(f"{spec} has no path of length 1")
    if any(l % 2 == 0 for l in lengths):
        raise ParameterError(f"{spec} is not bipartite: all path lengths must share parity")
    h = line_graph(generate(spec))
    return h, h.degrees(), f"line_graph({spec})", None


def _prism(instance, max_colorings):
    spec = _spec(instance, FamilySpec("prism", (2, 1, 1)), "prism")
    if spec.params == (1, 1, 1):
        raise ParameterError("prism(1,1,1) is K3 x K2, the excluded instance")
    g = generate(spec)
    return g, g.degrees(), str(spec), None


def _big_intersection(instance, max_colorings):
    spec = _spec(instance, FamilySpec("clique", (4,)))
    g = generate(spec)
    edges = []
    for u, v in g.edges():
        reduced = delete_edge(g, u, v)
        if is_connected(reduced) and not is_gallai_tree(reduced).is_gallai_tree:
            edges.append((u, v))
    if not edges:
        raise ParameterError(f"{spec} has no edge vw with g-vw connected and degree-choosable")
    check = functools.partial(_big_intersection_failure, edges=edges, max_colorings=max_colorings)
    return g, g.degrees(), f"{spec}, edges {edges}", check


def _cor_order(instance, max_colorings):
    spec = _spec(instance, FamilySpec("cycle", (4,)))
    g = generate(spec)
    if not is_connected(g):
        raise ParameterError("cor-order needs a connected instance")
    sizes = list(g.degrees())
    sizes[0] += 1  # slack at vertex 0; ordering by distance then exists
    if slack_order(g, sizes) is None:
        raise ParameterError("no elimination order exists despite slack")
    return g, tuple(sizes), f"{spec}, degree sizes with slack at 0", None


def _cor_fix_one(instance, max_colorings):
    spec = _spec(instance, FamilySpec("cycle", (4,)))
    g = generate(spec)
    targets = [v for v in range(g.n)
               if is_connected(induced_subgraph(g, set(range(g.n)) - {v})[0])]
    check = functools.partial(_cor_fix_one_failure, targets=targets, max_colorings=max_colorings)
    return g, g.degrees(), str(spec), check


def _cor_fix_two(instance, max_colorings):
    spec = _spec(instance, FamilySpec("theta", (1, 2, 2)))
    g = generate(spec)
    triples = []
    for w in range(g.n):
        for v, x in itertools.combinations(g.adj[w], 2):
            if g.has_edge(v, x):
                continue
            rest, _ = induced_subgraph(g, set(range(g.n)) - {v, x})
            if rest.n and is_connected(rest):
                triples.append((v, w, x))
    if not triples:
        raise ParameterError(f"{spec} has no admissible (v,w,x) triple")
    check = functools.partial(_cor_fix_two_failure, triples=triples, max_colorings=max_colorings)
    return g, g.degrees(), str(spec), check


# Each lemma maps (instance, max_colorings) to (graph, list sizes, instance
# text, check) for one f_swappable_verdict run; a check of None is
# whole-graph swappability.
_LEMMAS = {
    "barbell": _barbell,
    "k4k2": _k4k2,
    "short-theta": _short_theta,
    "prism": _prism,
    "big-intersection": _big_intersection,
    "cor-order": _cor_order,
    "cor-fix-one": _cor_fix_one,
    "cor-fix-two": _cor_fix_two,
}

#: Default smallest-instance schedule for the combined reduction lemma.  The
#: lemma quantifies over the infinite families of bipartite barbells and
#: bipartite theta-graphs; only this finite schedule is machine-checked.
REDUC_SCHEDULE = (
    ("barbell", FamilySpec("barbell", (4, 4, 0))),
    ("barbell", FamilySpec("barbell", (4, 4, 1))),
    ("short-theta", FamilySpec("theta", (1, 3, 3))),
    ("prism", FamilySpec("prism", (1, 1, 3))),  # line graph of theta(2,2,4)
    ("k4k2", None),
)


def verify_lemma(lemma_id: str, instance=None, cap: int = 4, sample: int | None = None,
                 seed: int = 0, max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
                 max_colorings: int = DEFAULT_MAX_COLORINGS, workers: int = 1) -> LemmaReport:
    """Brute-force check of one named swappability statement.

    Instances outside a lemma's hypothesis space (an odd barbell cycle, the
    prism K3 x K2, a theta with no length-1 path for short-theta) are
    rejected with a parameter error naming the exclusion.
    """
    budgets = dict(cap=cap, sample=sample, seed=seed, max_assignments=max_assignments,
                   max_colorings=max_colorings, workers=workers)
    if lemma_id == "reduc-lem":
        return _verify_reduc(instance, budgets)
    entry = _LEMMAS.get(lemma_id)
    if entry is None:
        known = sorted([*_LEMMAS, "reduc-lem"])
        raise ParameterError(f"unknown lemma id {lemma_id!r}; known: {known}")
    g, sizes, text, check = entry(instance, max_colorings)
    return f_swappable_verdict(g, sizes, lemma_id=lemma_id, instance=text, checker=check,
                               **budgets)


def _verify_reduc(instance, budgets) -> LemmaReport:
    if instance is not None:
        raise ParameterError("reduc-lem runs its fixed smallest-instance schedule; "
                             "verify the sub-lemmas directly for other instances")
    t0 = time.perf_counter()
    checked = 0
    parts = []
    for sub_id, sub_instance in REDUC_SCHEDULE:
        report = verify_lemma(sub_id, sub_instance, **budgets)
        checked += report.assignments_checked
        parts.append(f"{sub_id}({report.instance}):{report.verdict}")
        if report.verdict != "verified":
            return replace(report, lemma_id="reduc-lem", detail="; ".join(parts))
    return LemmaReport("reduc-lem", "smallest-instance schedule",
                       f"schedule(cap={budgets['cap']})",
                       "verified", detail="; ".join(parts) + "; infinite families not "
                       "machine-checked beyond this schedule",
                       assignments_checked=checked, seed=budgets["seed"],
                       runtime=time.perf_counter() - t0)

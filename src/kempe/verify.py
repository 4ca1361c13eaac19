"""Canonical degree-assignment enumeration and lemma-verification harnesses.

Assignments are enumerated up to global color permutation: two list
assignments are equivalent when one is obtained from the other by renaming
colors, and exactly one representative per orbit is emitted.  Lists are
encoded as bitmasks over the capped universe 1..cap; the canonical form of an
assignment is the minimum, over all color permutations, of its mask tuple.
This makes every prefix of a canonical assignment canonical too, which lets
the exhaustive stream prune whole subtrees during generation.
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


@functools.lru_cache(maxsize=None)
def _perm_tables(cap: int) -> tuple[tuple[int, ...], ...]:
    """For each non-identity permutation of the cap colors, a mask-image table."""
    tables = []
    for perm in itertools.permutations(range(cap)):
        if perm == tuple(range(cap)):
            continue
        table = [0] * (1 << cap)
        for mask in range(1 << cap):
            img = 0
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                img |= 1 << perm[i]
            table[mask] = img
        tables.append(tuple(table))
    return tuple(tables)


def _is_prefix_canonical(prefix: list[int], tables) -> bool:
    """Is the mask tuple lexicographically minimal over all color permutations?"""
    for table in tables:
        for mask in prefix:
            image = table[mask]
            if image < mask:
                return False
            if image > mask:
                break
    return True


def _mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        i = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.add(i + 1)
    return frozenset(out)


def _set_to_mask(colors) -> int:
    mask = 0
    for c in colors:
        mask |= 1 << (c - 1)
    return mask


def canonicalize_assignment(lists, cap: int) -> ListAssignment:
    """The orbit representative of a list assignment under color permutation."""
    masks = tuple(_set_to_mask(s) for s in lists)
    if any(m >> cap for m in masks):
        raise ParameterError(f"assignment uses colors above the cap {cap}")
    best = masks
    for table in _perm_tables(cap):
        image = tuple(table[m] for m in masks)
        if image < best:
            best = image
    return tuple(_mask_to_set(m) for m in best)


def enumerate_degree_assignments(stream: AssignmentStream):
    """Iterate canonical assignments for the stream, deterministically.

    Exhaustive mode yields every canonical assignment over the capped
    universe exactly once, in increasing mask-tuple order.  Sampled mode
    draws raw assignments uniformly with the stream's seed and canonicalizes
    each; orbits are hit with probability proportional to their size, which
    is uniform up to the (rare) assignments with nontrivial stabilizer.
    """
    sizes = stream.sizes
    cap = stream.cap
    if any(s < 1 for s in sizes):
        raise ParameterError("list sizes must be at least 1")
    if cap < max(sizes, default=1):
        raise ParameterError(f"cap {cap} is smaller than the largest list size {max(sizes)}")
    if stream.sample is not None:
        rng = random.Random(stream.seed)
        for _ in range(stream.sample):
            raw = [frozenset(rng.sample(range(1, cap + 1), size)) for size in sizes]
            yield canonicalize_assignment(raw, cap)
        return
    tables = _perm_tables(cap)
    candidates = {s: [m for m in range(1 << cap) if bin(m).count("1") == s]
                  for s in set(sizes)}
    n = len(sizes)
    prefix: list[int] = []

    def descend(k: int):
        if k == n:
            yield tuple(_mask_to_set(m) for m in prefix)
            return
        for mask in candidates[sizes[k]]:
            prefix.append(mask)
            if _is_prefix_canonical(prefix, tables):
                yield from descend(k + 1)
            prefix.pop()

    yield from descend(0)


def count_assignment_orbits_reference(sizes, cap: int) -> int:
    """Independent orbit count: enumerate all raw assignments and dedupe.

    Cross-check oracle for the canonical stream; exponential, tiny inputs only.
    """
    options = [list(itertools.combinations(range(1, cap + 1), s)) for s in sizes]
    seen = set()
    for raw in itertools.product(*options):
        seen.add(canonicalize_assignment([frozenset(s) for s in raw], cap))
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


def _check_task(task):
    """Check one assignment; the result carries the assignment back to the verdict loop."""
    check, g, lists = task
    return lists, check(g, lists)


def f_swappable_verdict(g: Graph, sizes, cap: int = 4, sample: int | None = None,
                        seed: int = 0, max_assignments: int | None = DEFAULT_MAX_ASSIGNMENTS,
                        max_colorings: int = DEFAULT_MAX_COLORINGS,
                        lemma_id: str = "f-swappable", instance: str = "",
                        checker=None, workers: int = 1) -> LemmaReport:
    """Check L-swappability over every canonical assignment with the given sizes.

    checker replaces the default whole-graph swappability check: it gets
    (g, lists) and returns an error string or None.  It must be picklable
    (a module-level function, or a functools.partial of one) when
    workers > 1, since every check then runs in a pool of workers.  Stops at
    the first counterexample in stream order, so the report is the same for
    any worker count.  max_assignments=None checks the whole stream.
    """
    for name, value, least in (("sample", sample, 1), ("max_assignments", max_assignments, 0),
                               ("max_colorings", max_colorings, 0), ("workers", workers, 1)):
        if value is not None and value < least:
            raise ParameterError(f"{name} must be at least {least}, got {value}")
    t0 = time.perf_counter()
    cap = max(cap, max(sizes, default=1))  # the stream must admit the sizes
    spec = AssignmentStream(tuple(sizes), cap, sample, seed)
    stream = enumerate_degree_assignments(spec)
    check = checker or functools.partial(_swappable_failure, max_colorings=max_colorings)
    tasks = ((check, g, lists) for lists in itertools.islice(stream, max_assignments))
    if workers > 1:
        # Imported here, not at the top: the import alone adds about 1 MiB to
        # the peak memory of every run that loads this module.
        import multiprocessing

        pool = multiprocessing.Pool(workers)
        results = pool.imap(_check_task, tasks, chunksize=8)
    else:
        pool = contextlib.nullcontext()
        results = map(_check_task, tasks)

    def finish(verdict, checked, **kw):
        return LemmaReport(lemma_id, instance, _mode_string(spec), verdict,
                           assignments_checked=checked, seed=seed,
                           runtime=time.perf_counter() - t0, **kw)

    checked = 0
    with pool:
        for lists, failure in results:
            checked += 1
            if failure is not None:
                return finish("counterexample", checked, counterexample=lists, detail=failure)
    # The pool is closed, so no other thread reads the stream any more.
    if next(stream, None) is not None:
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
    space = ReconfigSpace(g, lists, max_colorings)
    return [phi for phi in space.colorings if space.is_frozen(phi)]


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


def _cor_fix_one_failure(g: Graph, lists: ListAssignment, targets,
                         max_colorings: int) -> str | None:
    report = mixing_classes(g, lists, max_colorings)
    for v in targets:
        for alpha in sorted(lists[v]):
            if any(alpha not in lists[w] for w in g.adj[v]):
                verdict = subset_mixes(g, lists, ClassConstraint.fix(v, alpha), report=report)
                if not verdict.mixes:
                    return f"L_({v},{alpha}) does not mix"
    return None


def _cor_fix_two_failure(g: Graph, lists: ListAssignment, triples,
                         max_colorings: int) -> str | None:
    report = mixing_classes(g, lists, max_colorings)
    for v, w, x in triples:
        for alpha in sorted(lists[v] & lists[x]):
            constraint = ClassConstraint.conjunction([(v, alpha), (x, alpha)])
            if not subset_mixes(g, lists, constraint, report=report).mixes:
                return f"L_({v},{alpha}) ^ L_({x},{alpha}) does not mix"
    return None


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

"""List assignments, proper L-colorings, Kempe components, and swap validity.

A list assignment is a tuple of frozensets of colors, one per vertex; colors
are small positive integers.  A coloring is a tuple of colors indexed by
vertex.  Partial colorings (used by the lifting machinery) put None at the
missing vertices; all public operations here require total colorings.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import BudgetError, ParameterError, PreconditionError
from .graphs import Graph, _bits, _components

ListAssignment = tuple  # tuple[frozenset[int], ...]
Coloring = tuple  # tuple[int, ...]

#: Hard cap on enumerated colorings; exponential objects fail loudly.
DEFAULT_MAX_COLORINGS = 5_000_000


def make_lists(sets) -> ListAssignment:
    """Normalize an iterable of color iterables into a list assignment."""
    lists = tuple(frozenset(s) for s in sets)
    for v, s in enumerate(lists):
        if not s:
            raise ParameterError(f"empty color list at vertex {v}")
        if any(not isinstance(c, int) or c < 0 for c in s):
            raise ParameterError(f"colors must be nonnegative integers, vertex {v} has {sorted(s)}")
    return lists


def color_universe(lists: ListAssignment) -> tuple[int, ...]:
    return tuple(sorted(set().union(*lists))) if lists else ()


@dataclass(frozen=True)
class SwapMove:
    """A Kempe move: swap the two colors on the anchor's component.

    Normalized form has colors (a, b) with a < b and the anchor equal to the
    minimum vertex id of its Kempe component.
    """

    anchor: int
    colors: tuple[int, int]

    def __post_init__(self):
        a, b = self.colors
        if a == b:
            raise ParameterError(f"swap colors must differ, got {{{a},{b}}}")
        if a > b:
            object.__setattr__(self, "colors", (b, a))

    def __str__(self) -> str:
        return f"{self.colors[0]},{self.colors[1]}-swap at {self.anchor}"


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    bad_vertex: int | None = None
    bad_edge: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_coloring(g: Graph, lists: ListAssignment, phi: Coloring) -> CheckResult:
    """True iff phi is proper and list-respecting; reports the first violation.

    List violations are scanned first (ascending vertex), then properness
    (lexicographic edge order).
    """
    _require_total(g, phi)
    _require_lists(g, lists)
    return _check(g, lists, phi)


def _check(g: Graph, lists: ListAssignment, phi,
           absent: frozenset[int] = frozenset()) -> CheckResult:
    """check_coloring on g minus the absent vertices (phi is None there)."""
    for v in range(g.n):
        if v in absent:
            if phi[v] is not None:
                raise ParameterError(f"vertex {v} should be uncolored")
            continue
        if phi[v] is None:
            raise ParameterError(f"vertex {v} should be colored")
        if phi[v] not in lists[v]:
            return CheckResult(False, bad_vertex=v)
    for v in range(g.n):
        if v in absent:
            continue
        for w in g.adj[v]:
            if v < w and w not in absent and phi[v] == phi[w]:
                return CheckResult(False, bad_edge=(v, w))
    return CheckResult(True)


def _require_total(g: Graph, phi) -> None:
    if len(phi) != g.n or any(c is None for c in phi):
        raise PreconditionError("coloring must assign a color to every vertex")


def _require_lists(g: Graph, lists) -> None:
    if len(lists) != g.n:
        raise ParameterError(f"list assignment covers {len(lists)} vertices, graph has {g.n}")


def enumerate_L_colorings(g: Graph, lists: ListAssignment,
                          max_colorings: int = DEFAULT_MAX_COLORINGS) -> list[Coloring]:
    """All L-colorings in lexicographic vertex-major order.

    The product of list sizes is used as a cheap budget bound before any work
    happens; exceeding it raises a budget error carrying the bound.
    """
    _require_bound(g, lists, max_colorings)
    return list(_extensions(g, lists, (None,) * g.n, range(g.n)))


def _extensions(g: Graph, lists: ListAssignment, phi, vertices):
    """Every proper L-extension of the partial coloring phi to the given vertices.

    phi is None exactly at the vertices.  Extensions come in lexicographic
    order: vertices in the given order, colors ascending.  A color is tested
    against a bitmask, per color, of the vertices already carrying it.  The
    search is lazy, so a caller that needs only the first extension, or the
    first one with some property, stops there.  This is the one search behind
    enumerate_L_colorings, has_L_coloring and find_versatile_extension.
    """
    phi = list(phi)
    vertices = list(vertices)
    order = [sorted(lists[v]) for v in vertices]
    near = [g.masks[v] for v in vertices]
    masks = dict.fromkeys(set().union(*order), 0)
    for v, c in enumerate(phi):
        if c is not None:
            masks[c] = masks.get(c, 0) | 1 << v

    def descend(i: int):
        if i == len(vertices):
            yield tuple(phi)
            return
        v = vertices[i]
        for c in order[i]:
            if not masks[c] & near[i]:
                phi[v] = c
                masks[c] ^= 1 << v
                yield from descend(i + 1)
                masks[c] ^= 1 << v

    return descend(0)


def _require_budget(max_colorings: int) -> None:
    if max_colorings < 0:
        raise ParameterError(f"max_colorings must be at least 0, got {max_colorings}")


def _require_bound(g: Graph, lists: ListAssignment, max_colorings: int) -> None:
    """Fail before any work when the product of list sizes exceeds the budget,
    or when the search, which recurses once per vertex, would go deeper than
    Python's recursion limit allows (100 frames are left to the caller)."""
    _require_lists(g, lists)
    _require_budget(max_colorings)
    bound = math.prod(len(s) for s in lists) if g.n else 1
    if bound > max_colorings:
        raise BudgetError(f"coloring space bound {bound} exceeds budget {max_colorings}", bound)
    depth = sys.getrecursionlimit() - 100
    if g.n > depth:
        raise BudgetError(f"coloring search depth {g.n} exceeds the recursion budget {depth}", g.n)


def count_L_colorings_reference(g: Graph, lists: ListAssignment, order=None) -> int:
    """Independent coloring count by backtracking in a caller-chosen vertex order.

    Cross-check oracle for enumerate_L_colorings; defaults to reverse order.
    """
    _require_lists(g, lists)
    order = list(order) if order is not None else list(reversed(range(g.n)))
    if sorted(order) != list(range(g.n)):
        raise ParameterError("order must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[w for w in g.adj[v] if pos[w] < pos[v]] for v in range(g.n)]
    phi: dict[int, int] = {}

    def descend(i: int) -> int:
        if i == g.n:
            return 1
        v = order[i]
        total = 0
        for c in lists[v]:
            if all(phi[w] != c for w in earlier[v]):
                phi[v] = c
                total += descend(i + 1)
        phi.pop(v, None)
        return total

    return descend(0)


def has_L_coloring(g: Graph, lists: ListAssignment) -> Coloring | None:
    """The lexicographically least L-coloring, or None."""
    _require_lists(g, lists)
    return next(_extensions(g, lists, (None,) * g.n, range(g.n)), None)


def kempe_component(g: Graph, phi: Coloring, v: int, pair) -> frozenset[int]:
    """The connected component of v in the subgraph induced by the two colors.

    Empty by convention when phi(v) is not one of the two colors.
    """
    a, b = sorted(pair)
    if a == b:
        raise ParameterError("Kempe pair colors must differ")
    return _component(g, phi, v, (a, b))


def _component(g: Graph, phi, v: int, pair,
               absent: frozenset[int] = frozenset()) -> frozenset[int]:
    """Kempe component of v in g minus the absent vertices.

    Empty when v is absent or phi(v) is not one of the two colors.
    """
    if v in absent or phi[v] not in pair:
        return frozenset()
    return next((comp for comp in _pair_components(g, phi, pair, absent) if v in comp),
                frozenset())


def _pair_components(g: Graph, phi, pair,
                     absent: frozenset[int] = frozenset()) -> list[frozenset[int]]:
    """All components of the two-colored subgraph of g minus the absent vertices.

    Ordered by lowest vertex; uncolored vertices (None) are never in the pair.
    """
    s = sum(1 << x for x, c in enumerate(phi) if c in pair and x not in absent)
    return [frozenset(_bits(comp)) for comp in _components(g.masks, s)]


@dataclass(frozen=True)
class SwapOutcome:
    valid: bool
    coloring: Coloring | None
    component: frozenset[int]
    reason: str | None = None
    violator: int | None = None


def classify_swap(g: Graph, lists: ListAssignment, phi: Coloring, move: SwapMove) -> SwapOutcome:
    """Apply the move and decide whether the result is again an L-coloring.

    Properness is automatic for Kempe swaps, so only list membership can
    fail; the reported violator is the smallest vertex whose list excludes
    its new color.  A move whose anchor is not colored with either swap color
    is classified invalid (empty component; keeps the reconfiguration graph
    free of self-loops).
    """
    _require_total(g, phi)
    _require_lists(g, lists)
    if not check_coloring(g, lists, phi):
        raise PreconditionError("classify_swap requires an L-coloring to start from")
    if not 0 <= move.anchor < g.n:
        raise ParameterError(f"anchor {move.anchor} out of range")
    return _classify(g, lists, phi, move)


def _classify(g: Graph, lists: ListAssignment, phi, move: SwapMove,
              absent: frozenset[int] = frozenset()) -> SwapOutcome:
    a, b = move.colors
    if phi[move.anchor] not in (a, b):
        return SwapOutcome(False, None, frozenset(), reason="anchor not in color pair")
    comp = partial_component(g, phi, move.anchor, (a, b), absent)
    new = list(phi)
    for x in comp:
        new[x] = b if phi[x] == a else a
    violator = next((x for x in sorted(comp) if new[x] not in lists[x]), None)
    if violator is not None:
        return SwapOutcome(False, None, comp,
                           reason=f"vertex {violator} would get color {new[violator]} "
                                  f"outside its list", violator=violator)
    return SwapOutcome(True, tuple(new), comp)


def normalize_move(g: Graph, phi: Coloring, move: SwapMove) -> SwapMove:
    """Canonical form: anchor becomes the minimum vertex of its component."""
    comp = kempe_component(g, phi, move.anchor, move.colors)
    if not comp:
        return move
    return SwapMove(min(comp), move.colors)


def apply_moves(g: Graph, lists: ListAssignment, phi: Coloring, moves) -> Coloring:
    """Replay a move sequence, insisting every step is L-valid."""
    current = phi
    for i, mv in enumerate(moves):
        outcome = classify_swap(g, lists, current, mv)
        if not outcome.valid:
            raise PreconditionError(f"move {i} ({mv}) is not L-valid: {outcome.reason}")
        current = outcome.coloring
    return current


# ---------------------------------------------------------------------------
# Partial-coloring helpers (colorings of g minus a vertex set, host ids kept)
# ---------------------------------------------------------------------------

def partial_component(g: Graph, phi, v: int, pair, absent: frozenset[int]) -> frozenset[int]:
    """Kempe component of v in g minus the absent vertices."""
    return _component(g, phi, v, tuple(sorted(pair)), absent)


def classify_swap_partial(g: Graph, lists: ListAssignment, phi, move: SwapMove,
                          absent: frozenset[int]) -> SwapOutcome:
    """classify_swap on g minus the absent vertices."""
    if not 0 <= move.anchor < g.n:
        raise ParameterError(f"anchor {move.anchor} out of range")
    if move.anchor in absent:
        raise ParameterError(f"anchor {move.anchor} is not a vertex of the reduced graph")
    return _classify(g, lists, phi, move, absent)

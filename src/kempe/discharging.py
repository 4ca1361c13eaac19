"""Exact discharging ledgers for the two structural-lemma rule systems.

Charges start at d(v)-4 per vertex and len(f)-4 per face, plus one pot with
charge 0 per component of the relevant special subgraph (G3 for the first
rule system, G2 for the second).  For a connected plane graph the initial
total is exactly -8.  Rules move charge through an append-only transfer log;
within one rule all transfers are computed from the state before that rule,
and rules apply in sequence.

No floats anywhere.  The ledger keeps every charge as a whole number of
units of 1/D, where D = lcm(6, 2d for each degree d >= 5 in the graph), and
every amount a rule moves is on that lattice:

- R1 moves 1/2 or 1.
- R2 moves remaining/d per corner of a d-vertex, d >= 5.  Charges start as
  integers and R1 moves halves and wholes, so the remaining charge is a
  multiple of 1/2, and D is a multiple of 2d.
- R3 and R4 move multiples of 1/3 or 1/2, and 6 divides D.
- R5 returns a vertex charge, which is already on the lattice.

A move off the lattice is an internal error.  Fractions appear only in what
a report shows: transfer amounts, the public charge lists and the totals.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import KempeError, ParameterError, PreconditionError
from .graphs import Graph, connected_components, is_connected
from .planar import PlaneGraph, extract_special_subgraph, trace_faces

Holder = tuple  # ("v", id) | ("f", index) | ("pot", index)


@dataclass(slots=True)
class Transfer:
    source: Holder
    sink: Holder
    amount: Fraction
    rule: str

    def describe(self) -> str:
        return (f"{self.rule}: {_holder_name(self.source)} -> {_holder_name(self.sink)} "
                f"{self.amount}")


def _signed(x: Fraction) -> str:
    """Fraction with an explicit '+' when positive ("+1/2", "-2/3", "+1").

    Format specs such as ':+' on a Fraction are only accepted from Python 3.13.
    """
    return f"+{x}" if x > 0 else str(x)


def _holder_name(h: Holder) -> str:
    tag, idx = h
    return {"v": "vertex", "f": "face", "pot": "pot"}[tag] + f" {idx}"


class ChargeLedger:
    """Charge per holder in whole units of 1/scale, plus the full transfer log.

    units maps each holder tag ("v", "f", "pot") to its list of unit counts.
    vertex, face and pot are the same charges as Fractions, as of the last
    publish(); run_discharging publishes once its rules are done.
    """

    def __init__(self, scale: int, vertex: list[int], face: list[int], pot: list[int]):
        self.scale = scale
        self.units = {"v": vertex, "f": face, "pot": pot}
        self.transfers: list[Transfer] = []
        self._fractions: dict[int, Fraction] = {}
        self.publish()

    def _fraction(self, units: int) -> Fraction:
        """units/scale; one shared Fraction per distinct count."""
        value = self._fractions.get(units)
        if value is None:
            value = self._fractions[units] = Fraction(units, self.scale)
        return value

    def publish(self) -> None:
        """Set vertex, face and pot to the current charges as Fractions."""
        self.vertex, self.face, self.pot = ([self._fraction(u) for u in self.units[tag]]
                                            for tag in ("v", "f", "pot"))

    def charge(self, holder: Holder) -> Fraction:
        return self._fraction(self.units[holder[0]][holder[1]])

    def unit_total(self) -> int:
        return sum(map(sum, self.units.values()))

    def total(self) -> Fraction:
        return Fraction(self.unit_total(), self.scale)

    def move(self, source: Holder, sink: Holder, units: int, rule: str) -> None:
        """Move units/scale of charge from source to sink and log the transfer."""
        if type(units) is not int:
            raise KempeError(f"internal: {rule} moves {units} units of 1/{self.scale}, "
                             f"off the charge lattice")
        if units:
            self.transfers.append(Transfer(source, sink, self._fraction(units), rule))
            self.units[source[0]][source[1]] -= units
            self.units[sink[0]][sink[1]] += units


@dataclass(frozen=True)
class DischargeReport:
    variant: str
    ledger: ChargeLedger
    initial: dict[Holder, Fraction]  # charge of every holder before R1
    pots_vertices: tuple[tuple[int, ...], ...]
    negative: tuple[tuple[Holder, Fraction], ...]
    total: Fraction
    rule_totals: tuple[tuple[str, Fraction], ...]
    multiplicity_events: tuple[str, ...]

    def describe(self) -> str:
        """Holder table (initial, per-rule delta, final) plus pot and flag lines."""
        lines = [f"variant={self.variant} total={self.total} "
                 f"pots={len(self.pots_vertices)}"]
        for i, verts in enumerate(self.pots_vertices):
            lines.append(f"pot {i}: component vertices {list(verts)}")
        rules = [rule for rule, _ in self.rule_totals]
        scale = self.ledger.scale
        deltas: defaultdict[Holder, Counter] = defaultdict(Counter)
        for t in self.ledger.transfers:
            units = t.amount.numerator * (scale // t.amount.denominator)
            deltas[t.source][t.rule] -= units
            deltas[t.sink][t.rule] += units
        for holder, charge in _all_holders(self.ledger):
            start = self.initial[holder]
            moves = " ".join(f"{rule}:{_signed(Fraction(deltas[holder][rule], scale))}"
                             for rule in rules if deltas[holder][rule] != 0)
            parts = [f"{_holder_name(holder)}: initial {start}"]
            if moves:
                parts.append(moves)
            parts.append(f"final {charge}")
            lines.append(" | ".join(parts))
        for (holder, charge) in self.negative:
            lines.append(f"NEGATIVE {_holder_name(holder)}: {charge}")
        if not self.negative:
            lines.append("all holders nonnegative")
        for note in self.multiplicity_events:
            lines.append(f"multiplicity: {note}")
        return "\n".join(lines) + "\n"


def run_discharging(pg: PlaneGraph, variant: str) -> DischargeReport:
    """Apply one rule system and return the audited final ledger.

    The report lists every holder that ends negative; the total is asserted
    to stay exactly -8 after every rule (connected input required).
    """
    g = pg.graph
    if g.n == 0:
        raise PreconditionError("discharging needs a nonempty plane graph")
    if not is_connected(g):
        raise PreconditionError("discharging requires a connected plane graph")
    if g.min_degree() < 2:
        raise PreconditionError(f"discharging needs min degree >= 2, got {g.min_degree()}")
    if variant not in ("lemma1", "lemma2"):
        raise ParameterError(f"variant must be lemma1 or lemma2, got {variant!r}")
    faces = trace_faces(pg)
    sub = extract_special_subgraph(pg, "G3" if variant == "lemma1" else "G2")
    pot_components = [tuple(sub.vertices[x] for x in comp)
                      for comp in connected_components(sub.graph)]
    pot_of = {v: i for i, comp in enumerate(pot_components) for v in comp}

    degrees = [g.degree(v) for v in range(g.n)]
    scale = math.lcm(6, *(2 * d for d in set(degrees) if d >= 5))
    ledger = ChargeLedger(scale, [(d - 4) * scale for d in degrees],
                          [(f.length - 4) * scale for f in faces], [0] * len(pot_components))
    initial = dict(_all_holders(ledger))
    expected_total = ledger.total()
    if expected_total != -8:
        raise KempeError(f"initial charge total is {expected_total}, not -8; "
                         f"embedding or input is broken")
    expected_units = -8 * scale

    # Per-vertex face incidences (with multiplicity: one per corner).
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for fi, face in enumerate(faces):
        for v, c in Counter(face.vertices()).items():
            incidence[v].append((fi, c))
    events = []
    for v in range(g.n):
        for fi, c in incidence[v]:
            if c > 1:
                events.append(f"vertex {v} meets face {fi} {c} times")

    rule_totals = []

    def close_rule(rule: str) -> None:
        if ledger.unit_total() != expected_units:
            raise KempeError(f"charge not conserved after {rule}: total {ledger.total()}")
        rule_totals.append((rule, expected_total))

    if variant == "lemma1":
        _rules_lemma1(g, sub, pot_of, ledger, incidence, faces, close_rule)
    else:
        _rules_lemma2(g, sub, pot_of, ledger, incidence, faces, close_rule)

    ledger.publish()
    negative = tuple(((tag, i), ledger._fraction(u)) for tag, units in ledger.units.items()
                     for i, u in enumerate(units) if u < 0)
    return DischargeReport(variant, ledger, initial, tuple(pot_components), negative,
                           rule_totals[-1][1], tuple(rule_totals), tuple(events))


def _all_holders(ledger: ChargeLedger):
    for tag, bucket in (("v", ledger.vertex), ("f", ledger.face), ("pot", ledger.pot)):
        for i, c in enumerate(bucket):
            yield (tag, i), c


def _rules_lemma1(g: Graph, sub, pot_of, ledger, incidence, faces, close_rule) -> None:
    delta = g.max_degree()
    three = [v for v in range(g.n) if g.degree(v) == 3]
    # R1. A vertex of degree Delta > 3 with a 3-neighbor pays 1/2 into the pot
    # of its G3 component; every 3-vertex draws 1 from its pot.  A degree-3
    # maximum-degree vertex acts only as a taker.
    for v in range(g.n):
        if g.degree(v) == delta and delta > 3 and any(g.degree(w) == 3 for w in g.adj[v]):
            ledger.move(("v", v), ("pot", pot_of[v]), ledger.scale // 2, "R1")
    for v in three:
        ledger.move(("pot", pot_of[v]), ("v", v), ledger.scale, "R1")
    close_rule("R1")
    _rule_spread_five_plus(g, ledger, incidence, "R2")
    close_rule("R2")
    # R3. A 3-vertex on a 4-cycle of G3 pulls 1/2 from each incident 4+-face
    # and forwards it to its pot.
    sub_index = {v: i for i, v in enumerate(sub.vertices)}
    for v in three:
        si = sub_index.get(v)
        if si is None or not _on_four_cycle(sub.graph, si):
            continue
        for fi, count in incidence[v]:
            if faces[fi].length >= 4:
                amount = ledger.scale // 2 * count
                ledger.move(("f", fi), ("v", v), amount, "R3")
                ledger.move(("v", v), ("pot", pot_of[v]), amount, "R3")
    close_rule("R3")


def _rules_lemma2(g: Graph, sub, pot_of, ledger, incidence, faces, close_rule) -> None:
    in_sub = set(sub.vertices)
    g2_edges = {(min(u, v), max(u, v)) for u, v in sub.host_edges()}
    # R1. A 15+-vertex of G2 (it necessarily has a qualifying 2-neighbor)
    # pays 1 into its pot; every 2-vertex of G2 draws 1 from its pot.
    for v in sorted(in_sub):
        if g.degree(v) >= 15:
            ledger.move(("v", v), ("pot", pot_of[v]), ledger.scale, "R1")
    for v in sorted(in_sub):
        if g.degree(v) == 2:
            ledger.move(("pot", pot_of[v]), ("v", v), ledger.scale, "R1")
    close_rule("R1")
    _rule_spread_five_plus(g, ledger, incidence, "R2")
    close_rule("R2")
    third = ledger.scale // 3
    for v in range(g.n):
        if g.degree(v) == 3:
            for fi, count in incidence[v]:
                ledger.move(("f", fi), ("v", v), third * count, "R3")
    close_rule("R3")
    # R4. Per incidence: 1/3 from a 3-face, 2/3 from a 4-face whose boundary
    # is a 2-alternating cycle (a cycle of G2), 1 from any other 4+-face.
    alternating = set()
    for fi, face in enumerate(faces):
        if face.length != 4:
            continue
        verts = face.vertices()
        if len(set(verts)) != 4:
            continue
        if all((min(u, v), max(u, v)) in g2_edges for u, v in face.edges):
            alternating.add(fi)
    for v in range(g.n):
        if g.degree(v) != 2:
            continue
        for fi, count in incidence[v]:
            length = faces[fi].length
            if length == 3:
                amount = third
            elif length == 4 and fi in alternating:
                amount = 2 * third
            else:
                amount = ledger.scale
            ledger.move(("f", fi), ("v", v), amount * count, "R4")
    close_rule("R4")
    # R5. Surplus at a 2-vertex of G2 returns to its pot.
    vertex = ledger.units["v"]
    for v in sorted(in_sub):
        if g.degree(v) == 2 and vertex[v] > 0:
            ledger.move(("v", v), ("pot", pot_of[v]), vertex[v], "R5")
    close_rule("R5")


def _rule_spread_five_plus(g: Graph, ledger, incidence, rule: str) -> None:
    """Every 5+-vertex splits its remaining charge equally per face incidence."""
    vertex = ledger.units["v"]
    for v in range(g.n):
        d = g.degree(v)
        if d < 5:
            continue
        share, off = divmod(vertex[v], d)
        if off:
            raise KempeError(f"internal: {rule} splits {ledger.charge(('v', v))} at vertex {v} "
                             f"{d} ways, off the 1/{ledger.scale} charge lattice")
        for fi, count in incidence[v]:
            ledger.move(("v", v), ("f", fi), share * count, rule)
        if vertex[v] != 0:
            raise KempeError(f"internal: {rule} left {ledger.charge(('v', v))} at vertex {v}")


def _on_four_cycle(sub: Graph, v: int) -> bool:
    """Is v on a 4-cycle of the subgraph?  v-x-z-y with x,y distinct neighbors."""
    for i, x in enumerate(sub.adj[v]):
        for y in sub.adj[v][i + 1:]:
            for z in sub.adj[x]:
                if z != v and z in sub.adj[y]:
                    return True
    return False

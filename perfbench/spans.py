"""Spans around the calls into kempe's public functions, from outside the program.

A Tracer replaces each traced function in every kempe module namespace that
holds it (so `from .reconfig import is_L_swappable` in verify is caught
where verify looks the name up) and restores the originals on uninstall.
Each call becomes a span: key, start, end and parent.  Self time is a span's
duration minus the time its child spans cover, summed per key.  Spans are
kept in memory, up to a cap, and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter

SPAN_CAP = 100_000

# (module, function) -> span key.  graphs and io are traced whole; see LAYER_MODULES.
SPAN_KEYS = {
    ("verify", "enumerate_degree_assignments"): "verify.stream",
    ("verify", "canonicalize_assignment"): "verify.stream",
    ("verify", "verify_lemma"): "verify.loop",
    ("verify", "degree_swappable_verdict"): "verify.loop",
    ("verify", "f_swappable_verdict"): "verify.loop",
    ("verify", "slack_order"): "verify.loop",
    ("verify", "frozen_colorings"): "verify.frozen",
    ("coloring", "enumerate_L_colorings"): "coloring.enumerate",
    ("coloring", "classify_swap"): "coloring.swap",
    ("coloring", "classify_swap_partial"): "coloring.swap",
    ("coloring", "kempe_component"): "coloring.swap",
    ("coloring", "partial_component"): "coloring.swap",
    ("coloring", "normalize_move"): "coloring.swap",
    ("reconfig", "is_L_swappable"): "reconfig.swappable",
    ("reconfig", "mixing_classes"): "reconfig.mixing",
    ("reconfig", "build_reconfig_graph"): "reconfig.mixing",
    ("reconfig", "subset_mixes"): "reconfig.subset",
    ("reconfig", "cover_certificate"): "reconfig.subset",
    ("reconfig", "equivalence_path"): "reconfig.path",
    ("reconfig", "lift_through_vertex"): "reconfig.lift",
    ("reconfig", "lift_through_subgraph"): "reconfig.lift",
    ("reconfig", "find_versatile_extension"): "reconfig.lift",
    ("planar", "trace_faces"): "planar.faces",
    ("planar", "extract_special_subgraph"): "planar.extract",
    ("planar", "detect_configuration"): "planar.detect",
    ("planar", "structural_audit"): "planar.audit",
    ("planar", "plane_graph_from_faces"): "planar.build",
    ("discharging", "run_discharging"): "discharging.run",
    ("cli", "main"): "cli",
}
LAYER_MODULES = ("graphs", "io")
DETECT_KEYS = {"C1": "planar.detect.c1", "C2-barbell": "planar.detect.c2",
               "C3-theta": "planar.detect.c3", "C3-K24": "planar.detect.c3"}
SELF_KEYS = sorted({key for key in SPAN_KEYS.values() if key != "planar.detect"}
                   | set(DETECT_KEYS.values()) | set(LAYER_MODULES))
COUNT_KEYS = (
    "verify.stream.items", "verify.checked", "verify.frozen.calls",
    "coloring.enumerate.calls", "coloring.enumerate.colorings", "coloring.swap.calls",
    "reconfig.swappable.calls", "reconfig.mixing.calls", "reconfig.mixing.colorings",
    "reconfig.subset.calls", "reconfig.path.calls", "reconfig.path.moves",
    "reconfig.lift.calls", "reconfig.lift.moves_in", "reconfig.lift.moves_out",
    "reconfig.lift.hypothesis_calls",
    "planar.faces.calls", "planar.detect.calls", "planar.detect.budget_hits",
    "planar.audit.witnesses", "discharging.run.calls", "discharging.run.transfers",
)


class Tracer:
    """Spans and counts of one measured stretch: one round, or one set-up."""

    def __init__(self, modules):
        """modules maps a short name ("verify", "cli", ...) to the imported module."""
        self.modules = modules
        self.patched = []
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.self_s = Counter()
        self.counts = Counter()
        self.hypothesis_s = 0.0
        self.hypotheses = set()
        self.lift_depth = 0
        self.span_count = 0

    # -- accounting ---------------------------------------------------------

    def enter(self, key):
        slot = -1
        if len(self.spans) < SPAN_CAP:
            slot = len(self.spans)
            self.spans.append(None)  # filled in on exit; a parent precedes its children
        self.stack.append([key, time.perf_counter(), 0.0, slot])

    def exit(self):
        end = time.perf_counter()
        key, start, child, slot = self.stack.pop()
        duration = end - start
        self.self_s[key] += duration - child
        self.span_count += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if slot >= 0:
            self.spans[slot] = (key, start, end, parent[3] if parent else -1)
        else:
            self.dropped += 1
        return duration

    def metrics(self):
        out = {f"{key}.self_s": self.self_s.get(key, 0.0) for key in SELF_KEYS}
        out.update({key: self.counts.get(key, 0) for key in COUNT_KEYS})
        out["reconfig.lift.hypothesis_distinct"] = len(self.hypotheses)
        out["reconfig.lift.hypothesis_s"] = self.hypothesis_s
        return out

    # -- patching -----------------------------------------------------------

    def install(self):
        targets = {}
        for (mod, name), key in SPAN_KEYS.items():
            targets[getattr(self.modules[mod], name)] = (name, key)
        for mod in LAYER_MODULES:
            module = self.modules[mod]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    targets[fn] = (name, mod)
        wrappers = {fn: self._wrap(fn, name, key) for fn, (name, key) in targets.items()}
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.patched.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self):
        for module, name, original in reversed(self.patched):
            setattr(module, name, original)
        self.patched = []

    def _wrap(self, fn, name, key):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, key)
        observe = getattr(self, "_observe_" + name, None)
        tracer = self

        def traced(*args, **kwargs):
            span_key = DETECT_KEYS.get(args[1] if len(args) > 1 else kwargs.get("kind"),
                                       key) if key == "planar.detect" else key
            tracer.enter(span_key)
            if name == "lift_through_subgraph":
                tracer.lift_depth += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "detect_configuration" and type(exc).__name__ == "BudgetError":
                    tracer.counts["planar.detect.budget_hits"] += 1
                raise
            finally:
                duration = tracer.exit()
                if name == "lift_through_subgraph":
                    tracer.lift_depth -= 1
            if observe is not None:
                observe(args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, key):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                tracer.enter(key)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.counts[key + ".items"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- per-function counts ------------------------------------------------

    def _observe_f_swappable_verdict(self, args, kwargs, result, duration):
        self.counts["verify.checked"] += result.assignments_checked

    def _observe_degree_swappable_verdict(self, args, kwargs, result, duration):
        if self.lift_depth:
            g = args[0] if args else kwargs["g"]
            self.counts["reconfig.lift.hypothesis_calls"] += 1
            self.hypotheses.add((g.n, g.adj))
            self.hypothesis_s += duration

    def _observe_frozen_colorings(self, args, kwargs, result, duration):
        self.counts["verify.frozen.calls"] += 1

    def _observe_enumerate_L_colorings(self, args, kwargs, result, duration):
        self.counts["coloring.enumerate.calls"] += 1
        self.counts["coloring.enumerate.colorings"] += len(result)

    def _count_swap(self, args, kwargs, result, duration):
        self.counts["coloring.swap.calls"] += 1

    _observe_classify_swap = _observe_classify_swap_partial = _count_swap
    _observe_kempe_component = _observe_partial_component = _count_swap
    _observe_normalize_move = _count_swap

    def _observe_is_L_swappable(self, args, kwargs, result, duration):
        self.counts["reconfig.swappable.calls"] += 1

    def _observe_mixing_classes(self, args, kwargs, result, duration):
        self.counts["reconfig.mixing.calls"] += 1
        self.counts["reconfig.mixing.colorings"] += result.total

    def _count_subset(self, args, kwargs, result, duration):
        self.counts["reconfig.subset.calls"] += 1

    _observe_subset_mixes = _observe_cover_certificate = _count_subset

    def _observe_equivalence_path(self, args, kwargs, result, duration):
        self.counts["reconfig.path.calls"] += 1
        self.counts["reconfig.path.moves"] += len(result or ())

    def _count_lift(self, args, kwargs, result, duration):
        moves = args[4] if len(args) > 4 else kwargs["moves"]
        self.counts["reconfig.lift.calls"] += 1
        self.counts["reconfig.lift.moves_in"] += len(moves)
        self.counts["reconfig.lift.moves_out"] += len(result.moves)

    _observe_lift_through_vertex = _observe_lift_through_subgraph = _count_lift

    def _observe_trace_faces(self, args, kwargs, result, duration):
        self.counts["planar.faces.calls"] += 1

    def _observe_detect_configuration(self, args, kwargs, result, duration):
        self.counts["planar.detect.calls"] += 1

    def _observe_structural_audit(self, args, kwargs, result, duration):
        self.counts["planar.audit.witnesses"] += len(result.witnesses)

    def _observe_run_discharging(self, args, kwargs, result, duration):
        self.counts["discharging.run.calls"] += 1
        self.counts["discharging.run.transfers"] += len(result.ledger.transfers)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """One JSON line per recorded span: key, start, end, parent line (or -1)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                if span is not None:
                    key, start, end, parent = span
                    fh.write(json.dumps([key, round(start, 9), round(end, 9), parent]) + "\n")

"""Every kempe name that the benchmark looks up must resolve.

perfbench/spans.py traces the functions named in SPAN_KEYS, looking each one
up with getattr, and perfbench/workloads.py calls kempe as k.<module>.<name>,
where k holds the kempe modules.  A rename in kempe would break those runs
only when they are made; this test reads both files with ast and fails at once.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolve(module: str, names) -> object:
    obj = importlib.import_module("kempe" if module == "kempe" else "kempe." + module)
    for name in names:
        obj = getattr(obj, name)
    return obj


def span_keys() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_KEYS" for t in node.targets):
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("perfbench/spans.py defines no SPAN_KEYS")


def chain(node) -> list[str] | None:
    """['k', 'reconfig', 'lift_through_vertex'] for k.reconfig.lift_through_vertex."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + names[::-1]


def workload_references() -> list[tuple[str, tuple[str, ...]]]:
    """(module, attribute path) of every k.<module>.<name> in the workloads.

    Only functions that take a parameter k are read, and in them the
    aliases of one module (`rc = k.reconfig`, `g, kio = k.graphs, k.io`)
    count as k.<module> too.
    """
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or "k" not in {a.arg for a in fn.args.args}:
            continue
        aliases = {"k": ()}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                         else [(target, value)])
                for t, v in pairs:
                    path = chain(v)
                    if isinstance(t, ast.Name) and path and len(path) == 2 and path[0] == "k":
                        aliases[t.id] = (path[1],)
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                path = chain(node)
                if path and path[0] in aliases:
                    full = aliases[path[0]] + tuple(path[1:])
                    if len(full) >= 2:
                        found.add((full[0], full[1:]))
    return sorted(found)


@pytest.mark.parametrize("module, name", span_keys(),
                         ids=[f"{m}.{n}" for m, n in span_keys()])
def test_span_key_resolves(module, name):
    assert callable(resolve(module, [name]))


def test_workload_references_resolve():
    refs = workload_references()
    assert ("reconfig", ("lift_through_vertex",)) in refs
    assert ("reconfig", ("lift_through_subgraph",)) in refs
    missing = []
    for module, names in refs:
        try:
            resolve(module, names)
        except (AttributeError, ModuleNotFoundError):
            missing.append(".".join(("k", module) + names))
    assert not missing, f"perfbench/workloads.py names what kempe lacks: {missing}"

"""Strict layering of the package: no module imports from a higher layer.

Imports anywhere in a module count, including those inside functions.
"""

from __future__ import annotations

import ast
from pathlib import Path

import kempe

LAYERS = {
    "errors": 0,
    "graphs": 1,
    "coloring": 2, "planar": 2,
    "reconfig": 3, "discharging": 3,
    "verify": 4, "io": 4,
    "cli": 5,
}

# (importing module, imported module, imported name).  lift_through_subgraph
# checks its hypothesis on H with the degree-swappability verdict of verify.
EXCEPTIONS = {("reconfig", "verify", "degree_swappable_verdict")}

PACKAGE = Path(kempe.__file__).parent


def imports(module: str):
    """(imported module, imported name or None) for every import of a kempe module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, from . import x
                base = node.module or ""
            elif (node.module or "").split(".")[0] == "kempe":
                base = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                yield (base.split(".")[0], alias.name) if base else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("kempe."):
                    yield alias.name.split(".")[1], None


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_no_import_from_a_higher_layer():
    bad = []
    for module, level in LAYERS.items():
        for target, name in imports(module):
            if (module, target, name) in EXCEPTIONS:
                continue
            if LAYERS[target] >= level:
                bad.append(f"{module} imports {name or target} from {target}")
    assert not bad, bad


def test_imports_are_found_inside_functions():
    found = set(imports("reconfig"))
    assert ("verify", "degree_swappable_verdict") in found
    assert ("coloring", "enumerate_L_colorings") in found

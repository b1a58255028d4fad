"""Module layering: each pulsox module imports only the modules below it.

The table is the one record of the layers; a new import across them must be
entered here on purpose.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pulsox"

_LIBRARY = {"modes", "table", "channels", "states", "squeezer", "wigner", "config"}
# ``__init__`` is the package itself: it re-exports the physics layers, and
# the runners read its ``__version__``.
ALLOWED = {
    "modes": set(),
    "table": set(),
    "channels": {"modes"},
    "states": {"channels", "modes"},
    "squeezer": {"channels", "modes", "states"},
    "wigner": {"channels"},
    "config": {"channels"},
    "experiments": _LIBRARY | {"__init__"},
    "cli": _LIBRARY | {"experiments"},
    "__init__": {"channels", "modes", "squeezer", "states", "wigner"},
}
# The ``_``-names (dunders aside) a module imports from another, by source
# module: every private helper shared across modules is entered here.
PRIVATE = {
    "states": {"channels": {"_apply", "_checked_moments", "_transpose"}},
    "squeezer": {"channels": {"_apply", "_built", "_transpose"},
                 "states": {"_fidelity", "_reference", "_squeezed_cov"}},
    "experiments": {"squeezer": {"_four_pulse"}},
}


def _imported_modules(path: Path) -> set[str]:
    """pulsox modules named by the file's ``from .x import`` statements;
    ``from . import y`` counts y if it is a module, else the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module:
            found.add(node.module.split(".")[0])
        else:
            found.update(alias.name if (SRC / f"{alias.name}.py").exists() else "__init__"
                         for alias in node.names)
    return found


def test_table_covers_every_module():
    assert set(ALLOWED) == {path.stem for path in SRC.glob("*.py")}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    imported = _imported_modules(SRC / f"{module}.py")
    assert imported <= ALLOWED[module], f"{module} imports {sorted(imported - ALLOWED[module])}"


def _private_imports(path: Path) -> dict[str, set[str]]:
    """The ``_``-names, dunders aside, of the file's ``from .x import``
    statements, by module x."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            names = {alias.name for alias in node.names
                     if alias.name.startswith("_") and not alias.name.startswith("__")}
            if names:
                found.setdefault(node.module.split(".")[0], set()).update(names)
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_the_listed_private_names(module):
    assert _private_imports(SRC / f"{module}.py") == PRIVATE.get(module, {})

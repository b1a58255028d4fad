"""Module layering and the public surface.

Each pulsox module imports only the modules below it.  The table is the one
record of the layers; a new import across them must be entered here on
purpose.  Every name the package exports is reached from the package itself
or from an acceptance criterion, or is listed with the reason it is exported.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pulsox"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

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
    "states": {"channels": {"_apply", "_checked_moments", "_finite", "_transpose",
                            "_unchecked"}},
    "squeezer": {"channels": {"_finite", "_frozen", "_transpose", "_unchecked"},
                 "states": {"_check_mu", "_check_phi", "_check_range", "_elementwise",
                            "_infidelity_to_vacuum", "_squeezed_cov"}},
    "wigner": {"channels": {"_check_symmetric", "_finite", "_frozen", "_unchecked"}},
    "experiments": {"squeezer": {"_scorer"}, "states": {"_check_mu", "_check_phi"}},
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


def _new_calls(path: Path) -> int:
    """The file's calls of ``object.__new__``."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "object"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_only_channels_builds_a_value_past_its_checks(module):
    # channels._unchecked is the one constructor that skips __post_init__;
    # every other module builds its computed values through it
    assert _new_calls(SRC / f"{module}.py") == (module == "channels")


# The value types whose checked constructor (``__post_init__``) validates
# outside input.  A value computed from checked values is built by
# ``channels._unchecked``; these are the only checked builds in the package, by
# ``module.function`` (or ``module.Class.method`` for a ``cls(...)`` call),
# each with the input it checks.
VALUE_TYPES = {"GaussianChannel", "GaussianState", "PulseSchedule", "WignerGrid", "GaussianSum"}
CHECKED_BUILDS = {
    "squeezer.schedule_for_mu": "ancilla_vsq is the caller's own: a list reaches the "
                                "schedule as a list",
    "wigner.GaussianSum.cat": "alpha = 1e154 rounds the fringe log-weight to -inf",
    "wigner.grid_from_csv": "its values are read from a file",
}


def _checked_builds(path: Path) -> set[str]:
    """The ``module.scope`` of each call, in the file, of a value type's
    checked constructor: by name, or as ``cls(...)`` in one of its methods."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in VALUE_TYPES or (name == "cls" and scope and scope[0] in VALUE_TYPES):
                found.add(".".join((path.stem,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_the_listed_sites_build_a_value_through_its_checks():
    builds = set().union(*(_checked_builds(path) for path in SRC.glob("*.py")))
    assert sorted(builds - set(CHECKED_BUILDS)) == [], "checked build not listed"
    assert sorted(set(CHECKED_BUILDS) - builds) == [], "listed, but no checked build there"
    assert all(reason and "\n" not in reason for reason in CHECKED_BUILDS.values())


# -- the public surface -----------------------------------------------------------

# The names ``pulsox`` exports that no other module of the package and no
# acceptance criterion reaches, each with the reason it is exported.
UNREACHED = {
    "optimize_schedule": "numerical re-optimization of the pulse strengths for library "
                         "callers; no default experiment runs it",
    "is_physical": "the exact CP test of a channel built from outside arrays, and the "
                   "oracle of damped_is_physical",
    "squeezed": "the squeezed-vacuum state for callers; the squeezer builds its "
                "ancilla covariance directly",
    "chi_from_physical": "pulse strength from the physical drive (g0, N, kappa), the "
                         "conversion photon_budget's docstring refers to",
    "photons_for_chi": "the inverse of chi_from_physical: photons per pulse of a "
                       "given strength",
    "fringe_ellipse": "semi-axes of the squeezed cat's central fringe, the geometry "
                      "that mu_opt makes circular",
    "grid_from_csv": "reads back the grid files that fock-squeeze writes",
    "marginal": "the reduced state on a subset of modes for callers; the runners score "
                "one mode's rows of a channel directly",
    "product": "builds the two-mode input of the full-propagation oracle for "
               "mechanical_squeezer in tests/test_squeezer.py, and two-mode states for callers",
}


def _exports() -> set[str]:
    """The names ``pulsox/__init__.py`` imports from its modules."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _bound(function: ast.AST) -> set[str]:
    """The names ``function`` binds itself: its parameters and the targets it
    assigns, outside the functions and classes it defines."""
    names = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _references(tree: ast.AST) -> set[str]:
    """The identifiers of the tree's ``Name`` nodes and ``Attribute`` attrs,
    except those inside a ``def`` or ``class`` of the same name and the local
    names of an enclosing function: a local variable is not a use."""
    found = set()

    def visit(node, enclosing, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _bound(node)
        if isinstance(node, ast.Name) and node.id not in enclosing | local:
            found.add(node.id)
        if isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, local)

    visit(tree, frozenset(), frozenset())
    return found


def test_a_local_variable_or_parameter_is_not_a_use():
    tree = ast.parse("def f(squeezed):\n    product = lambda marginal: marginal\n"
                     "    return product(squeezed), px.is_physical, vacuum\n")
    assert _references(tree) == {"px", "is_physical", "vacuum"}


def _reached() -> set[str]:
    """Names the package's modules refer to, and the ``px.<name>`` of the
    acceptance criteria."""
    found = set()
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            found |= _references(ast.parse(path.read_text(encoding="utf-8")))
    criteria = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    found |= {node.attr for node in ast.walk(criteria) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "px"}
    return found


def test_every_export_is_reached_or_listed_with_a_reason():
    unreached = _exports() - _reached()
    assert sorted(unreached - set(UNREACHED)) == [], "exported, unreached and not listed"
    assert sorted(set(UNREACHED) - unreached) == [], "listed, but reached or not exported"
    assert all(reason and "\n" not in reason for reason in UNREACHED.values())

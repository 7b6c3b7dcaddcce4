"""Static checks: no package module imports a name it never uses, every
name a module lists in `__all__` is bound in that module, each module
imports only from modules below it in LAYERS, and no line is wider than
100 columns (so the tracked line count cannot drop by joining lines).

`__init__` re-exports by importing, so it is exempt from the first check;
elsewhere a name listed in the module's `__all__` counts as used.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "wenzl_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported(tree))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def exported(tree: ast.Module) -> list[str]:
    """The names listed in a module-level `__all__`, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unbound_exports(source: str) -> list[str]:
    """Names in `__all__` that no top-level import, def, class or assignment binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    return [name for name in exported(tree) if name not in bound]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, math\n"
        "from json import dumps as to_text, loads\n"
        "__all__ = ['loads']\n"
        "print(math.pi)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: to_text"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_export_checker_flags_only_unbound_names():
    source = (
        "from json import dumps as to_text\n"
        "LIMIT: int = 3\n"
        "class Shape: pass\n"
        "def build(): pass\n"
        "__all__ = ['to_text', 'LIMIT', 'Shape', 'build', 'gone']\n"
    )
    assert unbound_exports(source) == ["gone"]


ALL_MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_exports_are_bound(path):
    assert unbound_exports(path.read_text()) == []


# the package's modules, lowest first; `__init__` sits above them all
LAYERS = ("errors", "qnum", "jones_wenzl", "vertex", "entangle", "channel", "cli")


def layer_violations(name: str, source: str) -> list[str]:
    """Relative imports of module `name` that do not come from a lower layer."""
    below = LAYERS[: LAYERS.index(name)] if name in LAYERS else ()
    return [
        f"line {node.lineno}: from .{node.module}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level and node.module not in below
    ]


def test_layer_checker_flags_upward_and_unknown_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy\n"
        "from .errors import DEFAULT_DIM_CAP\n"
        "from .entangle import schmidt_spectrum\n"
        "from .vertex import isometry\n"
        "from .tensor_core import _check_cap\n"
    )
    assert layer_violations("vertex", source) == [
        "line 4: from .entangle", "line 5: from .vertex", "line 6: from .tensor_core"
    ]
    assert layer_violations("extra", "from .errors import WenzlLabError\n") == [
        "line 1: from .errors"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_only_lower_layers(path):
    assert layer_violations(path.stem, path.read_text()) == []


def test_package_docstring_states_the_layers():
    doc = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text()))
    positions = [doc.find(name) for name in LAYERS]
    assert -1 not in positions and positions == sorted(positions), positions


MAX_COLUMNS = 100


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_lines_fit_in_100_columns(path):
    lines = path.read_text().splitlines()
    wide = [f"line {i}: {len(line)}" for i, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]
    assert wide == []

"""Static check: no package module imports a name it never uses.

`__init__` re-exports by importing, so it is exempt; elsewhere a name
listed in the module's `__all__` counts as used.
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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


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

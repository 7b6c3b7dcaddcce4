"""Static checks, and one run-time check of the package's names: no package
module imports a name it never uses, every name a module lists in `__all__`
is bound in that module, `__init__` re-exports the library modules' `__all__`
by one star import each and no two modules export the same name, each module
imports only from modules below it in LAYERS (and `channel` not from
`jones_wenzl`, whose BLAS thread policy it reaches only through
`entangle`), only `jones_wenzl` names OpenBLAS and the rest take only its
scope `_blas_threads`, only `cli` imports the dense Wenzl oracles, no line is wider than
100 columns (so the tracked line count cannot drop by joining lines),
only `errors` tests for `bool`, inside its one integer and real rule, and
no check that raises InvariantViolation tests a bare `>` or `<`.

`__init__` re-exports by star imports, so it is exempt from the first check
and the dense-oracle one; elsewhere a name listed in the module's
`__all__` counts as used.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import types

import pytest

import wenzl_lab

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


LIBRARY = [p for p in MODULES if p.stem != "cli"]


def test_package_reexports_exactly_the_library_exports():
    """Besides the BLAS block's `from . import jones_wenzl`, `__init__`'s only relative
    imports are one `from .<m> import *` per library module, so a public name is
    declared once, in its module's `__all__`."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    relative = [
        (node.module, [alias.name for alias in node.names])
        for node in sorted(ast.walk(tree), key=lambda node: getattr(node, "lineno", 0))
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert relative == [(None, ["jones_wenzl"])] + [(path.stem, ["*"]) for path in LIBRARY]


def test_no_name_is_exported_by_two_modules():
    """A star import would let the later module's name shadow the earlier's."""
    owners = {}
    for path in LIBRARY:
        for name in exported(ast.parse(path.read_text())):
            owners.setdefault(name, []).append(path.stem)
    assert {name: stems for name, stems in owners.items() if len(stems) > 1} == {}


def test_package_binds_each_library_export_from_its_module():
    """At run time, `wenzl_lab`'s public names are the library `__all__`s, each
    the very object its module binds."""
    modules = [importlib.import_module(f"wenzl_lab.{path.stem}") for path in LIBRARY]
    public = {
        name for name, value in vars(wenzl_lab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - {"annotations"} == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(wenzl_lab, name) is getattr(module, name), name


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


def imported_modules(source: str) -> set[str]:
    """The last dotted part of each module a source imports names from."""
    return {
        node.module.rsplit(".", 1)[-1] for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module
    }


def test_channel_imports_nothing_from_jones_wenzl():
    """The BLAS thread policy stays below `entangle._image_spectra`."""
    assert "jones_wenzl" not in imported_modules((PACKAGE / "channel.py").read_text())


def openblas_mentions(source: str) -> list[str]:
    """Lines of an identifier or string spelled with a lowercase `openblas`:
    `_openblas` and every OpenBLAS symbol, but not the prose name OpenBLAS."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            names = [getattr(node, field, None) for field in ("id", "attr", "name", "asname")]
        if any(isinstance(name, str) and "openblas" in name for name in names):
            found.add(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_openblas_checker_flags_only_lowercase_openblas():
    source = (
        '"""Threads come from OpenBLAS."""\n'
        "from .jones_wenzl import _openblas as lib\n"
        "fn = lib('openblas_set_num_threads_local')\n"
        "count = jones_wenzl._openblas\n"
        "threads = _blas_threads\n"
    )
    assert openblas_mentions(source) == ["line 2", "line 3", "line 4"]


BLAS_USERS = [p for p in MODULES if p.stem != "jones_wenzl"]


@pytest.mark.parametrize("path", BLAS_USERS, ids=[p.stem for p in BLAS_USERS])
def test_only_jones_wenzl_names_openblas(path):
    """The thread policy's one door is `jones_wenzl._blas_threads`; `__init__`,
    which loads OpenBLAS on one thread before numpy's first import, is exempt."""
    assert openblas_mentions(path.read_text()) == []
    taken = {
        alias.name for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "jones_wenzl"
        for alias in node.names if alias.name.startswith("_")
    }
    assert taken <= {"_blas_threads"}


DENSE_ORACLES = {"jw_projection", "verify_jw"}


def imported_names(source: str) -> set[str]:
    """Every name a source imports from a module."""
    return {
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_cli_imports_the_dense_wenzl_oracles(path):
    """The dense N^k x N^k recursion is reached only by the `jw-verify` command."""
    allowed = DENSE_ORACLES if path.stem == "cli" else set()
    assert imported_names(path.read_text()) & DENSE_ORACLES <= allowed


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


def bool_checks(source: str) -> list[str]:
    """Lines that call `isinstance(..., bool)`, alone or in a tuple of types."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
            continue
        types = node.args[1] if len(node.args) == 2 else None
        names = types.elts if isinstance(types, ast.Tuple) else [types]
        if any(isinstance(name, ast.Name) and name.id == "bool" for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_bool_checker_flags_only_bool_isinstance():
    source = (
        "isinstance(x, bool)\n"
        "isinstance(x, (int, bool))\n"
        "isinstance(x, int)\n"
        "type(x) is bool\n"
    )
    assert bool_checks(source) == ["line 1", "line 2"]


RULE_USERS = [p for p in MODULES if p.stem != "errors"]


@pytest.mark.parametrize("path", RULE_USERS, ids=[p.stem for p in RULE_USERS])
def test_only_errors_checks_for_bool(path):
    """The integer and real rules live in `errors._check_int` and `_check_real`."""
    assert bool_checks(path.read_text()) == []


def _raises_invariant(stmt: ast.stmt) -> bool:
    exc = stmt.exc if isinstance(stmt, ast.Raise) else None
    name = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(name, ast.Name) and name.id == "InvariantViolation"


def bare_order_checks(source: str) -> list[str]:
    """Lines of a `>` or `<` in the test of an `if` whose body raises InvariantViolation.

    A NaN compares false both ways, so `err > tol` lets a NaN error
    through where `not err <= tol` refuses it.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(map(_raises_invariant, node.body)):
            found += [
                f"line {cmp.lineno}" for cmp in ast.walk(node.test)
                if isinstance(cmp, ast.Compare)
                and any(isinstance(op, (ast.Gt, ast.Lt)) for op in cmp.ops)
            ]
    return found


def test_order_checker_flags_only_bare_order_tests_before_invariant_raises():
    source = (
        "if err > tol:\n    raise InvariantViolation('a')\n"
        "if not err <= tol or n != want:\n    raise InvariantViolation('b')\n"
        "if err < -tol:\n    raise ValueError('c')\n"
        "if ok and not gap >= 0 and size < 3:\n    log()\n    raise InvariantViolation\n"
    )
    assert bare_order_checks(source) == ["line 1", "line 7"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_invariant_checks_refuse_nan(path):
    assert bare_order_checks(path.read_text()) == []

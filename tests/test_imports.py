"""Every name a module under `src/dispatchsim` imports is used in it, and
every private name a module defines is read by some module."""

import ast
from pathlib import Path, PurePosixPath

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dispatchsim"


def unused_imports(source: str):
    """`(line, name)` of each imported name the module never reads.

    A name counts as read when it appears as a name anywhere in the module
    (an attribute's base included) or is listed in `__all__`.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Dict, List, Optional\n"
        "from .kernels import scan\n"
        "__all__ = ['scan']\n"
        "def f(x: List[int]) -> Dict:\n"
        "    return np.asarray(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Optional")]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bound(stmt) -> set:
    """The names a statement of a module or class body defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return {n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)}


def unread_private_names(sources):
    """`(module, line, name)` of each private name that no module reads.

    `sources` maps each module's path within the package, such as
    `kernels/__init__.py`, to its source.  A module-level `_name` counts as
    read when its module reads it outside the function or class that
    defines it, lists it in `__all__`, or another module imports it with
    `from .module import _name`.  A `_name` defined in a class body, named
    `Class._name`, counts as read when any module reads an attribute `_name`.
    """
    defined, read, attributes = {}, set(), set()
    for module, source in sources.items():
        package = PurePosixPath(module).parent
        for stmt in ast.parse(source).body:
            bound = _bound(stmt)
            defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            own = bound if defines else set()
            for name in bound:
                if _private(name):
                    defined[(module, name)] = stmt.lineno
            for item in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                for name in _bound(item):
                    if _private(name):
                        defined[(module, f"{stmt.name}.{name}")] = item.lineno
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id not in own:
                        read.add((module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level:
                    base = package.parents[node.level - 2] if node.level > 1 else package
                    target = base.joinpath(*(node.module or "").split("."))
                    for alias in node.names:
                        read.add((f"{target}.py", alias.name))
                        read.add((str(target / "__init__.py"), alias.name))
                elif "__all__" in bound and isinstance(node, ast.Constant):
                    read.add((module, node.value))

    def unread(module, name):
        if "." in name:  # a class's
            return name.rpartition(".")[2] not in attributes
        return (module, name) not in read

    return sorted((m, line, name) for (m, name), line in defined.items() if unread(m, name))


def test_every_private_name_is_read():
    sources = {
        p.relative_to(PACKAGE).as_posix(): p.read_text(encoding="utf-8") for p in PACKAGE.rglob("*.py")
    }
    assert unread_private_names(sources) == []


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "_read = 1\n"
            "_unread, _kept = 2, 3\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Imported:\n"
            "    def _called(self):\n"
            "        return self._called()\n"
            "    def _uncalled(self):\n"
            "        pass\n"
            "__all__ = ['_kept']\n"
            "x = _read\n"
        ),
        "sub/__init__.py": "from ..a import _Imported\n",
        "sub/b.py": "from . import _package\n_local = 4\n",
        "sub/c.py": "from .b import _local\n_package = 5\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_unread"), ("a.py", 3, "_recursive"), ("a.py", 8, "_Imported._uncalled"),
        ("sub/c.py", 2, "_package"),
    ]

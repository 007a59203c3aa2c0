"""The package imports nothing outside the standard library, nothing it does not
use, and exports exactly what its __init__ imports; its metadata names the
interpreter it needs."""

import ast
import sys
import tomllib
from pathlib import Path

import cnskit

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "cnskit").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert SOURCES
    foreign = {(path.name, name) for path in SOURCES for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"cnskit"}}
    assert not foreign


def unused_imports(path):
    """Names the module imports but never references (the package's
    __init__ imports to re-export, so it is not checked)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - referenced - {"annotations"}


def test_every_imported_name_is_used():
    unused = {(path.name, name) for path in SOURCES if path.name != "__init__.py"
              for name in unused_imports(path)}
    assert not unused


def test_all_is_what_the_package_imports():
    """cnskit.__all__ lists each name src/cnskit/__init__.py imports, and
    __version__, once; every one resolves, so deleting a name from a
    module leaves no stale export."""
    init = next(path for path in SOURCES if path.name == "__init__.py")
    imported = [alias.asname or alias.name
                for node in ast.parse(init.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(cnskit.__all__) == sorted(imported + ["__version__"])
    assert all(hasattr(cnskit, name) for name in cnskit.__all__)


def private_imports(path):
    """_-prefixed names the module imports from a sibling module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cnskit")):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))


def test_no_module_imports_a_private_name():
    private = {(path.name, name) for path in SOURCES for name in private_imports(path)}
    assert not private


def test_requires_python_has_what_the_cli_calls():
    """cli.main calls sys.get_int_max_str_digits on every run, which
    Python 3.10.0 to 3.10.6 lack, so the package asks for 3.11."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["requires-python"] == ">=3.11"
    assert sys.version_info >= (3, 11)

"""Every exported name resolves.

Each module's `__all__` names attributes the module has, and every name
the package `__init__` imports is an attribute of the package, bound to
the same object as in the module it comes from.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sosq

MODULES = sorted(info.name for info in pkgutil.iter_modules(sosq.__path__))


def init_imports():
    tree = ast.parse(Path(sosq.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sosq.{name}")
    names = getattr(module, "__all__", ())
    assert not [attr for attr in names if not hasattr(module, attr)]


def test_package_imports_resolve():
    imports = init_imports()
    assert imports
    for module_name, attr in imports:
        module = importlib.import_module(f"sosq.{module_name}")
        assert getattr(sosq, attr) is getattr(module, attr), attr

"""The package's public names: every name a module lists in `__all__`
exists, and every name `infodyn/__init__.py` imports is listed there."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import infodyn

MODULES = [importlib.import_module(f"infodyn.{m.name}") for m in pkgutil.iter_modules(infodyn.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_exists(module):
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []
    assert len(set(names)) == len(names)


def test_every_name_the_package_imports_is_public():
    tree = ast.parse(Path(infodyn.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"infodyn.{node.module}")
        names = [alias.name for alias in node.names]
        assert [n for n in names if n not in module.__all__] == [], node.module
        assert all(getattr(infodyn, n) is getattr(module, n) for n in names)

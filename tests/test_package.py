"""The package's public names: every name a module lists in `__all__`
exists, and every name `infodyn/__init__.py` loads lazily is listed there."""

import importlib
import os
import pkgutil
import subprocess
import sys
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
    assert infodyn._NAMES
    for module_name, names in infodyn._NAMES.items():
        module = importlib.import_module(f"infodyn.{module_name}")
        assert [n for n in names if n not in module.__all__] == [], module_name
        assert all(getattr(infodyn, n) is getattr(module, n) for n in names)


def test_importing_the_package_loads_no_module_until_a_name_is_used():
    script = ("import sys, infodyn\n"
              "before = sorted(m for m in sys.modules if m.startswith('infodyn.'))\n"
              "infodyn.entropy\n"
              "after = sorted(m for m in sys.modules if m.startswith('infodyn.'))\n"
              "print(before, after)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(infodyn.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[] ['infodyn.infocore', 'infodyn.pmf']"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        infodyn.nope

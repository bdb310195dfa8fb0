import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_opposition_control_demo_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "opposition_control.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("loop classification: closed")
               for line in done.stdout.splitlines())


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_exist(demo):
    # every demo, also those too slow to run here: each name it imports from
    # infodyn exists, and so does each attribute it reads off such a module
    tree = ast.parse((ROOT / "demos" / demo).read_text(), demo)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "infodyn":
            for alias in node.names:
                value = getattr(importlib.import_module(node.module), alias.name)
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            assert hasattr(modules[node.value.id], node.attr), f"no {node.value.id}.{node.attr}"

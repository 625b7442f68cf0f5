"""Public API hygiene: every exported name resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import fracwave

PACKAGE = Path(fracwave.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fracwave.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"fracwave.{node.module}")
            for alias in node.names:
                if not hasattr(module, alias.name) or not hasattr(fracwave, alias.asname or alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    assert missing == []

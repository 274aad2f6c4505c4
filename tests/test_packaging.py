"""The package's imports against what pyproject.toml declares, and its exports."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_packages(source: str) -> set[str]:
    """Top-level names of every absolute import in a module, nested ones too."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # A requirement's distribution name, up to any version or marker, as an import name.
    declared = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_")
                for req in project["dependencies"]}
    undeclared = {
        (path.name, name)
        for path in sorted((ROOT / "src" / "karpelevic").glob("*.py"))
        for name in imported_packages(path.read_text())
        if name != "karpelevic" and name not in sys.stdlib_module_names and name not in declared
    }
    assert not undeclared, f"imported but not in [project] dependencies: {sorted(undeclared)}"


def test_imported_packages_sees_nested_imports():
    source = "import os.path\nfrom . import x\ndef f():\n    from mpmath import mp\n"
    assert imported_packages(source) == {"os", "mpmath"}


def test_every_exported_name_resolves():
    names = ["karpelevic"] + [f"karpelevic.{path.stem}"
                              for path in sorted((ROOT / "src" / "karpelevic").glob("*.py"))
                              if path.stem != "__init__"]
    modules = [importlib.import_module(name) for name in names]
    assert all(hasattr(module, "__all__") for module in modules)
    dangling = [(module.__name__, name) for module in modules
                for name in module.__all__ if not hasattr(module, name)]
    assert not dangling, f"listed in __all__ but not defined: {dangling}"

"""The package's imports against what pyproject.toml declares, its exports,
and the README's examples run as written."""

import ast
import contextlib
import importlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from karpelevic.cli import main

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


def test_no_function_calls_itself():
    """Nothing in the package recurses, so no recursion limit bounds an order
    or a composition's length: no function calls its own name, and no method
    calls itself through self or cls (a bare name in a method is the
    module's function of that name)."""
    recursive = []
    for path in sorted((ROOT / "src" / "karpelevic").glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                f = getattr(call, "func", None)
                if id(fn) in methods:
                    own = (isinstance(f, ast.Attribute) and f.attr == fn.name
                           and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))
                else:
                    own = isinstance(f, ast.Name) and f.id == fn.name
                if own:
                    recursive.append((path.name, fn.name, call.lineno))
    assert not recursive, f"functions that call themselves: {recursive}"


def test_readme_library_sketch_runs():
    """The README's library sketch is the documented entry point; run it as written."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library sketch\n", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(sketch, "README.md (library sketch)", "exec"), {})


def readme_commands() -> list[tuple[list[str], str | None]]:
    """Each ``karpelevic ...`` line of the README's command-line block, as
    its arguments and the file named by a trailing ``> file``, if any.
    Backslash continuations are joined and ``# ...`` comments dropped."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] != ["karpelevic"]:
            continue
        target = None
        if ">" in words:
            at = words.index(">")
            words, target = words[:at], words[at + 1]
        commands.append((words[1:], target))
    return commands


def test_readme_command_lines_run(tmp_path, monkeypatch):
    """The README's commands run in order, each exiting 0, so the
    documented flags cannot drift from the parser."""
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 13
    for argv, target in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code == 0, (argv, err.getvalue())
        if target is not None:
            Path(target).write_text(out.getvalue())


def unread_imports(source: str) -> list[str]:
    """Names bound by a module's top-level imports that the module never
    reads: not loaded anywhere in its code, nor listed in its ``__all__``."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_every_import_is_read():
    unread = {path.name: names
              for path in sorted((ROOT / "src" / "karpelevic").glob("*.py"))
              if (names := unread_imports(path.read_text()))}
    assert not unread, f"imported but never read: {unread}"


def test_unread_imports_sees_loads_and_exports():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from typing import Mapping, Union\nfrom x import y as z\n"
              "__all__ = ['z']\nT = Union[int, str]\ndef f(p: os.PathLike): pass\n")
    assert unread_imports(source) == ["json", "Mapping"]

"""Mutation pass over chosen functions and classes of one module.

Each mutant is one small change to the module's syntax tree inside the
named targets:

- a comparison flipped (``<`` to ``<=`` or ``>=``, ``==`` to ``!=``, ...);
- an integer constant moved by one either way;
- an arithmetic ``+`` and ``-`` swapped, or ``*`` made ``+``;
- a condition dropped: an ``if`` test made always true or always false,
  a ``while`` test always false, one operand of ``and``/``or`` or one
  filter of a comprehension removed, a ``not`` removed;
- a statement dropped (replaced by ``pass``).

Every mutant is written into a copy of ``src/`` and ``tests/`` and the
given test files are run against it with ``pytest -x``, one fresh
interpreter per mutant, its address space capped so that a mutant that
grows a list without end fails rather than exhausting the machine; the
mutant is killed when they fail or run past the timeout, and survives
when they pass.  The unmutated module, written
back from its tree, must pass first.  Standard library only (pytest runs
in the subprocess).  From the repository root:

    python tools/mutation_pass.py src/karpelevic/digraph.py \\
        --targets WeightedDigraph simple_cycles to_dot \\
        --tests tests/test_digraph.py tests/test_acceptance.py

prints one line per mutant and then the survivors.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

COMPARE_SWAPS = {
    ast.Lt: (ast.LtE, ast.GtE),
    ast.LtE: (ast.Lt, ast.Gt),
    ast.Gt: (ast.GtE, ast.LtE),
    ast.GtE: (ast.Gt, ast.Lt),
    ast.Eq: (ast.NotEq,),
    ast.NotEq: (ast.Eq,),
    ast.In: (ast.NotIn,),
    ast.NotIn: (ast.In,),
    ast.Is: (ast.IsNot,),
    ast.IsNot: (ast.Is,),
}
BINOP_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add}
DROPPABLE = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Raise, ast.Break,
             ast.Continue, ast.If, ast.For, ast.While, ast.Return)
OP_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
}
TIMEOUT_S = 60  # seconds per test run
MEMORY_MB = 2048  # address-space cap of each test run, in MiB


def target_nodes(tree: ast.Module, targets: list[str]) -> list[ast.AST]:
    """Every node inside the named top-level definitions and ``Class.method``
    definitions, in one fixed order."""
    named = {}
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            named[top.name] = top
            for inner in top.body if isinstance(top, ast.ClassDef) else ():
                if isinstance(inner, ast.FunctionDef):
                    named[f"{top.name}.{inner.name}"] = inner
    missing = set(targets) - named.keys()
    if missing:
        raise SystemExit(f"no definition named {sorted(missing)}")
    nodes = []
    for name, node in named.items():
        if name in targets:
            nodes.extend(ast.walk(node))
    return nodes


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
        and isinstance(stmt.value.value, str)


def mutations(node: ast.AST) -> list[tuple[str, tuple]]:
    """(description, action) for each mutant at this node; an action is
    applied by :func:`apply` to the same node of a fresh copy."""
    line = getattr(node, "lineno", "?")
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for alt in COMPARE_SWAPS[type(op)]:
                out.append((f"line {line}: {OP_SYMBOLS[type(op)]} -> {OP_SYMBOLS[alt]}",
                            ("op", i, alt)))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for delta in (1, -1):
            out.append((f"line {line}: {node.value} -> {node.value + delta}", ("const", delta)))
    elif isinstance(node, ast.BinOp) and type(node.op) in BINOP_SWAPS:
        alt = BINOP_SWAPS[type(node.op)]
        out.append((f"line {line}: {OP_SYMBOLS[type(node.op)]} -> {OP_SYMBOLS[alt]}",
                    ("binop", alt)))
    elif isinstance(node, ast.BoolOp):
        for i in range(len(node.values)):
            out.append((f"line {line}: drop operand {i + 1} of {ast.unparse(node)[:60]}",
                        ("boolop", i)))
    elif isinstance(node, ast.comprehension):
        for i in range(len(node.ifs)):
            out.append((f"line {line}: drop comprehension filter {i + 1}", ("filter", i)))
    if isinstance(node, (ast.If, ast.IfExp)):
        for value in (True, False):
            out.append((f"line {line}: if test -> {value}", ("test", value)))
    elif isinstance(node, ast.While):
        out.append((f"line {line}: while test -> False", ("test", False)))
    # A `not` is dropped from its parent, which holds it in a field.
    for field, value in ast.iter_fields(node):
        for k, child in enumerate(value if isinstance(value, list) else [value]):
            if isinstance(child, ast.UnaryOp) and isinstance(child.op, ast.Not):
                position = k if isinstance(value, list) else None
                out.append((f"line {child.lineno}: drop not", ("not", field, position)))
    for field in ("body", "orelse"):
        stmts = getattr(node, field, None)
        if isinstance(stmts, list):
            for i, stmt in enumerate(stmts):
                if isinstance(stmt, DROPPABLE) and not _is_docstring(stmt):
                    text = ast.unparse(stmt).splitlines()[0][:60]
                    out.append((f"line {stmt.lineno}: drop `{text}`", ("drop", field, i)))
    return out


def apply(node: ast.AST, action: tuple) -> None:
    kind = action[0]
    if kind == "op":
        node.ops[action[1]] = action[2]()
    elif kind == "const":
        node.value += action[1]
    elif kind == "binop":
        node.op = action[1]()
    elif kind == "boolop":
        del node.values[action[1]]
    elif kind == "filter":
        del node.ifs[action[1]]
    elif kind == "test":
        node.test = ast.Constant(action[1])
    elif kind == "drop":
        getattr(node, action[1])[action[2]] = ast.Pass()
    elif kind == "not":
        _, field, position = action
        if position is None:
            setattr(node, field, getattr(node, field).operand)
        else:
            getattr(node, field)[position] = getattr(node, field)[position].operand


def all_mutants(tree: ast.Module, targets: list[str]) -> list[tuple[int, str, tuple]]:
    return [
        (index, description, action)
        for index, node in enumerate(target_nodes(tree, targets))
        for description, action in mutations(node)
    ]


def mutant_source(tree: ast.Module, targets: list[str], index: int, action: tuple) -> str:
    mutant = copy.deepcopy(tree)
    apply(target_nodes(mutant, targets)[index], action)
    return ast.unparse(mutant) + "\n"


def run_tests(workdir: str, tests: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for the test files in the copy."""
    env = {**os.environ, "PYTHONPATH": os.path.join(workdir, "src"),
           "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    limit = MEMORY_MB * 2**20

    def cap_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            preexec_fn=cap_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if result.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module path, relative to the repository root")
    parser.add_argument("--targets", nargs="+", required=True,
                        help="top-level functions and classes, or Class.method, to mutate")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run")
    args = parser.parse_args(argv)

    with open(args.module) as f:
        tree = ast.parse(f.read())
    mutants = all_mutants(tree, args.targets)

    workdir = tempfile.mkdtemp(prefix="mutation-pass-")
    try:
        for part in ("src", "tests"):
            shutil.copytree(part, os.path.join(workdir, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("pyproject.toml", workdir)
        target = os.path.join(workdir, args.module)
        with open(target, "w") as f:
            f.write(ast.unparse(tree) + "\n")
        if run_tests(workdir, args.tests) != "passed":
            print("the unmutated module fails its tests; no mutants run")
            return 2
        survivors = []
        for k, (index, description, action) in enumerate(mutants, 1):
            with open(target, "w") as f:
                f.write(mutant_source(tree, args.targets, index, action))
            start = time.perf_counter()
            outcome = run_tests(workdir, args.tests)
            verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
            print(f"{k:4d} {verdict:17s} {time.perf_counter() - start:5.1f} s  {description}",
                  flush=True)
            if outcome == "passed":
                survivors.append((k, description))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(mutants)} mutants, {len(survivors)} survived")
    for k, description in survivors:
        print(f"  {k:4d} {description}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

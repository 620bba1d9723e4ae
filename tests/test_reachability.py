"""Every module under ``src/repro`` is reached from a program entry point.

The entry points are the CLI (``python -m repro``), the benchmark
scripts, the examples and the perfbench harness.  A module that only
tests reach is a paper model whose numbers no output reads; it should
either back a reported number or be deleted.

The walk parses files with :mod:`ast` and imports nothing.  It follows
``repro`` imports transitively, with two rules for package
``__init__`` files:

* a name imported through a package counts only for the module that
  defines it, so a facade re-export keeps nothing alive on its own;
* an explicit submodule import counts (``from repro.analysis import
  determinism`` registers a rule pack), and importing a module runs
  its parent packages' explicit submodule imports too.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRIPTS = [*sorted((ROOT / "benchmarks").glob("*.py")),
           *sorted((ROOT / "examples").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

# Modules left unreached on purpose.  `topology/dor.py` waits on the
# decision of how `FlowSim` routes (dimension-order routing would make
# all-to-all routes translation-invariant, but changes simulated times).
EXPECTED_UNREACHED = {"repro.topology.dor"}


def _module_files() -> dict[str, Path]:
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _imports(node: ast.AST) -> list[tuple[str, str | None]]:
    """``(module, name)`` pairs of the ``repro`` imports anywhere in
    `node`; name None imports the module itself."""
    found: list[tuple[str, str | None]] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Import):
            found += [(alias.name, None) for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.module:
            found += [(child.module, alias.name) for alias in child.names]
    return [(module, name) for module, name in found
            if module.partition(".")[0] == "repro"]


def reached_modules() -> set[str]:
    """Every module the entry points reach under the rules above."""
    trees: dict[str, ast.Module] = {}
    visited: set[str] = set()

    def tree(module: str) -> ast.Module:
        if module not in trees:
            trees[module] = ast.parse(MODULES[module].read_text())
        return trees[module]

    def visit(module: str) -> None:
        parent = module.rpartition(".")[0]
        if parent:
            visit(parent)
        if module in visited:
            return
        visited.add(module)
        if not _is_package(module):
            for ref in _imports(tree(module)):
                resolve(*ref)
            return
        for stmt in tree(module).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for mod, name in _imports(stmt):
                    if name is None or f"{mod}.{name}" in MODULES:
                        resolve(mod, name)

    def resolve(module: str, name: str | None) -> None:
        if name is not None and f"{module}.{name}" in MODULES:
            module, name = f"{module}.{name}", None
        visit(module)
        if name is None or not _is_package(module):
            return
        for stmt in tree(module).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module in MODULES:
                for alias in stmt.names:
                    if (alias.asname or alias.name) == name:
                        resolve(stmt.module, alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    stmt.name == name:
                for ref in _imports(stmt):
                    resolve(*ref)

    visit("repro.__main__")
    for path in SCRIPTS:
        for ref in _imports(ast.parse(path.read_text())):
            resolve(*ref)
    return visited


def test_only_expected_modules_are_unreached():
    unreached = {module for module in MODULES
                 if not _is_package(module)} - reached_modules()
    assert unreached == EXPECTED_UNREACHED

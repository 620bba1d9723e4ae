"""Every module, function, class and method under ``src/repro`` is
reached from a program entry point.

The entry points are the CLI (``python -m repro``), the benchmark
scripts, the examples and the perfbench harness.  Code that only tests
reach is a paper model whose numbers no output reads; it should either
back a reported number or be deleted.

The walks parse files with :mod:`ast` and import nothing.  The module
walk follows ``repro`` imports transitively, with two rules for package
``__init__`` files:

* a name imported through a package counts only for the module that
  defines it, so a facade re-export keeps nothing alive on its own;
* an explicit submodule import counts (``from repro.analysis import
  determinism`` registers a rule pack), and importing a module runs
  its parent packages' explicit submodule imports too.

The name walk then runs to a fixed point over the reached modules.  It
starts from their module-level statements and from the entry scripts,
and collects every name that reached code uses: loaded variables,
attributes on any object, and string constants split at dots (the
perfbench harness wraps methods by name).  A top-level function or
class is reached when a reached name matches it, a method when its
class is reached and a reached name matches it.  The match ignores
modules and receivers, so the walk errs towards keeping code.  Also
reached, by rule: dunder methods and ``visit_*`` methods of a reached
class (Python and :class:`ast.NodeVisitor` call them by name), and
``@rule``-registered detlint checks (the registry calls them).  Imports
and ``__all__`` lists name nothing: they do not run the code they name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRIPTS = [*sorted((ROOT / "benchmarks").glob("*.py")),
           *sorted((ROOT / "examples").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

# Modules left unreached on purpose.  `topology/dor.py` waits on the
# decision of how `FlowSim` routes (dimension-order routing would make
# all-to-all routes translation-invariant, but changes simulated times).
# The name walk treats everything in them, and everything they name, as
# reached.
EXPECTED_UNREACHED = {"repro.topology.dor"}

# Names that no entry point reaches, kept on purpose.  Each one is a
# test's only window on state that stays, or a documented facade that
# tests call.
EXPECTED_UNREACHED_NAMES = {
    # The README's public API table lists it; test_fleet_simulator.py and
    # test_fleet_determinism.py call it.
    "repro.fleet.simulator:run_fleet",
    # Read the private circuit ledgers for the conservation checks in
    # test_fleet_properties.py (every running job holds its circuits and
    # trunk ports) and the trunk tests in test_fleet_fabric.py and
    # test_fleet_machine.py.
    "repro.fleet.fabric:PodFabric.holds",
    "repro.fleet.machine:MachineFabric.holds_trunks",
    "repro.fleet.machine:MachineFabric.trunk_ports_of",
    # Draws the twist specs for the one-source oracle in
    # test_topology_properties.py.
    "repro.topology.twisted:_twist_candidates",
}


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


def _used_names(nodes, aliases: dict[str, str]) -> set[str]:
    """Names that the code under `nodes` uses; see the module docstring."""
    used: set[str] = set()
    for node in nodes:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and \
                    isinstance(child.ctx, ast.Load):
                used.add(aliases.get(child.id, child.id))
            elif isinstance(child, ast.Attribute):
                used.add(child.attr)
            elif isinstance(child, ast.Constant) and \
                    isinstance(child.value, str):
                used.update(part for part in child.value.split(".")
                            if part.isidentifier())
    return used


def _is_export_list(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [getattr(stmt, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets)


def _is_detlint_rule(node: ast.AST) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
               and dec.func.id == "rule" for dec in node.decorator_list)


def _called_by_name(method: str) -> bool:
    return (method.startswith("__") and method.endswith("__")) or \
        method.startswith("visit_")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(eq=False)
class _Definition:
    """A top-level function or class, or a member of a class."""

    module: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    aliases: dict[str, str]
    owner: "_Definition | None" = None

    def reached_by_rule(self) -> bool:
        if self.module in EXPECTED_UNREACHED:
            return True
        if self.owner is None:
            return _is_detlint_rule(self.node)
        return _called_by_name(self.node.name)

    def code(self) -> list[ast.AST]:
        """The nodes that run when this definition is reached: a class
        without its members' bodies, which are definitions of their own."""
        if not isinstance(self.node, ast.ClassDef):
            return [self.node]
        return [*self.node.decorator_list, *self.node.bases,
                *self.node.keywords,
                *(stmt for stmt in self.node.body
                  if not isinstance(stmt, _DEFS))]

    def members(self) -> list["_Definition"]:
        if not isinstance(self.node, ast.ClassDef):
            return []
        return [_Definition(self.module, f"{self.qualname}.{stmt.name}",
                            stmt, self.aliases, self)
                for stmt in self.node.body if isinstance(stmt, _DEFS)]

    def lines(self) -> int:
        first = min([self.node.lineno] +
                    [dec.lineno for dec in self.node.decorator_list])
        return self.node.end_lineno - first + 1


def unreached_names() -> dict[str, int]:
    """``module:qualname`` -> line count of every definition in a reached
    module that no reached code names; a class's members are listed only
    when the class itself is reached."""
    used: set[str] = set()
    waiting: list[_Definition] = []
    for module in sorted(reached_modules() | EXPECTED_UNREACHED):
        body = ast.parse(MODULES[module].read_text()).body
        aliases = {alias.asname: alias.name for stmt in body
                   if isinstance(stmt, ast.ImportFrom)
                   for alias in stmt.names if alias.asname}
        used |= _used_names(
            [stmt for stmt in body if not isinstance(stmt, _DEFS)
             and not _is_export_list(stmt)
             and not (_is_package(module) and
                      isinstance(stmt, (ast.Import, ast.ImportFrom)))],
            aliases)
        waiting += [_Definition(module, stmt.name, stmt, aliases)
                    for stmt in body if isinstance(stmt, _DEFS)]
    for path in SCRIPTS:
        used |= _used_names([ast.parse(path.read_text())], {})

    # A member waits only once its class is reached.
    while ready := [d for d in waiting
                    if d.reached_by_rule() or d.node.name in used]:
        for definition in ready:
            used |= _used_names(definition.code(), definition.aliases)
        done = set(ready)
        waiting = [d for d in waiting if d not in done] + \
            [member for d in ready for member in d.members()]
    return {f"{d.module}:{d.qualname}": d.lines() for d in waiting}


def test_only_expected_names_are_unreached():
    unreached = unreached_names()
    unexpected = sorted(set(unreached) - set(EXPECTED_UNREACHED_NAMES))
    assert not unexpected, "reached by no entry point:\n" + "\n".join(
        f"  {name} ({unreached[name]} lines)" for name in unexpected)
    assert set(unreached) == set(EXPECTED_UNREACHED_NAMES)

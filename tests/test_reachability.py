"""Every module, function, class, method, constant and field under
``src/repro`` is reached from a program entry point.

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

The state walk then checks, with the names the name walk collected,
that reached code reads every piece of state a reached module keeps:
each module-level constant, and each class-level attribute or
dataclass/NamedTuple field of a reached class (Enum members, dunders
and ``visit_*`` aliases count as read by rule).  It also checks that a
non-package module reads, in its own code, every name it imports.
"""

from __future__ import annotations

import ast
import shutil
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


def _module_files(src: Path = SRC) -> dict[str, Path]:
    files = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
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


def _name_walk() -> tuple[set[str], list[_Definition], list[_Definition]]:
    """The names reached code uses, the reached definitions, and the
    unreached ones; a class's members wait only once it is reached."""
    used: set[str] = set()
    reached: list[_Definition] = []
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

    while ready := [d for d in waiting
                    if d.reached_by_rule() or d.node.name in used]:
        for definition in ready:
            used |= _used_names(definition.code(), definition.aliases)
        reached += ready
        done = set(ready)
        waiting = [d for d in waiting if d not in done] + \
            [member for d in ready for member in d.members()]
    return used, reached, waiting


def unreached_names() -> dict[str, int]:
    """``module:qualname`` -> line count of every definition in a reached
    module that no reached code names; a class's members are listed only
    when the class itself is reached."""
    return {f"{d.module}:{d.qualname}": d.lines() for d in _name_walk()[2]}


def test_only_expected_names_are_unreached():
    unreached = unreached_names()
    unexpected = sorted(set(unreached) - set(EXPECTED_UNREACHED_NAMES))
    assert not unexpected, "reached by no entry point:\n" + "\n".join(
        f"  {name} ({unreached[name]} lines)" for name in unexpected)
    assert set(unreached) == set(EXPECTED_UNREACHED_NAMES)


# State that no entry point reads, kept on purpose.  Each one is a
# reference that a test compares the model or the wiring against.
EXPECTED_UNREAD = {
    # Table 3's published best configuration: test_parallelism.py
    # (TestMapping.test_table3_configs_map, TestLLMCostModel and
    # TestTable3Search.test_search_beats_published_best) prices it
    # against the search's choice.
    "repro.parallelism.search:CaseStudy.best_shape",
    "repro.parallelism.search:CaseStudy.best_spec",
    # The chip pair a circuit joins: test_ocs_fabric.py
    # (TestRealizeSlice.test_topology_edge_dims_consistent) checks it is
    # an edge of the slice topology along the circuit's dimension.
    "repro.ocs.reconfigure:Circuit.chip_link",
}


def _assigned(stmt: ast.stmt) -> list[str]:
    """The plain names an assignment statement binds."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _is_enum(node: ast.ClassDef) -> bool:
    return any(getattr(base, "id", getattr(base, "attr", "")).endswith(
        ("Enum", "Flag")) for base in node.bases)


def _imported(stmt: ast.stmt) -> list[str]:
    """The names an import statement binds (none for ``__future__``)."""
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.partition(".")[0]
                for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def unread_state() -> dict[str, str]:
    """``module:name`` -> kind of every module constant, class attribute
    or field, and import in a reached module that no reached code reads."""
    used, reached, _ = _name_walk()
    unread: dict[str, str] = {}
    for module in sorted(reached_modules() - EXPECTED_UNREACHED):
        tree = ast.parse(MODULES[module].read_text())
        for stmt in tree.body:
            for name in _assigned(stmt):
                if name not in used and not _called_by_name(name):
                    unread[f"{module}:{name}"] = "module constant"
        if _is_package(module):
            continue
        local = {child.id for child in ast.walk(tree)
                 if isinstance(child, ast.Name)
                 and isinstance(child.ctx, ast.Load)}
        for stmt in tree.body:
            for name in _imported(stmt):
                if name not in local:
                    unread[f"{module}:{name}"] = "import"
    for definition in reached:
        node = definition.node
        if not isinstance(node, ast.ClassDef) or _is_enum(node) or \
                definition.module in EXPECTED_UNREACHED:
            continue
        for stmt in node.body:
            for name in _assigned(stmt):
                if name not in used and not _called_by_name(name):
                    unread[f"{definition.module}:{definition.qualname}."
                           f"{name}"] = "class attribute or field"
    return unread


def test_only_expected_state_is_unread():
    unread = unread_state()
    unexpected = sorted(set(unread) - EXPECTED_UNREAD)
    assert not unexpected, "read by no entry point:\n" + "\n".join(
        f"  {name} ({unread[name]})" for name in unexpected)
    assert set(unread) == EXPECTED_UNREAD


def test_state_walk_names_planted_state(tmp_path, monkeypatch):
    shutil.copytree(SRC / "repro", tmp_path / "repro")
    plants = {
        "core/availability.py": ("    mean_goodput: float\n",
                                 "    planted_field: float = 0.0\n"),
        "units.py": ("MS = 1e-3\n", "PLANTED_CONSTANT = 2.0\n"),
        "core/deployment.py": ("from dataclasses import dataclass\n",
                               "from dataclasses import field\n"),
    }
    for name, (anchor, line) in plants.items():
        path = tmp_path / "repro" / name
        text = path.read_text()
        assert text.count(anchor) == 1
        path.write_text(text.replace(anchor, anchor + line))
    monkeypatch.setitem(globals(), "MODULES", _module_files(tmp_path))
    assert set(unread_state()) - EXPECTED_UNREAD == {
        "repro.core.availability:GoodputResult.planted_field",
        "repro.units:PLANTED_CONSTANT",
        "repro.core.deployment:field",
    }

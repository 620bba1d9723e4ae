"""Cross-file contract rules (C101–C102).

These rules check agreements *between* files that no single-file pass
can see:

* **C101** — facade integrity.  A package ``__init__`` that declares
  a curated ``__all__`` must keep it honest: every exported name is
  actually bound in the module, no name is exported twice, every
  ``from x import y`` it relies on names a symbol its source module
  really binds, and every symbol the facade *defines* itself is
  either exported or underscore-private.  (Names merely imported but
  left out of ``__all__`` are the documented deep-import surface, not
  violations.)
* **C102** — schema-literal drift.  String keys read off a
  ``.summary`` mapping anywhere in the tree must exist in the schema
  those mappings are built from — the ``SUMMARY_SCHEMA`` dict in
  ``fleet/telemetry.py`` and the ``SERVE_SCHEMA`` dicts in
  ``fleet/serve/tier.py`` — and the trace records ``dumps_trace``
  writes, as dict literals or as module-level JSON line templates,
  must stay inside the reader's ``_*_KEYS`` allowlists in the same
  module.  A key rename that touches only one side fails here instead
  of at replay time.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.astutil import attach_parents, dotted_name
from repro.analysis.core import Finding, SourceFile
from repro.analysis.rules import ProjectContext, rule

#: Where the summary schemas live: (path suffix, function names whose
#: dict literals and subscript-stores define the key set).
SCHEMA_ANCHORS = (
    ("repro/fleet/telemetry.py", ("summary",)),
    ("repro/fleet/serve/tier.py", ("report", "_pool_report")),
    # The engine extends the telemetry summary with run-level keys
    # (drain_fraction) after summary() returns; those subscript
    # stores are schema definitions, not drift.
    ("repro/fleet/simulator.py", ("run",)),
)

#: The trace writer/reader pair checked for record-key drift.
TRACE_ANCHOR = "repro/fleet/trace.py"

#: A key in a JSON line template such as ``'{"job_id": %s, ...}'``.
_TEMPLATE_KEY = re.compile(r'"(\w+)": ')


def _module_name(source: SourceFile) -> str | None:
    """Dotted module name derived from the path's `repro` root."""
    parts = source.posix.split("/")
    if "repro" not in parts:
        return None
    dotted = parts[parts.index("repro"):]
    if dotted[-1] == "__init__.py":
        dotted = dotted[:-1]
    elif dotted[-1].endswith(".py"):
        dotted[-1] = dotted[-1][:-3]
    return ".".join(dotted)


def _top_level_bindings(tree: ast.Module) -> set[str]:
    """Names bound at module level (imports and nested blocks too).

    Function and class bodies bind no module names, so only the
    definition statements themselves count there; every other
    statement (including top-level ``if``/``try``/``for`` blocks used
    for conditional imports or registry loops) is walked for name
    stores and import aliases.
    """
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
            continue
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                bound.add(sub.name)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    if alias.name != "*":
                        bound.add(alias.asname or
                                  alias.name.split(".")[0])
            elif isinstance(sub, ast.Name) and \
                    isinstance(sub.ctx, ast.Store):
                bound.add(sub.id)
    return bound


def _declared_all(tree: ast.Module) -> tuple[list[str], int] | None:
    """(__all__ entries, line) when declared as a literal, else None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets) and \
                isinstance(node.value, (ast.List, ast.Tuple)):
            names = [element.value for element in node.value.elts
                     if isinstance(element, ast.Constant) and
                     isinstance(element.value, str)]
            return names, node.lineno
    return None


@rule("C101", "facade-drift",
      "__all__ facade out of sync: unresolvable or duplicate exports, "
      "unexported public definitions, or from-imports naming symbols "
      "their source module does not bind", cross_file=True)
def check_facade(context: ProjectContext) -> Iterator[Finding]:
    index: dict[str, SourceFile] = {}
    for source in context.sources:
        module = _module_name(source)
        if module is not None:
            index[module] = source
    bindings_cache: dict[str, set[str]] = {}

    def bindings(module: str) -> set[str] | None:
        if module not in index:
            return None
        if module not in bindings_cache:
            bindings_cache[module] = _top_level_bindings(
                index[module].tree)
        return bindings_cache[module]

    for source in context.sources:
        declared = _declared_all(source.tree)
        bound = _top_level_bindings(source.tree)
        # from-import resolution runs for every module; the __all__
        # bookkeeping only where a facade is declared.
        for node in source.tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module is not None:
                exporter = bindings(node.module)
                if exporter is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    if alias.name not in exporter and \
                            f"{node.module}.{alias.name}" not in index:
                        yield Finding(
                            rule="C101", path=source.display_path,
                            line=node.lineno, col=node.col_offset,
                            message=f"from {node.module} import "
                                    f"{alias.name}: the source module "
                                    f"binds no such name")
        if declared is None or not source.posix.endswith("__init__.py"):
            continue
        names, line = declared
        seen: set[str] = set()
        for name in names:
            if name in seen:
                yield Finding(
                    rule="C101", path=source.display_path, line=line,
                    col=0,
                    message=f"__all__ exports {name!r} twice")
            seen.add(name)
            if name not in bound:
                yield Finding(
                    rule="C101", path=source.display_path, line=line,
                    col=0,
                    message=f"__all__ exports {name!r} but the module "
                            f"binds no such name")
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [leaf.id for target in node.targets
                           for leaf in ast.walk(target)
                           if isinstance(leaf, ast.Name)]
            else:
                continue
            for name in defined:
                if not name.startswith("_") and name not in seen:
                    yield Finding(
                        rule="C101", path=source.display_path,
                        line=node.lineno, col=node.col_offset,
                        message=f"public symbol {name!r} defined in a "
                                f"curated facade but not exported; "
                                f"add it to __all__ or make it "
                                f"underscore-private")


def _schema_keys_of(source: SourceFile,
                    functions: tuple[str, ...]) -> set[str]:
    """String keys built by the named functions' dict literals and
    subscript-store assignments."""
    keys: set[str] = set()
    for node in ast.walk(source.tree):
        if not (isinstance(node, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)) and
                node.name in functions):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Dict):
                for key in inner.keys:
                    if isinstance(key, ast.Constant) and \
                            isinstance(key.value, str):
                        keys.add(key.value)
            elif isinstance(inner, ast.Subscript) and \
                    isinstance(inner.ctx, ast.Store) and \
                    isinstance(inner.slice, ast.Constant) and \
                    isinstance(inner.slice.value, str):
                keys.add(inner.slice.value)
    return keys


def _trace_drift(source: SourceFile) -> Iterator[Finding]:
    """dumps_trace record keys vs the module's _*_KEYS allowlists."""
    allowed: set[str] = set()
    for node in source.tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id.endswith("_KEYS")
                    for t in node.targets) and \
                isinstance(node.value, (ast.Set, ast.List, ast.Tuple)):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and \
                        isinstance(element.value, str):
                    allowed.add(element.value)
    if not allowed:
        return
    templates: dict[str, ast.Assign] = {}
    for node in source.tree.body:
        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    templates[target.id] = node
    for node in ast.walk(source.tree):
        if not (isinstance(node, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)) and
                node.name == "dumps_trace"):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Dict):
                site: ast.AST = inner
                keys = [key.value for key in inner.keys
                        if isinstance(key, ast.Constant) and
                        isinstance(key.value, str)]
            elif isinstance(inner, ast.Name) and inner.id in templates:
                site = templates[inner.id]
                keys = _TEMPLATE_KEY.findall(site.value.value)
            else:
                continue
            if "type" not in keys:
                continue
            for key in keys:
                if key not in allowed:
                    yield Finding(
                        rule="C102", path=source.display_path,
                        line=site.lineno, col=site.col_offset,
                        message=f"trace writer emits key {key!r} that "
                                f"no _*_KEYS reader allowlist "
                                f"accepts; replay would reject the "
                                f"recorded trace")


@rule("C102", "schema-literal-drift",
      "string key read off a .summary mapping that the summary/serve "
      "schema definitions never emit, or a trace record key outside "
      "the reader's allowlist", cross_file=True)
def check_schema_literals(context: ProjectContext) -> Iterator[Finding]:
    known: set[str] = set()
    anchors_found = False
    for suffix, functions in SCHEMA_ANCHORS:
        anchor = context.locate(suffix)
        if anchor is not None:
            anchors_found = True
            known |= _schema_keys_of(anchor, functions)
    trace = context.locate(TRACE_ANCHOR)
    if trace is not None:
        yield from _trace_drift(trace)
    if not anchors_found:
        return  # schema sources unavailable: nothing to check against
    for source in context.sources:
        attach_parents(source.tree)
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Subscript) and
                    isinstance(node.slice, ast.Constant) and
                    isinstance(node.slice.value, str)):
                continue
            target = node.value
            is_summary = (isinstance(target, ast.Attribute) and
                          target.attr == "summary") or \
                         (isinstance(target, ast.Name) and
                          target.id == "summary")
            if not is_summary:
                continue
            key = node.slice.value
            if key not in known:
                owner = dotted_name(target) or "summary"
                yield Finding(
                    rule="C102", path=source.display_path,
                    line=node.lineno, col=node.col_offset,
                    message=f"{owner}[{key!r}] reads a key the "
                            f"summary/serve schema definitions never "
                            f"emit; fix the key or update the schema "
                            f"(and bump its version)")

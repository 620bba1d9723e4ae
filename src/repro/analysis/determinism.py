"""The determinism rule pack (D001–D005).

Each rule encodes a hazard class that has either bitten this repo or
is banned by its determinism contract (every fleet run replays
byte-identically per seed; README "Workload traces: record and
replay"):

* **D001** — iterating a set-typed expression where order can leak
  (for-loops, comprehensions building ordered results, ``list``/
  ``tuple``/``enumerate``/``join`` materialization) without an
  enclosing ``sorted()``.  Set iteration order depends on insertion
  history and, for strings, on ``PYTHONHASHSEED`` — it is never part
  of the contract.
* **D002** — wall-clock reads outside the profiler allowlist.  Host
  time may never influence simulation results; the only sanctioned
  readers are the dispatch profiler and the engine's best-of-N
  ``run_seconds`` stamp (see :mod:`repro.fleet.obs.profiler`).
* **D003** — unseeded randomness: the stdlib ``random`` module's
  global stream and numpy's global-state ``np.random.*`` calls.  The
  repo convention is an explicitly passed ``np.random.Generator``
  (see ``fleet/failures.py`` and ``fleet/workload.py``).
* **D004** — ``json.dumps``/``json.dump``, or a ``json.JSONEncoder``
  built, without ``sort_keys=True``.  Every export, trace, and summary
  path is byte-diffed in CI; dict key order must come from the sort,
  not from insertion history.
* **D005** — float accumulation (``sum``/``math.fsum``/``+=`` loops)
  over dict views or set expressions without ``sorted()``.  Float
  addition is not associative, so the iteration order of the source
  is part of the result; integer sums are order-free and may carry a
  justified suppression instead.

All checks are syntactic and single-file; what cannot be proven
absent is flagged, and provably-benign sites carry
``# detlint: ignore[rule]`` with a one-line justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import astutil
from repro.analysis.core import Finding, SourceFile
from repro.analysis.rules import rule

#: Calls that read the host clock (resolved, fully-qualified).
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: D002 allowlist — the *only* sanctioned wall-clock readers.  The
#: profiler module is exempt wholesale (measuring host time is its
#: job); in the engine file, only functions that stamp a profiler's
#: ``run_seconds`` may read the clock, which pins the exemption to the
#: best-of-N timing site and nothing else.
PROFILER_FILES = ("repro/fleet/obs/profiler.py",)
RUN_SECONDS_FILES = ("repro/fleet/simulator.py",)

#: D003 allowlist — numpy.random names that *construct* explicit,
#: seedable streams rather than touching the hidden global state.
SEEDED_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.PCG64DXSM", "numpy.random.Philox",
    "numpy.random.SFC64", "numpy.random.MT19937",
    "numpy.random.BitGenerator",
})

#: Bare-name consumers whose result does not depend on argument
#: order — feeding them a set is fine.
_ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "min", "max", "any", "all", "len",
    "sum", "iter",  # sum/fsum order-sensitivity is D005's concern
})

#: Bare-name consumers that materialize their argument's order.
_ORDERING_CONSUMERS = frozenset({"list", "tuple", "enumerate"})


def _suffix_match(posix_path: str, suffixes: tuple[str, ...]) -> bool:
    return any(posix_path.endswith(suffix) for suffix in suffixes)


def _scope_set_names(source: SourceFile) -> dict[ast.AST | None,
                                                 set[str]]:
    """Set-typed names per scope (module scope keyed by None)."""
    scopes: dict[ast.AST | None, set[str]] = {
        None: astutil.set_names_in_scope(source.tree)}
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes[node] = astutil.set_names_in_scope(node)
    return scopes


def _set_names_at(node: ast.AST,
                  scopes: dict[ast.AST | None, set[str]]) -> set[str]:
    function = astutil.enclosing_function(node)
    names = set(scopes[None])
    if function is not None:
        names |= scopes.get(function, set())
    return names


@rule("D001", "unordered-iteration",
      "set-typed expression iterated or materialized where order can "
      "leak, without an enclosing sorted()")
def check_unordered_iteration(source: SourceFile) -> Iterator[Finding]:
    astutil.attach_parents(source.tree)
    scopes = _scope_set_names(source)

    def finding(node: ast.expr, how: str) -> Finding:
        return Finding(
            rule="D001", path=source.display_path, line=node.lineno,
            col=node.col_offset,
            message=f"iteration order of a set {how}; wrap the set in "
                    f"sorted() or restructure to an ordered source")

    for node in ast.walk(source.tree):
        if isinstance(node, ast.For):
            if astutil.is_unordered(node.iter,
                                    _set_names_at(node, scopes)):
                yield finding(node.iter, "drives this for-loop")
        elif isinstance(node, (ast.ListComp, ast.DictComp,
                               ast.GeneratorExp)):
            # SetComp is exempt: a set built from a set leaks nothing.
            # A generator handed straight to an order-free consumer
            # (sorted, min, sum, ...) is exempt too.
            if isinstance(node, ast.GeneratorExp):
                parent = astutil.parent_of(node)
                if isinstance(parent, ast.Call) and \
                        isinstance(parent.func, ast.Name) and \
                        parent.func.id in _ORDER_FREE_CONSUMERS:
                    continue
            names = _set_names_at(node, scopes)
            for generator in node.generators:
                if astutil.is_unordered(generator.iter, names):
                    yield finding(generator.iter,
                                  "feeds this comprehension")
        elif isinstance(node, ast.Call):
            names = _set_names_at(node, scopes)
            if isinstance(node.func, ast.Name) and \
                    node.func.id in _ORDERING_CONSUMERS and node.args:
                if astutil.is_unordered(node.args[0], names):
                    yield finding(node.args[0],
                                  f"is materialized by "
                                  f"{node.func.id}()")
            elif isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "join" and node.args and \
                    astutil.is_unordered(node.args[0], names):
                yield finding(node.args[0], "is joined into a string")


@rule("D002", "wall-clock-read",
      "host clock read outside the profiler allowlist (obs/profiler "
      "wholesale; simulator only in run_seconds-stamping functions)")
def check_wall_clock(source: SourceFile) -> Iterator[Finding]:
    if _suffix_match(source.posix, PROFILER_FILES):
        return
    astutil.attach_parents(source.tree)
    imports = astutil.collect_imports(source.tree)
    run_seconds_file = _suffix_match(source.posix, RUN_SECONDS_FILES)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = astutil.resolve_call(node, imports)
        if resolved not in WALL_CLOCK_CALLS:
            continue
        if run_seconds_file:
            function = astutil.enclosing_function(node)
            if function is not None and any(
                    isinstance(inner, ast.Attribute) and
                    inner.attr == "run_seconds"
                    for inner in ast.walk(function)):
                continue
        yield Finding(
            rule="D002", path=source.display_path, line=node.lineno,
            col=node.col_offset,
            message=f"wall-clock read {resolved}() outside the "
                    f"profiler allowlist; host time must never reach "
                    f"simulation state")


@rule("D003", "unseeded-randomness",
      "stdlib random.* call or numpy global-state np.random.* call; "
      "pass an explicit np.random.Generator stream instead")
def check_unseeded_randomness(source: SourceFile) -> Iterator[Finding]:
    imports = astutil.collect_imports(source.tree)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = astutil.resolve_call(node, imports)
        if resolved is None:
            continue
        if resolved.startswith("random.") and \
                resolved != "random.Random":
            yield Finding(
                rule="D003", path=source.display_path,
                line=node.lineno, col=node.col_offset,
                message=f"{resolved}() draws from the stdlib global "
                        f"stream; use the run's seeded "
                        f"np.random.Generator")
        elif resolved.startswith("numpy.random.") and \
                resolved not in SEEDED_CONSTRUCTORS:
            yield Finding(
                rule="D003", path=source.display_path,
                line=node.lineno, col=node.col_offset,
                message=f"{resolved}() mutates numpy's hidden global "
                        f"RNG state; use an explicit seeded Generator")


@rule("D004", "unsorted-json",
      "json.dumps/json.dump/json.JSONEncoder without sort_keys=True; "
      "byte-diffed outputs need key order from the sort, not insertion "
      "history")
def check_unsorted_json(source: SourceFile) -> Iterator[Finding]:
    imports = astutil.collect_imports(source.tree)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = astutil.resolve_call(node, imports)
        if resolved not in ("json.dumps", "json.dump", "json.JSONEncoder"):
            continue
        sorts = [keyword for keyword in node.keywords
                 if keyword.arg == "sort_keys"]
        if sorts and not (isinstance(sorts[0].value, ast.Constant) and
                          sorts[0].value.value is False):
            continue
        name = resolved.rpartition(".")[2]
        yield Finding(
            rule="D004", path=source.display_path, line=node.lineno,
            col=node.col_offset,
            message=f"json.{name}() without sort_keys=True; dict "
                    f"insertion order leaks into byte-diffed output")


def _provably_int(node: ast.expr) -> bool:
    """Summands whose addition is order-free (ints by construction)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, int) and \
            not isinstance(node.value, bool)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("len", "int", "ord")
    return False


def _unordered_sum_source(node: ast.expr,
                          set_names: set[str]) -> ast.expr | None:
    """The unordered iterable feeding a sum argument, if any.

    Returns the offending sub-expression for a dict view, a set
    expression, or a comprehension/generator drawing from either —
    unless the element being accumulated is provably an integer.
    """
    if astutil.is_dict_view(node) or \
            astutil.is_unordered(node, set_names):
        return node
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        if _provably_int(node.elt):
            return None
        for generator in node.generators:
            if astutil.is_dict_view(generator.iter) or \
                    astutil.is_unordered(generator.iter, set_names):
                return generator.iter
    return None


@rule("D005", "unordered-float-accumulation",
      "sum()/fsum()/+= accumulation over a dict view or set "
      "expression without sorted(); float addition is "
      "order-sensitive")
def check_unordered_accumulation(source: SourceFile) \
        -> Iterator[Finding]:
    astutil.attach_parents(source.tree)
    scopes = _scope_set_names(source)
    imports = astutil.collect_imports(source.tree)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            is_sum = astutil.is_call_to(node, "sum") or \
                astutil.resolve_call(node, imports) == "math.fsum"
            if not (is_sum and node.args):
                continue
            offending = _unordered_sum_source(
                node.args[0], _set_names_at(node, scopes))
            if offending is not None:
                yield Finding(
                    rule="D005", path=source.display_path,
                    line=node.lineno, col=node.col_offset,
                    message="accumulation over an unordered source; "
                            "float addition is order-sensitive — "
                            "sort the source, or suppress with a "
                            "justification if the sum is integral")
        elif isinstance(node, ast.For):
            names = _set_names_at(node, scopes)
            if not (astutil.is_dict_view(node.iter) or
                    astutil.is_unordered(node.iter, names)):
                continue
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.AugAssign) and \
                        isinstance(stmt.op, ast.Add) and \
                        not _provably_int(stmt.value):
                    yield Finding(
                        rule="D005", path=source.display_path,
                        line=stmt.lineno, col=stmt.col_offset,
                        message="+= accumulation inside a loop over "
                                "an unordered source; float addition "
                                "is order-sensitive — sort the "
                                "source, or suppress with a "
                                "justification if the sum is "
                                "integral")

"""detlint: a determinism-contract static analyzer for the fleet code.

The repo's headline guarantee — every fleet run byte-identical per
seed — is enforced dynamically by digest gates, double-run diffs, and
record/replay diffs.  Those catch a hazard only after it fires on a
sampled seed.  This package
is the designed-in complement: an AST-based lint pass that proves
whole hazard classes absent *before* runtime — unordered iteration
(D001), wall-clock reads (D002), unseeded randomness (D003),
unsorted JSON exports (D004), order-sensitive float accumulation
(D005) — plus cross-file contract rules for the curated package
facades (C101) and the summary/serve/trace schema literals (C102),
with ``# detlint: ignore[rule]`` suppressions kept honest by an
unused-suppression check (U100).

Surface: ``fleet lint [--json] [--rules ...] [paths]`` on the CLI
(exit 0 clean / 1 findings / 2 usage error) and the ``lint`` CI
pipeline, which requires ``src/repro`` to be finding-free and tamper
tests the gate by planting a violation.

Quickstart::

    from repro.analysis import run_lint
    result = run_lint(["src/repro"])
    assert result.clean, result.render()
"""

from repro.analysis.core import (EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE,
                                 AnalysisError, Finding, SourceFile,
                                 Suppression, load_source)
from repro.analysis.rules import REGISTRY, Rule
# Importing the rule modules registers the packs with the REGISTRY;
# engine must come after so U100 lands last in the documented order.
from repro.analysis import determinism as _determinism  # noqa: F401
from repro.analysis import contracts as _contracts  # noqa: F401
from repro.analysis.engine import Project, collect_targets, run_lint
from repro.analysis.report import LINT_SCHEMA, LINT_VERSION, LintResult

__all__ = [
    # running
    "run_lint", "collect_targets", "Project",
    # result surface
    "LintResult", "Finding", "Suppression", "SourceFile",
    "load_source",
    # registry
    "REGISTRY", "Rule",
    # contracts
    "AnalysisError", "LINT_SCHEMA", "LINT_VERSION",
    "EXIT_CLEAN", "EXIT_FINDINGS", "EXIT_USAGE",
]

"""Rule registry for detlint.

A rule is a named check with a stable id (``D...`` determinism,
``C...`` cross-file contract, ``U...`` lint hygiene), registered at
import time through :func:`rule`.  Per-file rules see one
:class:`~repro.analysis.core.SourceFile` at a time; cross-file rules
see the whole analyzed set plus any schema anchors the engine located
outside it.  The registry is the single source of truth for the CLI's
``--rules`` filter and the rule list every run reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from repro.analysis.core import Finding, SourceFile


class ProjectContext(Protocol):
    """What a cross-file rule may ask of the engine (duck-typed)."""

    sources: list[SourceFile]

    def locate(self, suffix: str) -> SourceFile | None:
        """A source by POSIX path suffix, loading outside the target
        set if needed."""


@dataclass(frozen=True, slots=True)
class Rule:
    """One registered check."""

    rule_id: str
    title: str
    summary: str
    #: Per-file rules get (source); cross-file rules get (context).
    cross_file: bool
    check: Callable[..., Iterable[Finding]]


#: All registered rules by id, in registration (= documentation) order.
REGISTRY: dict[str, Rule] = {}


def rule(rule_id: str, title: str, summary: str, *,
         cross_file: bool = False):
    """Class-level decorator registering a check function."""
    def register(check: Callable[..., Iterable[Finding]]):
        if rule_id in REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id}")
        REGISTRY[rule_id] = Rule(rule_id=rule_id, title=title,
                                 summary=summary, cross_file=cross_file,
                                 check=check)
        return check
    return register

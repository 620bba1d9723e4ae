"""Rendering of lint results: human text and machine JSON.

Both renderings are deterministic by construction — findings arrive
pre-sorted by (path, line, col, rule) and the JSON is dumped with
``sort_keys=True`` — so a lint run's own output honors the contract
it enforces (and CI can byte-diff it as an artifact).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.core import Finding

#: Version of the JSON payload's shape; bump on key changes.
LINT_SCHEMA = "repro.detlint"
LINT_VERSION = 1


@dataclass(slots=True)
class LintResult:
    """Everything one lint run produced."""

    #: Findings that count toward the exit code, sorted.
    findings: list[Finding]
    #: Findings silenced by a detlint comment, sorted (reported in
    #: JSON for observability; never affect the exit code).
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": LINT_SCHEMA,
            "version": LINT_VERSION,
            "rules_run": list(self.rules_run),
            "files_checked": self.files_checked,
            "counts": {
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
            },
            "findings": [finding.to_dict()
                         for finding in self.findings],
            "suppressed": [finding.to_dict()
                           for finding in self.suppressed],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """Human-readable report."""
        lines = [finding.render() for finding in self.findings]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"detlint: {len(self.findings)} {noun} "
            f"({len(self.suppressed)} suppressed) across "
            f"{self.files_checked} files, rules "
            f"{','.join(self.rules_run)}")
        return "\n".join(lines)

"""Airgapped network isolation between slices (paper Section 2.6).

"OCS also enables an air gapped network isolation between different
slices, which enhances the security of multiple customers sharing a
TPU v4 supercomputer."

The isolation argument is physical: an OCS circuit is a mirror pairing
exactly one input fiber with one output fiber, so if no circuit joins a
block of slice A to a block of slice B there is *no* optical path —
not a firewalled path, no path — between the two customers.  This
module audits a programmed fabric against that claim:

* block ownership is exclusive (no block serves two slices);
* every live circuit stays inside one slice's block set;
* transitively, the optical reachability set of every block stays
  inside its slice (catches multi-hop leaks through unallocated
  blocks).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.ocs.fabric import OCSFabric
from repro.ocs.reconfigure import SliceWiring


@dataclass(frozen=True)
class IsolationViolation:
    """One detected breach of the airgap invariant."""

    kind: str       # 'shared-block' | 'cross-circuit' | 'foreign-circuit'
                    # | 'reachability'
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class IsolationReport:
    """Outcome of one airgap audit over a shared fabric."""

    slice_blocks: dict[str, frozenset[int]]
    violations: list[IsolationViolation] = field(default_factory=list)
    circuits_audited: int = 0

    @property
    def isolated(self) -> bool:
        """True when the machine upholds the Section 2.6 guarantee."""
        return not self.violations

    def summary(self) -> str:
        """Human-readable verdict."""
        if self.isolated:
            names = ", ".join(sorted(self.slice_blocks))
            return (f"airgap holds: {len(self.slice_blocks)} slices "
                    f"({names}), {self.circuits_audited} circuits audited, "
                    f"0 cross-slice optical paths")
        lines = [f"AIRGAP VIOLATED ({len(self.violations)} findings):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _owner_of(block: int,
              slice_blocks: dict[str, frozenset[int]]) -> str | None:
    for name, blocks in slice_blocks.items():
        if block in blocks:
            return name
    return None


def optical_adjacency(fabric: OCSFabric) -> dict[int, set[int]]:
    """Block-level adjacency induced by the live circuits."""
    adjacency: dict[int, set[int]] = {}
    for _dim, _face, low, high in fabric.circuits():
        adjacency.setdefault(low, set()).add(high)
        adjacency.setdefault(high, set()).add(low)
    return adjacency


def reachable_blocks(fabric: OCSFabric, start: int) -> set[int]:
    """Every block optically reachable from `start` (start included)."""
    adjacency = optical_adjacency(fabric)
    seen = {start}
    frontier = deque([start])
    while frontier:
        block = frontier.popleft()
        for neighbor in adjacency.get(block, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def airgap_audit(fabric: OCSFabric,
                 wirings: dict[str, SliceWiring]) -> IsolationReport:
    """Audit a fabric shared by several realized slices.

    Args:
        fabric: the machine's 48-switch fabric with live circuits.
        wirings: slice name -> its :class:`SliceWiring` record.

    Returns:
        An :class:`IsolationReport`; `report.isolated` is the verdict.
    """
    slice_blocks = {
        name: frozenset(wiring.placement.values())
        for name, wiring in wirings.items()
    }
    report = IsolationReport(slice_blocks=slice_blocks)

    # 1. Exclusive block ownership.
    names = sorted(slice_blocks)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            shared = slice_blocks[a] & slice_blocks[b]
            if shared:
                report.violations.append(IsolationViolation(
                    "shared-block",
                    f"slices {a!r} and {b!r} both claim blocks "
                    f"{sorted(shared)}"))

    # 2. Every live circuit stays inside one slice.
    expected = sum(len(w.circuits) for w in wirings.values())
    for dim, face, low, high in fabric.circuits():
        report.circuits_audited += 1
        low_owner = _owner_of(low, slice_blocks)
        high_owner = _owner_of(high, slice_blocks)
        if low_owner != high_owner:
            report.violations.append(IsolationViolation(
                "cross-circuit",
                f"OCS d{dim}/f{face}: circuit joins block {low} "
                f"({low_owner or 'unallocated'}) to block {high} "
                f"({high_owner or 'unallocated'})"))
        elif low_owner is None:
            report.violations.append(IsolationViolation(
                "foreign-circuit",
                f"OCS d{dim}/f{face}: circuit {low}->{high} uses blocks "
                f"no audited slice owns"))
    if report.circuits_audited != expected:
        report.violations.append(IsolationViolation(
            "foreign-circuit",
            f"fabric holds {report.circuits_audited} circuits but the "
            f"audited slices programmed {expected}"))

    # 3. Transitive closure: reachability never leaves the slice.
    for name, blocks in slice_blocks.items():
        for block in sorted(blocks):
            reach = reachable_blocks(fabric, block)
            leaked = reach - set(blocks)
            if leaked:
                report.violations.append(IsolationViolation(
                    "reachability",
                    f"slice {name!r}: block {block} optically reaches "
                    f"foreign blocks {sorted(leaked)}"))
                break  # one finding per slice is enough
    return report

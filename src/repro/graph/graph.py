"""The computation graph: a DAG of named ops.

Graphs are built producer-first (an op's inputs must already exist), so
insertion order is a valid topological order — the scheduler and the
SPMD pass both rely on that invariant, and :meth:`ComputationGraph.add`
enforces it.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ConfigurationError
from repro.graph.ops import CollectiveOp, InputOp, Op, ParameterOp


class ComputationGraph:
    """A DAG of :class:`~repro.graph.ops.Op` nodes keyed by name."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._ops: dict[str, Op] = {}
        self._consumers: dict[str, list[str]] = {}

    # -- construction ------------------------------------------------------------

    def add(self, op: Op) -> str:
        """Insert `op`; inputs must already be present.  Returns its name."""
        if op.name in self._ops:
            raise ConfigurationError(
                f"duplicate op name {op.name!r} in graph {self.name!r}")
        for producer in op.inputs:
            if producer not in self._ops:
                raise ConfigurationError(
                    f"op {op.name!r} consumes unknown producer {producer!r}")
        self._ops[op.name] = op
        self._consumers[op.name] = []
        for producer in op.inputs:
            self._consumers[producer].append(op.name)
        return op.name

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __iter__(self) -> Iterator[Op]:
        return iter(self._ops.values())

    def op(self, name: str) -> Op:
        """Look up one op; raises for unknown names."""
        if name not in self._ops:
            raise ConfigurationError(
                f"graph {self.name!r} has no op {name!r}")
        return self._ops[name]

    def ops(self) -> list[Op]:
        """All ops in insertion (= topological) order."""
        return list(self._ops.values())

    def consumers(self, name: str) -> list[str]:
        """Ops that read `name`'s output."""
        self.op(name)
        return list(self._consumers[name])

    # -- aggregates ------------------------------------------------------------------

    def total_flops(self) -> float:
        """Sum of global FLOPs over all ops."""
        # detlint: ignore[D005] _ops preserves deterministic build order
        return sum(op.flops() for op in self._ops.values())

    def parameter_bytes(self) -> float:
        """Total weight bytes (global, before sharding)."""
        # detlint: ignore[D005] _ops preserves deterministic build order
        return sum(op.output.num_bytes for op in self._ops.values()
                   if isinstance(op, ParameterOp))

    def counts_by_kind(self) -> dict[str, int]:
        """Op count per kind, for structural assertions and reports."""
        counts: dict[str, int] = {}
        for op in self._ops.values():
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def collectives(self) -> list[CollectiveOp]:
        """All communication ops in topological order."""
        return [op for op in self._ops.values()
                if isinstance(op, CollectiveOp)]

    def inputs(self) -> list[str]:
        """Names of per-step input ops."""
        return [op.name for op in self._ops.values()
                if isinstance(op, InputOp)]

    def validate(self) -> None:
        """Re-check structural invariants (acyclicity by construction)."""
        seen: set[str] = set()
        for name, op in self._ops.items():
            for producer in op.inputs:
                if producer not in seen:
                    raise ConfigurationError(
                        f"op {name!r} precedes its producer {producer!r}")
            seen.add(name)

    def describe(self) -> str:
        """One-line structural summary."""
        kinds = ", ".join(f"{k}={v}"
                          for k, v in sorted(self.counts_by_kind().items()))
        return (f"graph {self.name!r}: {len(self)} ops "
                f"({kinds}); {self.total_flops():.3e} FLOPs")

    def __repr__(self) -> str:
        return f"<ComputationGraph {self.name!r} ops={len(self)}>"

"""GSPMD-style sharding propagation and collective insertion.

The paper's Table 3 options ("1D/2D activation/weight partitioning")
come from GSPMD (Xu et al. [63]): every tensor carries a
dimension-to-mesh-axis sharding, shardings propagate through ops, and
communication materialises exactly where the math demands it:

* a matmul whose contracted dimension is sharded on the same axis on
  both sides computes a *partial sum* — resolved by an all-reduce at
  the first consumer that needs real values (for weight gradients that
  consumer is the optimizer, so the data-parallel gradient all-reduce
  falls out of propagation rather than being special-cased);
* a matmul whose contracted dimension is sharded on one side only
  all-gathers that side first (the resharding cost 2D activation
  sharding pays around every matmul pair);
* an embedding lookup against a row-sharded table exchanges vectors
  with an all-to-all over the sharding axis (Section 3.4's
  "variable-length all-to-all exchange").

The result is a :class:`ShardedGraph`: the rewritten graph (collectives
inserted) plus per-chip FLOPs and memory traffic for every op — the
input the event-driven scheduler prices.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.graph.graph import ComputationGraph
from repro.graph.mesh import DeviceMesh
from repro.graph.ops import (AllGatherOp, AllReduceOp, AllToAllOp,
                             CollectiveOp, ElementwiseOp, EmbeddingLookupOp,
                             FusionOp, InputOp, MatMulOp, Op, ParameterOp)
from repro.graph.tensor import ShardingSpec, local_shape, replicated


@dataclass
class ShardedGraph:
    """A partitioned program: graph with collectives + per-chip costs.

    Attributes:
        graph: the rewritten graph, collectives included.
        mesh: the device mesh the program runs on.
        shardings: op name -> output sharding.
        local_flops: op name -> per-chip FLOPs.
        local_bytes: op name -> per-chip HBM traffic (compute ops only;
            collectives move bytes over ICI, recorded on the op itself).
    """

    graph: ComputationGraph
    mesh: DeviceMesh
    shardings: dict[str, ShardingSpec] = field(default_factory=dict)
    local_flops: dict[str, float] = field(default_factory=dict)
    local_bytes: dict[str, float] = field(default_factory=dict)

    def per_chip_flops(self) -> float:
        """Total per-chip compute FLOPs (collectives excluded)."""
        # detlint: ignore[D005] local_flops mirrors the graph's build order
        return sum(flops for name, flops in self.local_flops.items()
                   if not self.graph.op(name).is_collective)

    def comm_bytes_by_axis(self) -> dict[str, float]:
        """Per-chip ICI bytes per mesh axis."""
        out: dict[str, float] = {}
        for op in self.graph.collectives():
            out[op.mesh_axis] = out.get(op.mesh_axis, 0.0) + op.comm_bytes
        return out

    def describe(self) -> str:
        """One-line summary of the partitioned program."""
        comm = ", ".join(f"{axis}={num_bytes / 2**20:.1f}MiB"
                         for axis, num_bytes
                         in sorted(self.comm_bytes_by_axis().items()))
        return (f"{self.graph.describe()}; per-chip "
                f"{self.per_chip_flops():.3e} FLOPs; comm {comm or 'none'}")


class _Partitioner:
    """Single-pass propagation over a graph in topological order."""

    def __init__(self, source: ComputationGraph, mesh: DeviceMesh,
                 annotations: dict[str, ShardingSpec]) -> None:
        self.source = source
        self.mesh = mesh
        self.annotations = dict(annotations)
        self.out = ComputationGraph(name=f"{source.name}@{mesh.describe()}")
        self.sharded = ShardedGraph(graph=self.out, mesh=mesh)
        self._unique = 0
        self._resolved: dict[str, str] = {}
        self._gathered: dict[tuple[str, int], str] = {}

    # -- bookkeeping helpers -------------------------------------------------

    def _axis_sizes(self) -> dict[str, int]:
        return self.mesh.axis_sizes

    def _local(self, name: str) -> tuple[int, ...]:
        """Per-chip shape of an already-partitioned tensor."""
        op = self.out.op(name)
        return local_shape(op.output, self.sharded.shardings[name],
                           self._axis_sizes())

    def _local_bytes_of(self, name: str) -> float:
        op = self.out.op(name)
        return math.prod(self._local(name)) * op.output.dtype_bytes

    def _emit(self, op: Op, sharding: ShardingSpec, *,
              flops: float | None = None) -> str:
        """Add an op to the output graph and record its per-chip costs."""
        self.out.add(op)
        self.sharded.shardings[op.name] = sharding
        shape = local_shape(op.output, sharding, self._axis_sizes())
        elements = math.prod(shape)
        if flops is None:
            global_elements = op.output.num_elements
            flops = op.flops() * elements / global_elements
        self.sharded.local_flops[op.name] = flops
        out_bytes = elements * op.output.dtype_bytes
        in_bytes = sum(self._local_bytes_of(i) for i in op.inputs)
        if isinstance(op, CollectiveOp):
            self.sharded.local_bytes[op.name] = 0.0
        elif isinstance(op, (InputOp, ParameterOp, FusionOp)):
            self.sharded.local_bytes[op.name] = 0.0
        else:
            self.sharded.local_bytes[op.name] = in_bytes + out_bytes
        return op.name

    def _fresh(self, base: str, suffix: str) -> str:
        self._unique += 1
        return f"{base}.{suffix}{self._unique}"

    # -- collective insertion ---------------------------------------------------

    def _resolve_partial(self, name: str) -> str:
        """All-reduce away any pending partial sums on `name`.

        Cached so several consumers of one partial tensor share a single
        all-reduce instead of each paying for their own.
        """
        if name in self._resolved:
            return self._resolved[name]
        sharding = self.sharded.shardings[name]
        current = name
        for axis in sharding.partial:
            resolved = sharding.drop_partial()
            spec = self.out.op(current).output
            shape = local_shape(spec, resolved, self._axis_sizes())
            num_bytes = math.prod(shape) * spec.dtype_bytes
            current = self._emit(
                AllReduceOp(name=self._fresh(name, "allreduce"),
                            inputs=(current,), output=spec,
                            mesh_axis=axis, comm_bytes=float(num_bytes)),
                resolved)
            sharding = resolved
        self._resolved[name] = current
        return current

    def _gather_dim(self, name: str, dim: int) -> str:
        """All-gather one sharded dimension of `name` back to full size."""
        if (name, dim) in self._gathered:
            return self._gathered[(name, dim)]
        sharding = self.sharded.shardings[name]
        axis = sharding.axes[dim]
        if axis is None:
            return name
        gathered = sharding.with_dim(dim, None)
        spec = self.out.op(name).output
        shape = local_shape(spec, gathered, self._axis_sizes())
        num_bytes = math.prod(shape) * spec.dtype_bytes
        result = self._emit(
            AllGatherOp(name=self._fresh(name, "allgather"),
                        inputs=(name,), output=spec, mesh_axis=axis,
                        comm_bytes=float(num_bytes)),
            gathered)
        self._gathered[(name, dim)] = result
        return result

    # -- op handlers --------------------------------------------------------------

    def _sharding_for_source(self, op: Op, default: ShardingSpec) -> ShardingSpec:
        spec = self.annotations.get(op.name, default)
        if spec.rank != op.output.rank:
            raise ConfigurationError(
                f"annotation for {op.name!r} has rank {spec.rank}, "
                f"tensor has rank {op.output.rank}")
        return spec

    def _handle_source(self, op: Op) -> None:
        sharding = self._sharding_for_source(op, replicated(op.output.rank))
        self._emit(op, sharding, flops=0.0)

    def _handle_matmul(self, op: MatMulOp, remap: dict[str, str]) -> None:
        lhs = self._resolve_partial(remap[op.inputs[0]])
        rhs = self._resolve_partial(remap[op.inputs[1]])
        lhs_spec = self.sharded.shardings[lhs]
        rhs_spec = self.sharded.shardings[rhs]
        if op.batch_local:
            self._handle_batch_local_matmul(op, lhs, rhs)
            return
        lhs_contract = lhs_spec.axes[-1]
        rhs_contract = rhs_spec.axes[-2] if rhs_spec.rank >= 2 else None
        partial: tuple[str, ...] = ()
        if lhs_contract is not None and lhs_contract == rhs_contract:
            partial = (lhs_contract,)          # both sharded: partial sums
        else:
            if lhs_contract is not None:       # one-sided: all-gather it
                lhs = self._gather_dim(lhs, lhs_spec.rank - 1)
                lhs_spec = self.sharded.shardings[lhs]
            if rhs_contract is not None:
                rhs = self._gather_dim(rhs, rhs_spec.rank - 2)
                rhs_spec = self.sharded.shardings[rhs]
        out_axes = list(lhs_spec.axes[:-1])
        n_axis = rhs_spec.axes[-1]
        if n_axis in out_axes or n_axis in partial:
            n_axis = None                      # an axis shards one dim only
        out_axes.append(n_axis)
        if len(out_axes) != op.output.rank:
            raise ConfigurationError(
                f"matmul {op.name!r}: output rank {op.output.rank} does not "
                f"match lhs rank {lhs_spec.rank}")
        sharding = ShardingSpec(axes=tuple(out_axes), partial=partial)
        new = dataclasses.replace(op, inputs=(lhs, rhs))
        lhs_local = math.prod(self._local(lhs))
        n_local = op.n
        if n_axis is not None:
            n_local = op.n // self.mesh.axis_size(n_axis)
        self._emit(new, sharding, flops=2.0 * lhs_local * n_local)

    def _handle_batch_local_matmul(self, op: MatMulOp, lhs: str,
                                   rhs: str) -> None:
        """Head-local contraction: no resharding, FLOPs scale with shard."""
        lhs_spec = self.sharded.shardings[lhs]
        rhs_spec = self.sharded.shardings[rhs]
        if set(lhs_spec.sharded_axes) != set(rhs_spec.sharded_axes):
            raise ConfigurationError(
                f"batch-local matmul {op.name!r} needs identically-sharded "
                f"operands, got {lhs_spec.label()} vs {rhs_spec.label()}")
        sharding = self.annotations.get(
            op.name, ShardingSpec(axes=lhs_spec.axes[:op.output.rank]))
        if sharding.rank != op.output.rank:
            raise ConfigurationError(
                f"batch-local matmul {op.name!r}: sharding rank "
                f"{sharding.rank} != output rank {op.output.rank}")
        share = (math.prod(self._local(lhs))
                 / self.out.op(lhs).output.num_elements)
        new = dataclasses.replace(op, inputs=(lhs, rhs))
        self._emit(new, sharding, flops=op.flops() * share)

    def _handle_elementwise(self, op: Op, remap: dict[str, str]) -> None:
        inputs = [self._resolve_partial(remap[i]) for i in op.inputs]
        if not inputs:
            self._emit(dataclasses.replace(op, inputs=()),
                       replicated(op.output.rank))
            return
        target = self.sharded.shardings[inputs[0]]
        aligned = [inputs[0]]
        for name in inputs[1:]:
            spec = self.sharded.shardings[name]
            if spec.rank != target.rank:
                raise ConfigurationError(
                    f"elementwise {op.name!r}: rank mismatch between "
                    f"{inputs[0]!r} and {name!r}")
            for dim in range(spec.rank):
                if spec.axes[dim] != target.axes[dim]:
                    if spec.axes[dim] is not None:
                        name = self._gather_dim(name, dim)
                        spec = self.sharded.shardings[name]
                    # target sharded / input replicated: local slice, free.
            aligned.append(name)
        new = dataclasses.replace(op, inputs=tuple(aligned))
        self._emit(new, ShardingSpec(axes=target.axes))

    def _handle_embedding(self, op: EmbeddingLookupOp,
                          remap: dict[str, str]) -> None:
        table = remap[op.inputs[0]]
        ids = remap[op.inputs[1]]
        table_spec = self.sharded.shardings[table]
        ids_spec = self.sharded.shardings[ids]
        out_axes = [ids_spec.axes[0] if ids_spec.rank else None]
        out_axes += [None] * (op.output.rank - 1)
        sharding = self._sharding_for_source(
            op, ShardingSpec(axes=tuple(out_axes)))
        new = dataclasses.replace(op, inputs=(table, ids))
        row_axis = table_spec.axes[0]
        scale = 1.0
        for axis in sharding.sharded_axes:
            scale /= self.mesh.axis_size(axis)
        name = self._emit(new, sharding, flops=op.flops() * scale)
        if row_axis is not None:
            # Row-sharded table: gathered vectors live on the row owners;
            # exchange them back to the batch owners (Section 3.4).
            num_bytes = self._local_bytes_of(name)
            self._emit(
                AllToAllOp(name=self._fresh(op.name, "alltoall"),
                           inputs=(name,), output=op.output,
                           mesh_axis=row_axis, comm_bytes=float(num_bytes)),
                sharding)

    def _handle_collective(self, op: CollectiveOp,
                           remap: dict[str, str]) -> None:
        inputs = tuple(remap[i] for i in op.inputs)
        base = self.sharded.shardings[inputs[0]] if inputs else \
            replicated(op.output.rank)
        sharding = self.annotations.get(op.name, base.drop_partial())
        self._emit(dataclasses.replace(op, inputs=inputs), sharding)

    def _handle_fusion(self, op: FusionOp, remap: dict[str, str]) -> None:
        inputs = tuple(remap[i] for i in op.inputs)
        base = self.sharded.shardings[inputs[0]] if inputs else \
            replicated(op.output.rank)
        # Fusions double as zero-cost layout changes (transposes), whose
        # output sharding the builder states via an annotation.  A layout
        # change never resolves partial sums, so the input's pending
        # partial axes carry through.
        sharding = self.annotations.get(op.name, base)
        if sharding is not base and base.partial:
            sharding = ShardingSpec(axes=sharding.axes, partial=base.partial)
        if sharding.rank != op.output.rank:
            raise ConfigurationError(
                f"fusion {op.name!r}: sharding rank {sharding.rank} != "
                f"output rank {op.output.rank}")
        self._emit(dataclasses.replace(op, inputs=inputs), sharding,
                   flops=0.0)

    # -- driver ---------------------------------------------------------------------

    def run(self) -> ShardedGraph:
        remap: dict[str, str] = {}
        for op in self.source.ops():
            if isinstance(op, (InputOp, ParameterOp)):
                self._handle_source(op)
                remap[op.name] = op.name
            elif isinstance(op, MatMulOp):
                self._handle_matmul(op, remap)
                remap[op.name] = op.name
            elif isinstance(op, EmbeddingLookupOp):
                self._handle_embedding(op, remap)
                last = self.out.ops()[-1].name
                remap[op.name] = last
            elif isinstance(op, FusionOp):
                self._handle_fusion(op, remap)
                remap[op.name] = op.name
            elif isinstance(op, CollectiveOp):
                self._handle_collective(op, remap)
                remap[op.name] = op.name
            elif isinstance(op, ElementwiseOp):
                self._handle_elementwise(op, remap)
                remap[op.name] = op.name
            else:
                raise ConfigurationError(
                    f"partitioner has no rule for op kind {op.kind!r}")
        return self.sharded


def partition(graph: ComputationGraph, mesh: DeviceMesh,
              annotations: dict[str, ShardingSpec] | None = None
              ) -> ShardedGraph:
    """Partition `graph` over `mesh` using GSPMD-style propagation.

    Args:
        graph: the logical (unpartitioned) program.
        mesh: named parallelism axes over a slice.
        annotations: output shardings for inputs/parameters (and any op
            whose inferred sharding should be overridden).  Unannotated
            sources are replicated.

    Returns:
        The partitioned program with collectives inserted and per-chip
        costs computed.
    """
    graph.validate()
    return _Partitioner(graph, mesh, annotations or {}).run()

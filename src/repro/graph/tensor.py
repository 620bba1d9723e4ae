"""Tensor and sharding specifications for the graph IR.

A :class:`TensorSpec` is a logical (global) tensor shape; a
:class:`ShardingSpec` says, per tensor dimension, which mesh axis the
dimension is split over (GSPMD's dimension-to-axis annotation, Xu et
al. [63] — the paper's reference for the "1D/2D activation/weight
partitioning" options of Table 3).  A tensor may additionally be a
*partial sum* pending an all-reduce over some axes, which is how a
matmul whose contracted dimension was sharded expresses its
not-yet-reduced output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TensorSpec:
    """A logical (unpartitioned) tensor: shape plus element width."""

    shape: tuple[int, ...]
    dtype_bytes: int = 2  # bf16 by default, matching TPU training

    def __post_init__(self) -> None:
        for extent in self.shape:
            if extent < 1:
                raise ConfigurationError(
                    f"tensor extents must be >= 1, got {self.shape}")
        if self.dtype_bytes < 1:
            raise ConfigurationError(
                f"dtype_bytes must be >= 1, got {self.dtype_bytes}")

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        """Product of extents (1 for a scalar)."""
        return math.prod(self.shape)

    @property
    def num_bytes(self) -> int:
        """Global size in bytes."""
        return self.num_elements * self.dtype_bytes


@dataclass(frozen=True)
class ShardingSpec:
    """Dimension-to-mesh-axis sharding of one tensor.

    Attributes:
        axes: one entry per tensor dimension — a mesh axis name the
            dimension is split over, or None for an unsharded dimension.
            An axis name may appear at most once.
        partial: mesh axes over which the tensor holds unreduced partial
            sums (produced by contracting a sharded dimension).
    """

    axes: tuple[str | None, ...]
    partial: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        named = [a for a in self.axes if a is not None]
        if len(named) != len(set(named)):
            raise ConfigurationError(
                f"a mesh axis may shard at most one dimension: {self.axes}")
        overlap = set(named) & set(self.partial)
        if overlap:
            raise ConfigurationError(
                f"axes {sorted(overlap)} cannot be both sharding and partial")
        if len(self.partial) != len(set(self.partial)):
            raise ConfigurationError(
                f"duplicate partial axes: {self.partial}")

    @property
    def rank(self) -> int:
        """Tensor rank the spec applies to."""
        return len(self.axes)

    @property
    def sharded_axes(self) -> tuple[str, ...]:
        """Mesh axes that shard some dimension, in dimension order."""
        return tuple(a for a in self.axes if a is not None)

    def drop_partial(self) -> "ShardingSpec":
        """The same layout with partial sums resolved."""
        return ShardingSpec(axes=self.axes)

    def with_dim(self, dim: int, axis: str | None) -> "ShardingSpec":
        """Copy with dimension `dim` resharded onto `axis` (or unsharded)."""
        axes = list(self.axes)
        axes[dim] = axis
        return ShardingSpec(axes=tuple(axes), partial=self.partial)

    def label(self) -> str:
        """Compact display form, e.g. ``[data, -, model1]+partial(model2)``."""
        dims = ", ".join(a if a is not None else "-" for a in self.axes)
        suffix = f"+partial({','.join(self.partial)})" if self.partial else ""
        return f"[{dims}]{suffix}"


def replicated(rank: int) -> ShardingSpec:
    """A fully-replicated sharding for a rank-`rank` tensor."""
    return ShardingSpec(axes=(None,) * rank)


def local_shape(tensor: TensorSpec, sharding: ShardingSpec,
                axis_sizes: dict[str, int]) -> tuple[int, ...]:
    """Per-chip shard shape of `tensor` under `sharding`.

    Every sharded dimension must divide evenly by its axis size — the
    compiler would pad; we require exact divisibility to keep cost
    accounting honest.
    """
    if sharding.rank != tensor.rank:
        raise ConfigurationError(
            f"sharding rank {sharding.rank} != tensor rank {tensor.rank}")
    out = []
    for extent, axis in zip(tensor.shape, sharding.axes):
        if axis is None:
            out.append(extent)
            continue
        if axis not in axis_sizes:
            raise ConfigurationError(f"unknown mesh axis {axis!r}")
        size = axis_sizes[axis]
        if extent % size:
            raise ConfigurationError(
                f"dimension of extent {extent} does not divide by "
                f"axis {axis!r} of size {size}")
        out.append(extent // size)
    return tuple(out)

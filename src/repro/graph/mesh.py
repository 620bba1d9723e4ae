"""Logical device mesh over a TPU v4 slice.

Named parallelism axes (data / model1 / model2 / pipeline, matching the
PartitionSpec of Table 3) are laid out over whole torus dimensions of a
slice — the paper's Section 2.7 usage model.  The mesh builds one
:class:`~repro.network.collectives.AxisGeometry` per axis and prices the
collectives graph ops emit on it, so the graph scheduler charges each
collective by the dimensions its axis spans and can treat axes on
disjoint torus dimensions as disjoint links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.network.collectives import AxisGeometry, DEFAULT_ALPHA

# Table 4: TPU v4 has 6 ICI links at 50 GB/s each (per direction per dim).
TPUV4_LINK_BANDWIDTH = 50e9

# The collective kinds graph ops emit, priced on an axis geometry.
_PRICES = {
    "all_reduce": AxisGeometry.allreduce,
    "all_gather": AxisGeometry.allgather,
    "all_to_all": AxisGeometry.alltoall,
}


@dataclass(frozen=True)
class MeshAxis:
    """One named parallelism axis and the torus dimensions it spans."""

    name: str
    size: int
    torus_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigurationError(
                f"axis {self.name!r} size must be >= 1, got {self.size}")


class DeviceMesh:
    """Maps parallelism axes onto the torus dimensions of one slice.

    Args:
        shape: the slice topology shape (x, y, z).
        axes: ordered axis definitions; their torus dimensions must be
            disjoint and their sizes must equal the product of the claimed
            dimension extents.  Size-1 axes may claim no dimensions.
        link_bandwidth: per-direction ICI link bandwidth (B/s).
        wrap: whether the slice closes into a torus (False for sub-4^3
            mesh slices).
        alpha: per-step collective latency.
    """

    def __init__(self, shape: tuple[int, int, int], axes: list[MeshAxis], *,
                 link_bandwidth: float = TPUV4_LINK_BANDWIDTH,
                 wrap: bool = True, alpha: float = DEFAULT_ALPHA) -> None:
        self.shape = tuple(shape)
        if len(self.shape) != 3:
            raise ConfigurationError(f"shape must be 3D, got {shape}")
        self._axes: dict[str, MeshAxis] = {}
        claimed: set[int] = set()
        for axis in axes:
            if axis.name in self._axes:
                raise ConfigurationError(f"duplicate axis {axis.name!r}")
            for dim in axis.torus_dims:
                if dim not in (0, 1, 2):
                    raise ConfigurationError(
                        f"axis {axis.name!r} claims invalid dim {dim}")
                if dim in claimed:
                    raise ConfigurationError(
                        f"axis {axis.name!r} re-claims torus dim {dim}")
                claimed.add(dim)
            spanned = math.prod(self.shape[d] for d in axis.torus_dims)
            if spanned != axis.size:
                raise ConfigurationError(
                    f"axis {axis.name!r} size {axis.size} != product of "
                    f"claimed dims {spanned}")
            self._axes[axis.name] = axis
        total = math.prod(a.size for a in self._axes.values())
        if total != math.prod(self.shape):
            raise ConfigurationError(
                f"axis sizes multiply to {total}, slice has "
                f"{math.prod(self.shape)} chips")
        # Size-1 axes claim no dimensions and get a degenerate ring.
        self._geometries = {
            name: AxisGeometry(
                ring_sizes=tuple(self.shape[d] for d in axis.torus_dims)
                or (1,),
                link_bandwidth=link_bandwidth, wrap=wrap, alpha=alpha)
            for name, axis in self._axes.items()}

    # -- axis queries -----------------------------------------------------------

    @property
    def num_chips(self) -> int:
        """Chips in the slice."""
        return math.prod(self.shape)

    @property
    def axis_names(self) -> list[str]:
        """Axis names in declaration order."""
        return list(self._axes)

    def axis(self, name: str) -> MeshAxis:
        """Look up one axis; raises for unknown names."""
        if name not in self._axes:
            raise ConfigurationError(
                f"unknown mesh axis {name!r}; have {self.axis_names}")
        return self._axes[name]

    def axis_size(self, name: str) -> int:
        """Group size of one axis."""
        return self.axis(name).size

    @property
    def axis_sizes(self) -> dict[str, int]:
        """Axis name -> size, for sharding arithmetic."""
        return {name: axis.size for name, axis in self._axes.items()}

    # -- geometry / pricing ------------------------------------------------------

    def axis_geometry(self, name: str) -> AxisGeometry:
        """Ring geometry of one axis; raises for unknown names."""
        self.axis(name)
        return self._geometries[name]

    def collective_time(self, kind: str, axis: str,
                        num_bytes: float) -> float:
        """Time of one collective `kind` on `axis` moving `num_bytes`."""
        price = _PRICES.get(kind)
        if price is None:
            raise ConfigurationError(
                f"unknown collective kind {kind!r}; have {sorted(_PRICES)}")
        return price(self.axis_geometry(axis), num_bytes)

    def describe(self) -> str:
        """One-line summary, e.g. ``mesh 8x8x8: data=8(d0) model1=64(d1,d2)``."""
        parts = []
        for name, axis in self._axes.items():
            dims = ",".join(f"d{d}" for d in axis.torus_dims) or "-"
            parts.append(f"{name}={axis.size}({dims})")
        a, b, c = self.shape
        return f"mesh {a}x{b}x{c}: " + " ".join(parts)


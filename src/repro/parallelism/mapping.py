"""Map parallelism axes onto torus dimensions (paper Section 2.7).

"Users map data parallelism along one dimension of the 3D torus and the
two model parallel parameters on the other dimensions."  An axis of size g
claims one or more whole torus dimensions whose sizes multiply to g; axes
never share a dimension.  If no such assignment exists the (topology,
spec) pair is infeasible — exactly the situation the OCS removes by
letting users pick a different topology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.parallelism.spec import PartitionSpec

AXIS_NAMES = ("pipeline", "data", "model1", "model2")


@dataclass(frozen=True)
class AxisMapping:
    """Which torus dims each parallel axis occupies."""

    shape: tuple[int, int, int]
    assignment: tuple[tuple[int, ...], ...]  # per axis, the claimed dims

    def dims_of(self, axis: str) -> tuple[int, ...]:
        """Torus dim indices assigned to an axis name."""
        return self.assignment[AXIS_NAMES.index(axis)]

    def sub_shape(self, axis: str) -> tuple[int, ...]:
        """Torus dim sizes an axis spans (its collective sub-torus)."""
        return tuple(self.shape[d] for d in self.dims_of(axis))


def map_axes_to_torus(shape: tuple[int, int, int],
                      spec: PartitionSpec) -> AxisMapping | None:
    """Assign whole torus dims to each axis; None when infeasible.

    Prefers giving the largest axis the most dimensions (more ring
    bandwidth for the busiest collective), matching how users lay out
    model parallelism in practice.
    """
    total = shape[0] * shape[1] * shape[2]
    if spec.num_chips != total:
        return None
    dims = list(range(3))
    axes = spec.axes
    best: AxisMapping | None = None
    best_score = -1.0
    # Enumerate every split of the 3 dims into 4 (possibly empty) groups.
    for labels in itertools.product(range(4), repeat=3):
        groups: list[list[int]] = [[], [], [], []]
        for dim, owner in zip(dims, labels):
            groups[owner].append(dim)
        feasible = True
        for axis_size, group in zip(axes, groups):
            product = 1
            for dim in group:
                product *= shape[dim]
            if product != axis_size:
                feasible = False
                break
        if not feasible:
            continue
        # Score: reward multi-dim rings on the largest model axis.
        score = sum(len(group) * axis_size
                    for axis_size, group in zip(axes, groups))
        if score > best_score:
            best_score = score
            best = AxisMapping(shape=shape,
                               assignment=tuple(tuple(g) for g in groups))
    return best


def feasible_specs(shape: tuple[int, int, int],
                   sharding_options: tuple = None) -> list[PartitionSpec]:
    """Enumerate specs mappable onto `shape` (whole-dim assignments).

    Axis sizes are products of subsets of the shape's dims, so simply
    enumerate the 4^3 ownership labelings and emit the resulting tuples.
    """
    from repro.parallelism.spec import Sharding
    if sharding_options is None:
        sharding_options = tuple(
            Sharding(activations=a, weights=w)
            for a in ("1D", "2D") for w in ("1D", "2D"))
    seen: set[tuple] = set()
    specs: list[PartitionSpec] = []
    for labels in itertools.product(range(4), repeat=3):
        sizes = [1, 1, 1, 1]
        for dim, owner in zip(range(3), labels):
            sizes[owner] *= shape[dim]
        key = tuple(sizes)
        if key in seen:
            continue
        seen.add(key)
        for sharding in sharding_options:
            specs.append(PartitionSpec(pipeline=sizes[0], data=sizes[1],
                                       model1=sizes[2], model2=sizes[3],
                                       sharding=sharding))
    return specs

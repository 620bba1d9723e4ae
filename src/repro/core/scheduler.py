"""Slice placement: OCS-reconfigurable versus statically-wired machines.

The OCS benefit (Section 2.5): a slice needs any-N healthy blocks, "picked
from anywhere in the supercomputer".  A statically-cabled machine (the
TPU v3 situation, and Figure 4's "statically connected" baseline) must find
a *contiguous cuboid* of healthy blocks in the fixed block grid.

Machine-wide, a slice may split its block grid across regions (pods)
joined by a trunk OCS layer.  Because any healthy blocks are equivalent,
what such a split costs (trunk ports, circuits, latency) depends only
on the block grid and the per-region block counts.  :func:`plan_price`
memoizes that :class:`PlanPrice`; the multi-region planner budgets and
ranks candidate splits from it, and the fleet's machine fabric
(:mod:`repro.fleet.machine`) charges every rewiring from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from repro.core.slicing import (SliceShape, blocks_needed, block_grid,
                                canonical_shape, is_legal_shape)
from repro.errors import OCSError, SchedulingError
from repro.ocs.fabric import FACE_LINKS
from repro.ocs.reconfigure import grid_adjacency_indices
from repro.topology.builder import is_block_multiple


class PlacementPolicy(Enum):
    """How slices map onto blocks."""

    OCS = "ocs"
    STATIC = "static"


class PlacementStrategy(Enum):
    """Which of the feasible placements a scheduler prefers.

    The policy (OCS vs static) defines what *can* host a slice; the
    strategy picks among the feasible placements:

    * FIRST_FIT — the first feasible placement in scan order.
    * BEST_FIT — the feasible placement leaving the least fragmentation
      (fewest free blocks stranded against the new slice).
    * DEFRAG — best-fit, plus (at the fleet level, OCS only) planned
      migrations that rewire the optical fabric to compact free blocks
      when a job would otherwise queue.  Within a single machine it
      places exactly like BEST_FIT.
    """

    FIRST_FIT = "first_fit"
    BEST_FIT = "best_fit"
    DEFRAG = "defrag"


@dataclass
class ScheduleOutcome:
    """Result of packing as many equal slices as possible."""

    slice_shape: SliceShape
    policy: PlacementPolicy
    placements: list[list[int]] = field(default_factory=list)
    total_blocks: int = 0

    @property
    def scheduled_blocks(self) -> int:
        """Blocks consumed by placed slices."""
        return sum(len(p) for p in self.placements)

    @property
    def goodput(self) -> float:
        """Scheduled fraction of the machine (the paper's goodput)."""
        return self.scheduled_blocks / self.total_blocks


@dataclass(frozen=True)
class PlanPrice:
    """Everything a rewiring costs, with no physical wiring attached.

    Mirrors the consumer surface of :class:`repro.fleet.machine.
    MachinePlan` (circuit counts, trunk ports, latency) value-for-value
    — every quantity is a pure function of the slice's block grid and
    its per-region block counts, independent of which physical blocks
    host it, which is what makes the memoization sound.
    """

    num_blocks: int            # n; 0 for sub-block (empty) plans
    trunk_count: int           # adjacencies crossing a region boundary
    ports_by_region: tuple[int, ...]   # trunk endpoints per region
    pod_moves: int             # busiest pod switch's mirror moves
    trunk_moves: int           # busiest machine switch's mirror moves

    @property
    def empty(self) -> bool:
        """True when nothing needs programming (sub-block slices)."""
        return self.num_blocks == 0

    @property
    def cross_pod(self) -> bool:
        """True when the plan rides the trunk layer."""
        return self.trunk_count > 0

    @property
    def num_adjacencies(self) -> int:
        """Block adjacencies across every layer (3 per block placed)."""
        return 3 * self.num_blocks

    @property
    def num_circuits(self) -> int:
        """Chip-level circuits the plan programs (16 per adjacency)."""
        return self.num_adjacencies * FACE_LINKS

    @property
    def num_trunk_circuits(self) -> int:
        """Chip circuits riding the machine-level trunk bank."""
        return self.trunk_count * FACE_LINKS

    @property
    def cross_fraction(self) -> float:
        """Share of the slice's links that traverse the trunk layer."""
        total = self.num_adjacencies
        return self.trunk_count / total if total else 0.0

    @property
    def total_trunk_ports(self) -> int:
        """Trunk ports the plan holds across all pods (2 per adjacency)."""
        return 2 * self.trunk_count

    def latency_seconds(self, base_seconds: float, switch_seconds: float,
                        trunk_base_seconds: float) -> float:
        """Critical-path seconds before the slice's links carry traffic."""
        if self.empty:
            return 0.0
        latency = base_seconds + switch_seconds * self.pod_moves
        if self.trunk_count:
            latency += trunk_base_seconds + \
                switch_seconds * self.trunk_moves
        return latency


_EMPTY_PRICE = PlanPrice(num_blocks=0, trunk_count=0, ports_by_region=(),
                         pod_moves=0, trunk_moves=0)


@lru_cache(maxsize=None)
def _adjacency_arrays(grid: tuple[int, int, int]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's torus walk as (dim, low_slot, high_slot) columns."""
    adj = np.asarray(grid_adjacency_indices(grid), dtype=np.int64)
    return adj[:, 0], adj[:, 1], adj[:, 2]


@lru_cache(maxsize=None)
def _price_for(grid: tuple[int, int, int],
               counts: tuple[int, ...]) -> PlanPrice:
    """The price of laying `grid` out as region-contiguous runs, memoized.

    Slots fill row-major, `counts[i]` of them for the i-th run; the
    torus walk's adjacencies whose endpoints land in different runs ride
    the trunk layer.  Which ones do depends only on where the runs
    break, never on which regions own them (the regions of a placement
    are distinct, so distinct runs are distinct owners).  This is the
    one place a block grid's walk is split by region: the multi-region
    planner filters and ranks its candidate splits on it (best-fit
    enumerates hundreds per placement that share a handful of count
    profiles, so each pays a dict lookup), and :func:`plan_price`
    charges every placed rewiring from it.
    """
    n = grid[0] * grid[1] * grid[2]
    if sum(counts) != n:
        raise OCSError(
            f"grid {grid} does not cover {sum(counts)} assigned blocks")
    dims, low, high = _adjacency_arrays(grid)
    region = np.repeat(np.arange(len(counts), dtype=np.int64),
                       np.asarray(counts, dtype=np.int64))
    low_region = region[low]
    high_region = region[high]
    cross = low_region != high_region
    trunk_count = int(np.count_nonzero(cross))
    if trunk_count:
        trunk_moves = int(np.bincount(dims[cross], minlength=3).max())
        ports = np.bincount(low_region[cross], minlength=len(counts)) + \
            np.bincount(high_region[cross], minlength=len(counts))
        ports_by_region = tuple(int(p) for p in ports)
    else:
        trunk_moves = 0
        ports_by_region = (0,) * len(counts)
    intra = ~cross
    if intra.any():
        # max over (region, dim) == the busiest pod fabric's busiest
        # dimension, exactly MachinePlan.pod_moves_per_switch.
        pod_moves = int(np.bincount(
            low_region[intra] * 3 + dims[intra]).max())
    else:
        pod_moves = 0
    return PlanPrice(num_blocks=n, trunk_count=trunk_count,
                     ports_by_region=ports_by_region,
                     pod_moves=pod_moves, trunk_moves=trunk_moves)


@lru_cache(maxsize=None)
def plan_price(shape: SliceShape, counts: tuple[int, ...]) -> PlanPrice:
    """The memoized price of hosting `shape` split as `counts` per pod.

    `counts` is the block count of each region of the placement, in
    assignment order — the only property of a placement its rewiring
    price depends on (physical block ids never matter: the OCS can
    wire any blocks into the same virtual torus).  Memoized on the
    (shape, counts) pair itself so repeat placements skip even the
    shape canonicalization.
    """
    dims = canonical_shape(shape)
    if not is_block_multiple(dims):
        return _EMPTY_PRICE
    return _price_for(block_grid(dims), counts)


@dataclass(frozen=True)
class MultiRegionPlacement:
    """One slice placed across several regions (pods) of a machine.

    The machine-wide generalization of a block list: the slice's virtual
    block grid is laid out row-major over *slots*, each slot hosted by
    some region.  Consecutive slots stay region-contiguous, so
    ``region_blocks`` (region id, blocks taken) fully determines which
    slot lives where, and ``price`` (the memoized :class:`PlanPrice`
    of those per-region counts) is the placement's trunk demand:
    adjacencies crossing regions and the trunk ports each region must
    terminate.
    """

    shape: SliceShape
    grid: tuple[int, int, int]
    region_blocks: tuple[tuple[int, int], ...]
    price: PlanPrice

    @property
    def num_blocks(self) -> int:
        """Blocks the slice occupies across all regions."""
        return sum(take for _, take in self.region_blocks)

    def trunk_ports_by_region(self) -> dict[int, int]:
        """Trunk-port endpoints each region must terminate.

        Every cross-region adjacency lands one trunk port on each of its
        two regions (the light leaves one pod and enters the other).
        """
        return dict(zip((region for region, _ in self.region_blocks),
                        self.price.ports_by_region))


def _greedy_take(pool: Sequence[tuple[int, int]],
                 needed: int) -> list[tuple[int, int]] | None:
    """Fill `needed` blocks from `pool` in order; None if it cannot."""
    assignment: list[tuple[int, int]] = []
    remaining = needed
    for region, free in pool:
        if remaining == 0:
            break
        take = min(free, remaining)
        if take > 0:
            assignment.append((region, take))
            remaining -= take
    return assignment if remaining == 0 else None


#: Region subsets, C(n, k), that best-fit may rank per placement before
#: it falls back to the greedy pick — bounds its search on very wide
#: fleets.
_SUBSET_ENUMERATION_CAP = 256


@lru_cache(maxsize=None)
def _block_layout(shape: SliceShape
                  ) -> tuple[SliceShape, int, tuple[int, int, int]] | None:
    """A shape's (dims, block count, block grid), memoized per shape.

    None for a sub-block shape.  An illegal shape raises the same
    `SchedulingError` on every call, since ``lru_cache`` caches no
    exception.
    """
    dims = canonical_shape(shape)
    if not is_legal_shape(dims):
        raise SchedulingError(f"illegal slice shape {dims}")
    if not is_block_multiple(dims):
        return None  # sub-block slices live inside one block's mesh
    return dims, blocks_needed(dims), block_grid(dims)


def plan_multi_region(shape: SliceShape,
                      free_by_region: Sequence[tuple[int, int]],
                      strategy: PlacementStrategy =
                      PlacementStrategy.FIRST_FIT,
                      *, trunk_budget: Mapping[int, int] | None = None
                      ) -> MultiRegionPlacement | None:
    """Place one block-multiple slice across regions, OCS style.

    `free_by_region` is (region id, free block count) per region, with
    distinct region ids — under OCS any free blocks of a region are
    equivalent (Section 2.5), so counts are the whole story and the
    caller resolves physical ids.  `trunk_budget` caps the trunk ports
    each region may consume; layouts whose price would oversubscribe a
    region's trunks are rejected.

    Strategy is the topology policy: FIRST_FIT fills regions in the
    order given; BEST_FIT (and DEFRAG, which places like best-fit once
    migration is off the table) minimizes pod spill first, then trunk
    usage, then leftover free space in the touched regions.  Best-fit
    takes k, the fewest regions that can host the slice (the greedy
    pick: largest first, ties by region id).  When C(n, k), for the n
    regions with free blocks, is at most ``_SUBSET_ENUMERATION_CAP``,
    it ranks every k-region subset with enough free blocks, each filled
    in that order; otherwise it takes the greedy pick alone.  The
    ranking cannot depend on the order of enumeration: with k minimal,
    every feasible subset needs all k of its regions, so each key ends
    in its own region tuple and no two keys tie.
    """
    layout = _block_layout(shape)
    if layout is None:
        return None
    dims, needed, grid = layout
    pool = [(region, free) for region, free in free_by_region if free > 0]
    if sum(free for _, free in pool) < needed:
        return None

    # Each candidate comes with its leftover: the free blocks its regions
    # keep.  A lone candidate's key is never compared, so its leftover
    # is moot.
    if strategy is PlacementStrategy.FIRST_FIT:
        candidates = [(_greedy_take(pool, needed), 0)]
    else:
        # Largest first, ties by region id: the stable two-pass sort is
        # the (-free, region) order without a Python key function.
        by_size = sorted(sorted(pool), key=itemgetter(1), reverse=True)
        greedy = _greedy_take(by_size, needed)
        k = len(greedy)
        if math.comb(len(by_size), k) > _SUBSET_ENUMERATION_CAP:
            candidates = [(greedy, 0)]
        else:
            # Subsets of the sorted pools come out sorted, and the
            # greedy pick is one of them.  With k minimal a subset
            # fills all of its regions, so its leftover is its own free
            # sum less the blocks needed.
            candidates = (
                (_greedy_take(subset, needed), spare)
                for subset in itertools.combinations(by_size, k)
                if (spare := sum(free for _, free in subset) - needed) >= 0)

    best: MultiRegionPlacement | None = None
    best_key: tuple | None = None
    for assignment, leftover in candidates:
        price = _price_for(grid, tuple(take for _, take in assignment))
        if trunk_budget is not None and any(
                ports > trunk_budget.get(region, 0)
                for (region, _), ports in zip(assignment,
                                              price.ports_by_region)):
            continue
        key = (len(assignment) - 1, price.trunk_count, leftover,
               tuple(region for region, _ in assignment))
        if best is None or key < best_key:
            best = MultiRegionPlacement(
                shape=dims, grid=grid, region_blocks=tuple(assignment),
                price=price)
            best_key = key
    return best


def plan_multi_region_hypothetical(
        shape: SliceShape,
        free_by_region: Sequence[tuple[int, int]],
        strategy: PlacementStrategy = PlacementStrategy.FIRST_FIT,
        *, trunk_budget: Mapping[int, int] | None = None,
        block_credits: Mapping[int, int] | None = None
        ) -> MultiRegionPlacement | None:
    """Place a slice against a *hypothetical* machine state.

    The contention-resolution planner's what-if front door: the caller
    holds the live ``free_by_region`` and a set of candidate victims
    (jobs it could evict or migrate away), expressed as per-region
    ``block_credits`` — blocks that *would* free if the victims went —
    plus a what-if ``trunk_budget`` (e.g. ``MachineFabric.
    trunk_budget_excluding`` with the victims' trunk holdings credited
    back).  The credits are merged into the pools and the ordinary
    planner runs; nothing is mutated, so the caller can probe victim
    sets until one yields a placement and only then evict for real.
    """
    credited = [(region, free + (block_credits or {}).get(region, 0))
                for region, free in free_by_region]
    return plan_multi_region(shape, credited, strategy,
                             trunk_budget=trunk_budget)


def _grid_dims(num_blocks: int) -> tuple[int, int, int]:
    """The physical block grid of a machine (4x4x4 for 64 blocks)."""
    side = round(num_blocks ** (1 / 3))
    if side**3 != num_blocks:
        raise SchedulingError(
            f"num_blocks must be a cube (a block grid), got {num_blocks}")
    return (side, side, side)


class SliceScheduler:
    """Slice placement over a machine's block health map.

    :meth:`place_one` finds one slice first-fit or best-fit;
    :meth:`pack` fills the machine greedily, first-fit.
    """

    def __init__(self, healthy: Sequence[bool],
                 grid: tuple[int, int, int] | None = None) -> None:
        self.healthy = list(healthy)
        self.grid = grid if grid is not None else _grid_dims(len(self.healthy))
        if self.grid[0] * self.grid[1] * self.grid[2] != len(self.healthy):
            raise SchedulingError(
                f"grid {self.grid} does not cover {len(self.healthy)} blocks")

    # -- helpers ---------------------------------------------------------------

    def _block_id(self, coord: tuple[int, int, int]) -> int:
        gx, gy, gz = self.grid
        return (coord[0] * gy + coord[1]) * gz + coord[2]

    def _cuboid_blocks(self, anchor: tuple[int, int, int],
                       extent: tuple[int, int, int]) -> list[int] | None:
        """Blocks of a contiguous cuboid, or None if it leaves the grid."""
        for axis in range(3):
            if anchor[axis] + extent[axis] > self.grid[axis]:
                return None
        blocks = []
        for dx in range(extent[0]):
            for dy in range(extent[1]):
                for dz in range(extent[2]):
                    blocks.append(self._block_id(
                        (anchor[0] + dx, anchor[1] + dy, anchor[2] + dz)))
        return blocks

    @staticmethod
    def _static_orientations(dims: SliceShape) -> list[tuple[int, int, int]]:
        """Distinct axis orientations of a shape's block-grid extent."""
        extent = block_grid(dims) if is_block_multiple(dims) else (1, 1, 1)
        return sorted(set(itertools.permutations(extent)))

    def _first_static_fit(self, free: Sequence[bool],
                          orientations: Sequence[tuple[int, int, int]]
                          ) -> list[int] | None:
        """First fully-free contiguous cuboid in any orientation."""
        for anchor in itertools.product(*(range(g) for g in self.grid)):
            for orientation in orientations:
                blocks = self._cuboid_blocks(anchor, orientation)
                if blocks is not None and all(free[b] for b in blocks):
                    return blocks
        return None

    def _fragmentation_score(self, free: Sequence[bool],
                             blocks: Sequence[int]) -> int:
        """Free blocks left face-adjacent to a candidate cuboid.

        Each such neighbor is capacity the placement strands against an
        occupied surface; best-fit minimizes it, tucking slices into
        pockets and corners so large contiguous regions survive.
        """
        taken = set(blocks)
        gx, gy, gz = self.grid
        score = 0
        for block in blocks:
            x, rem = divmod(block, gy * gz)
            y, z = divmod(rem, gz)
            for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                               (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                nx, ny, nz = x + dx, y + dy, z + dz
                if not (0 <= nx < gx and 0 <= ny < gy and 0 <= nz < gz):
                    continue
                neighbor = (nx * gy + ny) * gz + nz
                if neighbor not in taken and free[neighbor]:
                    score += 1
        return score

    def _best_static_fit(self, free: Sequence[bool],
                         orientations: Sequence[tuple[int, int, int]]
                         ) -> list[int] | None:
        """The fully-free cuboid with the lowest fragmentation score.

        Ties resolve to the earliest anchor/orientation in scan order,
        so best-fit is exactly as deterministic as first-fit.
        """
        best: list[int] | None = None
        best_score = -1
        for anchor in itertools.product(*(range(g) for g in self.grid)):
            for orientation in orientations:
                blocks = self._cuboid_blocks(anchor, orientation)
                if blocks is None or not all(free[b] for b in blocks):
                    continue
                score = self._fragmentation_score(free, blocks)
                if best is None or score < best_score:
                    best, best_score = blocks, score
        return best

    # -- packing -----------------------------------------------------------------

    def place_one(self, shape: SliceShape, policy: PlacementPolicy,
                  strategy: PlacementStrategy = PlacementStrategy.FIRST_FIT
                  ) -> list[int] | None:
        """Blocks for a single `shape` slice, or None when it cannot fit.

        The fleet scheduler's fast path: unlike :meth:`pack` it stops at
        one placement instead of filling the machine.  Under OCS any
        healthy blocks are equivalent (Section 2.5), so the strategy
        only changes which cuboid a *static* machine picks.
        """
        dims = canonical_shape(shape)
        if not is_legal_shape(dims):
            raise SchedulingError(f"illegal slice shape {dims}")
        if policy is PlacementPolicy.OCS:
            per_slice = blocks_needed(dims)
            pool = [i for i, ok in enumerate(self.healthy) if ok]
            return pool[:per_slice] if len(pool) >= per_slice else None
        orientations = self._static_orientations(dims)
        if strategy is PlacementStrategy.FIRST_FIT:
            return self._first_static_fit(self.healthy, orientations)
        return self._best_static_fit(self.healthy, orientations)

    def pack(self, shape: SliceShape,
             policy: PlacementPolicy) -> ScheduleOutcome:
        """Place as many `shape` slices as possible; greedy, deterministic."""
        dims = canonical_shape(shape)
        if not is_legal_shape(dims):
            raise SchedulingError(f"illegal slice shape {dims}")
        outcome = ScheduleOutcome(slice_shape=dims, policy=policy,
                                  total_blocks=len(self.healthy))
        free = list(self.healthy)
        if policy is PlacementPolicy.OCS:
            per_slice = blocks_needed(dims)
            pool = [i for i, ok in enumerate(free) if ok]
            while len(pool) >= per_slice:
                outcome.placements.append(pool[:per_slice])
                pool = pool[per_slice:]
            return outcome

        # Static: contiguous cuboids, any axis orientation, no wraparound.
        orientations = self._static_orientations(dims)
        while True:
            blocks = self._first_static_fit(free, orientations)
            if blocks is None:
                return outcome
            for b in blocks:
                free[b] = False
            outcome.placements.append(blocks)

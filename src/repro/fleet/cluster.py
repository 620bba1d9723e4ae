"""Fleet inventory: pods of blocks with health, occupancy, and fabric state.

A :class:`Pod` is the scheduling view of one TPU v4 machine — a cubic
grid of 4x4x4 blocks where each block is either up or down (failure
state) and either free or owned by a job.  Placement itself is delegated
to :class:`repro.core.scheduler.SliceScheduler` so the fleet uses the
exact OCS-vs-static packing rules of Section 2.5.  On OCS runs the
:class:`FleetState` carries one :class:`repro.fleet.machine.
MachineFabric` — every pod's switches plus the machine-level trunk
layer — so placements (single-pod and cross-pod alike) pay real
reconfiguration latency and trunk-port occupancy.

Free-block state is indexed incrementally — ``num_free`` is O(1) and the
free mask is maintained, not rescanned — because the fleet scheduler's
dispatch loop queries it for every queued job after every event, which
profiling showed dominated medium-preset runs.  Every pod mirrors its
counter into one shared ``list[int]`` of per-pod free counts; at 4 to
64 pods a Python scan of that list beats a numpy reduction.  The
machine-wide view (`total_free`, `free_by_pod`, the trunk budget) is
built on those counters, and :meth:`FleetState.check_invariants` can
rebuild every index from the up/owner state to catch drift.  In
verification mode (``__debug__`` by default) the scheduler runs that
full rescan every ``FULL_CHECK_EVERY`` (64) dispatches and at finalize,
and the O(pods) :meth:`FleetState.check_conservation` probe on every
other dispatch.
"""

from __future__ import annotations

import numpy as np

from repro.core.scheduler import (PlacementPolicy, PlacementStrategy,
                                  SliceScheduler)
from repro.core.slicing import SliceShape
from repro.errors import SchedulingError
from repro.fleet.fabric import PodFabric
from repro.fleet.machine import MachineFabric


class Pod:
    """One pod's block state: up/down, free/owned, fabric, and placement."""

    def __init__(self, pod_id: int, num_blocks: int,
                 fabric: PodFabric | None = None, *,
                 up: np.ndarray | None = None,
                 free: np.ndarray | None = None,
                 counts: list[int] | None = None,
                 counts_slot: int = 0) -> None:
        self.pod_id = pod_id
        self.num_blocks = num_blocks
        #: Health and free state live in numpy bitmasks so the dispatch
        #: loop's per-event queries (`first_free`, the invariant rescan)
        #: run as C-level scans instead of Python list walks.  `owner`
        #: stays a plain dict — it is the authoritative ownership record
        #: the invariant checker rebuilds the masks against.  A
        #: :class:`FleetState` passes row views of its fleet-wide
        #: matrices so the invariant check vectorizes across all pods
        #: at once; a standalone pod allocates its own rows.
        self.up = np.ones(num_blocks, dtype=bool) if up is None else up
        self.owner: dict[int, int] = {}  # block id -> job id
        self.fabric = fabric
        side = round(num_blocks ** (1 / 3))
        self._grid = (side, side, side) if side ** 3 == num_blocks else None
        # Incremental free index: _free[b] == up[b] and b not owned.
        self._free = np.ones(num_blocks, dtype=bool) if free is None \
            else free
        self._num_free = num_blocks
        # Mirror of _num_free in a shared list of per-pod counts.
        # Every mutation writes both, so a FleetState-owned list always
        # holds all pods' counts for the scans that read them all (the
        # scheduler's pod choice, the machine-wide free total).
        self._counts = [num_blocks] if counts is None else counts
        self._slot = counts_slot
        # Down-and-unowned count, maintained incrementally so the
        # per-dispatch conservation probe is O(1) per pod.
        self._down_unowned = 0

    # -- state queries -----------------------------------------------------------

    def free_mask(self) -> list[bool]:
        """Per-block availability, the SliceScheduler health map (a copy)."""
        return self._free.tolist()

    def first_free(self, count: int) -> list[int] | None:
        """The `count` lowest-id free blocks, or None if under `count`."""
        if self._num_free < count:
            return None
        picked = self._free.nonzero()[0][:count]
        if len(picked) < count:
            raise SchedulingError(   # pragma: no cover - index corruption
                f"pod {self.pod_id} free index out of sync")
        return picked.tolist()

    @property
    def num_free(self) -> int:
        """Healthy, unowned blocks (O(1), maintained incrementally)."""
        return self._num_free

    @property
    def num_busy(self) -> int:
        """Blocks currently owned by jobs."""
        return len(self.owner)

    def jobs_on(self) -> list[int]:
        """Sorted ids of jobs holding any block of this pod.

        Sorted so callers may iterate directly without inheriting set
        order; scheduler consumers re-sort by their own total-order
        keys, so the result bytes are unchanged.
        """
        return sorted(set(self.owner.values()))

    # -- placement ---------------------------------------------------------------

    def find_placement(self, shape: SliceShape, policy: PlacementPolicy,
                       strategy: PlacementStrategy =
                       PlacementStrategy.FIRST_FIT) -> list[int] | None:
        """Blocks for one slice under `policy`/`strategy`, or None."""
        scheduler = SliceScheduler(self._free.tolist(), grid=self._grid)
        return scheduler.place_one(shape, policy, strategy)

    def assign(self, blocks: list[int], job_id: int) -> None:
        """Give `blocks` to `job_id`."""
        for block in blocks:
            if not self._free[block]:
                raise SchedulingError(
                    f"pod {self.pod_id} block {block} is not free")
        for block in blocks:
            self.owner[block] = job_id
            self._free[block] = False
        self._num_free -= len(blocks)
        self._counts[self._slot] = self._num_free

    def release(self, job_id: int,
                blocks: list[int] | None = None) -> list[int]:
        """Free every block `job_id` holds; returns the freed blocks.

        `blocks` is an optional hint naming the blocks the caller
        assigned to the job (the scheduler's ActiveJob keeps them);
        with it the release checks just those owner entries instead of
        scanning every owned block in the pod.  Ownership is still
        verified per block, so a stale hint frees nothing it shouldn't.
        """
        if blocks is not None:
            owner = self.owner
            freed = [b for b in blocks if owner.get(b) == job_id]
        else:
            freed = [b for b, owner in self.owner.items()
                     if owner == job_id]
        for block in freed:
            del self.owner[block]
            if self.up[block]:
                self._free[block] = True
                self._num_free += 1
            else:
                self._down_unowned += 1
        self._counts[self._slot] = self._num_free
        return sorted(freed)

    # -- failures -----------------------------------------------------------------

    def block_down(self, block: int) -> int | None:
        """Fail a block; returns the interrupted job id, if any."""
        was_up = bool(self.up[block])
        self.up[block] = False
        if self._free[block]:
            self._free[block] = False
            self._num_free -= 1
            self._counts[self._slot] = self._num_free
            self._down_unowned += 1
        elif was_up and block not in self.owner:
            self._down_unowned += 1  # pragma: no cover - defensive
        return self.owner.get(block)

    def block_up(self, block: int) -> None:
        """Repair a block."""
        self.up[block] = True
        if block not in self.owner and not self._free[block]:
            self._free[block] = True
            self._num_free += 1
            self._counts[self._slot] = self._num_free
            self._down_unowned -= 1


class FleetState:
    """All pods of the fleet, the machine fabric, and the machine index."""

    def __init__(self, num_pods: int, blocks_per_pod: int,
                 with_fabric: bool = False, trunk_ports: int = 0) -> None:
        self.machine = MachineFabric(num_pods, blocks_per_pod,
                                     trunk_ports) if with_fabric else None
        # Fleet-wide bitmask matrices; each pod works on its row view,
        # so per-pod mutations land here and the invariant rescan runs
        # one vectorized pass over every pod at once.
        self._up_matrix = np.ones((num_pods, blocks_per_pod), dtype=bool)
        self._free_matrix = np.ones((num_pods, blocks_per_pod),
                                    dtype=bool)
        self._free_counts = [blocks_per_pod] * num_pods
        self.pods = [
            Pod(pod_id, blocks_per_pod,
                fabric=self.machine.pods[pod_id] if self.machine else None,
                up=self._up_matrix[pod_id],
                free=self._free_matrix[pod_id],
                counts=self._free_counts,
                counts_slot=pod_id)
            for pod_id in range(num_pods)]

    @property
    def free_counts(self) -> list[int]:
        """Per-pod free-block counts, indexed by pod id (the shared list).

        Kept in lockstep with every pod's O(1) counter, so the
        scheduler's single-pod placement picks a pod in one scalar scan
        of it instead of reading ``pod.num_free`` across pods.  Callers
        must not mutate it.
        """
        return self._free_counts

    @property
    def total_blocks(self) -> int:
        """Blocks across all pods."""
        return sum(pod.num_blocks for pod in self.pods)

    @property
    def total_free(self) -> int:
        """Healthy, unowned blocks machine-wide.

        Summed over the shared per-pod free counts (every per-pod
        counter mirrors into them on mutation) rather than over the pod
        objects; the dispatch pass re-reads it whenever capacity grows.
        """
        return sum(self._free_counts)

    @property
    def busy_blocks(self) -> int:
        """Blocks owned by jobs right now."""
        return sum(pod.num_busy for pod in self.pods)

    def free_by_pod(self) -> list[tuple[int, int]]:
        """(pod id, free blocks) per pod — the machine placement index.

        Read off the shared per-pod free counts (pod ids are their
        indices) rather than the pod objects.
        """
        return list(enumerate(self._free_counts))

    def pods_by_space(self) -> list[Pod]:
        """Pods ordered most-free first (ties by id, deterministic)."""
        return sorted(self.pods, key=lambda p: (-p.num_free, p.pod_id))

    def check_conservation(self) -> None:
        """O(pods) probe: free + owned + down-unowned covers every block.

        The per-dispatch guard: every incremental counter update keeps
        the three classes a partition of the pod's blocks, so any
        single-sided index update — including a tampered ``owner``
        map — breaks the sum and fails here on the very next dispatch.
        Positional drift that happens to conserve counts (a free mask
        pointing at the wrong block) is caught by the cadenced full
        rescan in :meth:`check_invariants`.
        """
        for pod in self.pods:
            if pod._num_free + len(pod.owner) + pod._down_unowned != \
                    pod.num_blocks:
                raise SchedulingError(
                    f"pod {pod.pod_id} blocks not conserved: "
                    f"{pod.num_free} free + {pod.num_busy} busy + "
                    f"{pod._down_unowned} down != {pod.num_blocks}")

    def check_invariants(self) -> None:
        """Recompute every incremental index and assert it matches.

        The drift guard behind defrag migrations and cross-pod
        placement: per-pod free masks and counters are rebuilt from the
        authoritative up/owner state, and the machine fabric's trunk
        ledger is re-summed, so any code path that updates one side of
        an index without the other fails loudly here instead of
        corrupting placement decisions later.  The scheduler runs it
        in verification mode every ``FULL_CHECK_EVERY`` dispatches and
        at finalize.
        """
        num_pods, blocks_per_pod = self._up_matrix.shape
        rescan = self._up_matrix.copy()
        owned_pairs = [(pod.pod_id, block)
                       for pod in self.pods for block in pod.owner]
        if owned_pairs:
            owned = np.asarray(owned_pairs, dtype=np.int64)
            pod_ids, block_ids = owned[:, 0], owned[:, 1]
            if block_ids.min() < 0 or \
                    (block_ids >= blocks_per_pod).any():
                bad = int(pod_ids[(block_ids < 0) |
                                  (block_ids >= blocks_per_pod)][0])
                raise SchedulingError(
                    f"pod {bad} owner map names an out-of-range block")
            rescan[pod_ids, block_ids] = False
            down_owned = np.bincount(
                pod_ids[~self._up_matrix[pod_ids, block_ids]],
                minlength=num_pods)
        else:
            down_owned = np.zeros(num_pods, dtype=np.int64)
        if not np.array_equal(self._free_matrix, rescan):
            drifted = (self._free_matrix != rescan).any(axis=1)
            raise SchedulingError(
                f"pod {int(np.flatnonzero(drifted)[0])} free mask "
                f"drifted from up/owner state")
        free_counts = np.count_nonzero(rescan, axis=1).tolist()
        for pod, free_count in zip(self.pods, free_counts):
            if pod.num_free != free_count:
                raise SchedulingError(
                    f"pod {pod.pod_id} free counter {pod.num_free} != "
                    f"rescan {free_count}")
        if self._free_counts != free_counts:
            raise SchedulingError(
                "shared free-count list drifted from per-pod counters")
        down_unowned = np.count_nonzero(~self._up_matrix, axis=1) - \
            down_owned
        for pod, extra in zip(self.pods, down_unowned.tolist()):
            if pod._down_unowned != extra:
                raise SchedulingError(
                    f"pod {pod.pod_id} down-unowned counter "
                    f"{pod._down_unowned} != rescan {extra}")
            if pod.num_free + pod.num_busy + extra != pod.num_blocks:
                raise SchedulingError(
                    f"pod {pod.pod_id} blocks not conserved")
        if self.total_free + self.busy_blocks > self.total_blocks:
            raise SchedulingError("machine-wide block conservation broken")
        if self.machine is not None:
            self.machine.check_trunk_accounting()

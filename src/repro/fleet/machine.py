"""Machine-wide OCS fabric: per-pod fabrics joined by a trunk layer.

The paper's flagship machine is not one pod: 64 racks are stitched into
arbitrary-size slices by a machine-level OCS layer (Sections 2-3), so a
slice can take blocks from several pods.  :class:`MachineFabric` models
that layer over the existing per-pod state: each pod keeps its own
:class:`repro.fleet.fabric.PodFabric` (48 switches, block-granularity
circuits), and every pod additionally terminates ``trunk_ports``
block-level trunk fibers on a shared machine OCS bank.

A cross-pod placement decomposes its virtual block-grid torus (the same
walk as single-pod wiring, :func:`repro.ocs.reconfigure.
grid_adjacency_indices`) into:

* intra-pod adjacencies — programmed on that pod's own switches exactly
  as a single-pod slice would be;
* trunk adjacencies — adjacencies whose endpoints live in different
  pods.  Each consumes one trunk port on both endpoint pods and
  FACE_LINKS chip circuits on the machine-level switch bank.

Trunk ports are a scarce, schedulable resource: the fleet scheduler must
not place a cross-pod slice whose trunk demand oversubscribes any pod,
and :meth:`MachineFabric.apply` enforces it.  Latency model: pod
switches and machine switches all program in parallel, but a plan that
touches the trunk layer pays an extra drain/validate window on top of
the per-pod price (light must be checked end to end across two pod
fabrics and the trunk bank before handover).

A rewiring's cost — circuits, trunk ports, critical-path latency — is a
pure function of the slice's block grid and its per-pod block counts,
so the scheduler charges every placement from the memoized
:func:`repro.core.scheduler.plan_price` (re-exported here), the same
price the multi-region planner budgets with.  Only the trunk ledger is
state the scheduler reads; the per-pod switch banks are programmed only
in verification mode (:attr:`MachineFabric.program_pods`), where each
plan's block-level wiring (:class:`MachinePlan`, the independent
reference walk) must agree with its price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.scheduler import PlanPrice, plan_price
from repro.core.slicing import SliceShape, block_grid, canonical_shape
from repro.errors import OCSError
from repro.fleet.fabric import PodFabric, ReconfigPlan
from repro.ocs.fabric import FACE_LINKS
from repro.ocs.reconfigure import grid_adjacency_indices
from repro.topology.builder import is_block_multiple

#: One cross-pod block adjacency: (dim, low_pod, low_block, high_pod,
#: high_block).  Carries FACE_LINKS chip circuits over the trunk layer.
TrunkAdjacency = tuple[int, int, int, int, int]


# -- plans ------------------------------------------------------------------------


@dataclass(frozen=True)
class MachinePlan:
    """The block-level wiring of one placement, priced per layer.

    The reference a :class:`PlanPrice` must reproduce: every quantity
    here is counted off the actual adjacencies.
    """

    job_id: int
    pod_plans: tuple[tuple[int, ReconfigPlan], ...]
    trunk_adjacencies: tuple[TrunkAdjacency, ...]

    @property
    def empty(self) -> bool:
        """True when nothing needs programming (sub-block slices)."""
        return not self.pod_plans and not self.trunk_adjacencies

    @property
    def cross_pod(self) -> bool:
        """True when the plan rides the trunk layer."""
        return bool(self.trunk_adjacencies)

    @property
    def num_adjacencies(self) -> int:
        """Block adjacencies across every layer (3 per block placed)."""
        return sum(len(plan.adjacencies) for _, plan in self.pod_plans) + \
            len(self.trunk_adjacencies)

    @property
    def num_circuits(self) -> int:
        """Chip-level circuits the plan programs (16 per adjacency)."""
        return self.num_adjacencies * FACE_LINKS

    @property
    def num_trunk_circuits(self) -> int:
        """Chip circuits riding the machine-level trunk bank."""
        return len(self.trunk_adjacencies) * FACE_LINKS

    @property
    def cross_fraction(self) -> float:
        """Share of the slice's links that traverse the trunk layer."""
        total = self.num_adjacencies
        return len(self.trunk_adjacencies) / total if total else 0.0

    def trunk_ports_by_pod(self) -> dict[int, int]:
        """Trunk-port endpoints each pod must terminate for this plan."""
        ports: dict[int, int] = {}
        for _, low_pod, _, high_pod, _ in self.trunk_adjacencies:
            ports[low_pod] = ports.get(low_pod, 0) + 1
            ports[high_pod] = ports.get(high_pod, 0) + 1
        return ports

    @property
    def total_trunk_ports(self) -> int:
        """Trunk ports the plan holds across all pods (2 per adjacency)."""
        return 2 * len(self.trunk_adjacencies)

    @property
    def pod_moves_per_switch(self) -> int:
        """Mirror moves on the busiest pod switch of any pod.

        Pod fabrics program in parallel, so the busiest pod sets the
        price.
        """
        return max((plan.moves_per_switch for _, plan in self.pod_plans),
                   default=0)

    @property
    def trunk_moves_per_switch(self) -> int:
        """Mirror moves on the busiest machine-level switch.

        The trunk bank mirrors the pod wiring law: a trunk adjacency of
        dimension d lands one circuit on each of that dimension's
        FACE_LINKS machine switches, so the busiest programs as many
        circuits as its dimension has trunk adjacencies.
        """
        if not self.trunk_adjacencies:
            return 0
        per_dim = [0, 0, 0]
        for dim, *_ in self.trunk_adjacencies:
            per_dim[dim] += 1
        return max(per_dim)

    def latency_seconds(self, base_seconds: float, switch_seconds: float,
                        trunk_base_seconds: float) -> float:
        """Critical-path seconds before the slice's links carry traffic.

        Touching the trunk layer adds its own validate window plus the
        busiest machine switch's moves on top of the busiest pod's.
        """
        if self.empty:
            return 0.0
        latency = base_seconds + switch_seconds * self.pod_moves_per_switch
        if self.trunk_adjacencies:
            latency += trunk_base_seconds + \
                switch_seconds * self.trunk_moves_per_switch
        return latency


@dataclass(frozen=True)
class PricedPlan:
    """One placement's rewiring as the scheduler charges it.

    `price` is the memoized :class:`PlanPrice`; `pod_ids` names the pod
    hosting each of its regions, so the trunk ledger knows whom to
    charge.  `wiring` is the block-level :class:`MachinePlan` that
    programs the pod switch banks — built only in verification mode.
    """

    job_id: int
    pod_ids: tuple[int, ...]
    price: PlanPrice
    wiring: MachinePlan | None = None

    def trunk_ports_by_pod(self) -> dict[int, int]:
        """Trunk-port endpoints each pod must terminate for this plan."""
        return {self.pod_ids[region]: ports
                for region, ports in enumerate(self.price.ports_by_region)
                if ports}


# -- the fabric -------------------------------------------------------------------


class MachineFabric:
    """Every pod's fabric plus the shared trunk layer joining them."""

    def __init__(self, num_pods: int, blocks_per_pod: int,
                 trunk_ports: int) -> None:
        if num_pods < 1:
            raise OCSError(f"need at least one pod, got {num_pods}")
        if trunk_ports < 0:
            raise OCSError(f"trunk_ports must be >= 0, got {trunk_ports}")
        self.trunk_ports = trunk_ports
        self.pods = [PodFabric(blocks_per_pod) for _ in range(num_pods)]
        self._trunk_free = [trunk_ports] * num_pods
        self._held_trunks: dict[int, dict[int, int]] = {}
        #: Verification mode: plans carry their block-level wiring,
        #: checked against the price, and every pod's switch bank is
        #: programmed and torn down.  Off, only the trunk ledger is
        #: live — no output reads the banks.  The fleet scheduler ties
        #: it to its ``verify_invariants`` flag.
        self.program_pods = True

    # -- trunk index --------------------------------------------------------------

    @property
    def num_pods(self) -> int:
        """Pods terminated on the trunk layer."""
        return len(self.pods)

    @property
    def trunk_capacity(self) -> int:
        """Trunk ports installed across every pod."""
        return self.trunk_ports * self.num_pods

    def trunk_budget(self) -> dict[int, int]:
        """Free trunk ports per pod — the placement planner's budget."""
        return {pod_id: free
                for pod_id, free in enumerate(self._trunk_free)}

    def trunk_in_use(self) -> int:
        """Trunk ports currently held by cross-pod slices."""
        return self.trunk_capacity - sum(self._trunk_free)

    def holds_trunks(self, job_id: int) -> bool:
        """True while `job_id` has circuits on the trunk layer."""
        return job_id in self._held_trunks

    def trunk_ports_of(self, job_id: int) -> dict[int, int]:
        """Trunk ports `job_id` holds per pod (a copy; {} if none).

        The what-if credit of one candidate victim: evicting or
        migrating the job to a single pod would hand exactly these
        ports back to each pod's budget.
        """
        return dict(self._held_trunks.get(job_id, {}))

    def trunk_budget_excluding(self, job_ids: Iterable[int]
                               ) -> dict[int, int]:
        """The trunk budget as if `job_ids` had already released.

        What-if accounting for contention planning — nothing is
        released; the live ledger is merely re-summed with the given
        jobs' holdings credited back.
        """
        budget = self.trunk_budget()
        for job_id in job_ids:
            for pod_id, count in self._held_trunks.get(job_id,
                                                       {}).items():
                # detlint: ignore[D005] integer trunk-port counts
                budget[pod_id] += count
        return budget

    def reserve(self, job_id: int, ports: dict[int, int]) -> None:
        """Hold `ports` trunk endpoints per pod for `job_id` (atomic).

        Every pod's demand is checked before any is taken, so an
        oversubscribed reservation fails without holding anything.
        """
        if job_id in self._held_trunks:
            raise OCSError(
                f"job {job_id} already holds trunk circuits")
        for pod_id, needed in ports.items():
            if needed > self._trunk_free[pod_id]:
                raise OCSError(
                    f"pod {pod_id} has {self._trunk_free[pod_id]} trunk "
                    f"ports free, plan needs {needed}")
        for pod_id, needed in ports.items():
            self._trunk_free[pod_id] -= needed
        if ports:
            self._held_trunks[job_id] = dict(ports)

    # -- plan / apply / release ---------------------------------------------------

    def wiring(self, job_id: int, shape: SliceShape,
               assignments: list[tuple[int, list[int]]]) -> MachinePlan:
        """The block-level wiring hosting `shape` on `assignments`.

        `assignments` is (pod id, physical blocks) per pod, in virtual
        slot order: flattening the block lists row-major fills the
        slice's block grid.  Sub-block shapes return an empty plan.
        """
        dims = canonical_shape(shape)
        if not is_block_multiple(dims):
            return MachinePlan(job_id=job_id, pod_plans=(),
                               trunk_adjacencies=())
        grid = block_grid(dims)
        slots = [(pod_id, block)
                 for pod_id, blocks in assignments for block in blocks]
        if grid[0] * grid[1] * grid[2] != len(slots):
            raise OCSError(
                f"grid {grid} does not cover {len(slots)} assigned blocks")
        intra: dict[int, list[tuple[int, int, int]]] = {}
        trunks: list[TrunkAdjacency] = []
        for dim, low, high in grid_adjacency_indices(grid):
            low_pod, low_block = slots[low]
            high_pod, high_block = slots[high]
            if low_pod == high_pod:
                intra.setdefault(low_pod, []).append(
                    (dim, low_block, high_block))
            else:
                trunks.append((dim, low_pod, low_block,
                               high_pod, high_block))
        pod_plans = tuple(
            (pod_id, ReconfigPlan(job_id=job_id,
                                  adjacencies=tuple(adjacencies)))
            for pod_id, adjacencies in sorted(intra.items()))
        return MachinePlan(job_id=job_id, pod_plans=pod_plans,
                           trunk_adjacencies=tuple(trunks))

    def plan(self, job_id: int, shape: SliceShape,
             assignments: list[tuple[int, list[int]]]) -> PricedPlan:
        """The priced rewiring hosting `shape` on `assignments`.

        In verification mode the plan also carries its block-level
        :meth:`wiring`, which must agree with the price — circuits,
        trunk ports per pod, and both latency terms — or this raises
        :class:`OCSError`.
        """
        price = plan_price(shape, tuple(len(blocks)
                                        for _, blocks in assignments))
        pod_ids = tuple(pod_id for pod_id, _ in assignments)
        if not self.program_pods or price.empty:
            return PricedPlan(job_id, pod_ids, price)
        wiring = self.wiring(job_id, shape, assignments)
        plan = PricedPlan(job_id, pod_ids, price, wiring)
        if (wiring.num_circuits, wiring.trunk_ports_by_pod(),
                wiring.pod_moves_per_switch,
                wiring.trunk_moves_per_switch) != \
                (price.num_circuits, plan.trunk_ports_by_pod(),
                 price.pod_moves, price.trunk_moves):
            raise OCSError(
                f"job {job_id}: block-level wiring of {shape} on "
                f"{[len(blocks) for _, blocks in assignments]} blocks "
                f"per pod disagrees with its price")
        return plan

    def apply(self, plan: PricedPlan) -> int:
        """Charge the plan to the fabric; returns chip circuits created.

        Trunk ports are reserved before any pod programs, so an
        oversubscribed plan fails atomically instead of leaving one pod
        rewired.  The pod switch banks are programmed only when the
        plan carries its wiring (verification mode).
        """
        if plan.price.empty:
            return 0
        self.reserve(plan.job_id, plan.trunk_ports_by_pod())
        if plan.wiring is not None:
            for pod_id, pod_plan in plan.wiring.pod_plans:
                self.pods[pod_id].apply(pod_plan)
        return plan.price.num_circuits

    def release(self, job_id: int) -> int:
        """Tear down every circuit `job_id` holds on any layer.

        Hands its trunk ports back to the ledger.  Every pod's switch
        bank is visited only in verification mode; otherwise no pod
        holds circuits and none is touched.
        """
        removed = 0
        if self.program_pods:
            for pod in self.pods:
                removed += pod.release(job_id)
        ports = self._held_trunks.pop(job_id, None)
        if ports:
            for pod_id, count in ports.items():
                # detlint: ignore[D005] integer trunk-port counts
                self._trunk_free[pod_id] += count
            # detlint: ignore[D005] integer port counts; order-free sum
            removed += sum(ports.values()) // 2 * FACE_LINKS
        return removed

    # -- invariants ---------------------------------------------------------------

    def check_trunk_accounting(self) -> None:
        """Assert the trunk free index matches the held-circuit ledger."""
        in_use = [0] * self.num_pods
        for ports in self._held_trunks.values():
            for pod_id, count in ports.items():
                # detlint: ignore[D005] integer trunk-port counts
                in_use[pod_id] += count
        for pod_id, used in enumerate(in_use):
            if self._trunk_free[pod_id] != self.trunk_ports - used:
                raise OCSError(
                    f"pod {pod_id} trunk index out of sync: "
                    f"{self._trunk_free[pod_id]} free but "
                    f"{used}/{self.trunk_ports} held")

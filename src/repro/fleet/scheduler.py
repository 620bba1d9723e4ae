"""The fleet-level scheduler: queueing, priorities, preemption, rewiring.

Wraps :class:`repro.core.scheduler.SliceScheduler` placement (Section
2.5's OCS-vs-static packing rules) with the operational layer a real
fleet needs: a shared priority queue across pods, backfill past stuck
heads, serving-tier preemption of batch work, and checkpoint-restart
bookkeeping (Young/Daly cadence from :mod:`repro.core.checkpoint`)
whenever a failure or preemption interrupts a training job.

Placement is machine-wide: a job whose block demand exceeds one pod can
be placed as a *cross-pod slice* over the machine-level trunk OCS layer
(:mod:`repro.fleet.machine`), with per-pod block assignments planned by
:func:`repro.core.scheduler.plan_multi_region` under the live trunk-port
budget.  Cross-pod slices pay for the privilege twice: the rewiring
additionally programs the trunk bank (extra critical-path latency), and
every link that leaves the pod taxes the job's step time — the
trunk-hop bandwidth tax, charged as a slowdown proportional to the
placement's cross-link share.

Contention resolution is machine-wide too.  Each dispatch escalates
free placement → defrag → cross-pod → preemption (the last resort): a
preemptor too big for any one pod assembles a cross-pod placement out
of hypothetical victim credits (blocks per pod, plus the trunk ports a
cross-pod victim would hand back) and evicts only the victims the
winning plan needs; and when a cross-pod plan fails on trunk ports
rather than blocks, the defrag strategy checkpoint-migrates cross-pod
donors into snugger placements that release trunk endpoints.

OCS placement is flexible but not free: starting a slice rewires the
optical fabric, and that switching latency is charged on the job's
critical path before its first segment runs.  The placement *strategy*
picks among feasible placements — first-fit, best-fit (minimal
fragmentation on one pod; minimal pod spill and trunk usage across
pods), or defrag, which plans an OCS rewiring that compacts free blocks
(migrating small jobs off one pod, across pods when needed) when a job
would otherwise queue.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from repro.core.block import HOSTS_PER_BLOCK
from repro.core.checkpoint import CheckpointParams, optimal_interval
from repro.core.scheduler import (MultiRegionPlacement, PlacementPolicy,
                                  PlacementStrategy, SliceScheduler,
                                  plan_multi_region,
                                  plan_multi_region_hypothetical)
from repro.errors import SchedulingError
from repro.fleet.cluster import FleetState, Pod
from repro.fleet.config import FleetConfig
from repro.fleet.obs.tracer import NULL_RECORDER, NullRecorder, ObsRecorder
from repro.fleet.telemetry import FleetTelemetry
from repro.fleet.workload import FleetJob
from repro.sim.events import AnyEvent, Simulator

_EPSILON = 1e-9

#: One placement: (pod, physical blocks) per pod, in virtual slot order.
Placement = list[tuple[Pod, list[int]]]


@dataclass(slots=True, eq=False)
class ActiveJob:
    """Mutable runtime state of one job inside the scheduler.

    Slotted: the dispatch loop reads these fields for every queued job
    on every pass, and a hyperscale run keeps thousands alive at once.
    Identity equality (`eq=False`): each job has exactly one ActiveJob,
    and `queue.remove` must not pay a field-by-field dataclass compare
    against every queued entry it scans past.
    """

    job: FleetJob
    remaining: float
    submitted_at: float
    #: Dense id of the job's (shape, priority) class, interned per
    #: scheduler when the job first joins the queue and kept across
    #: requeues.  Every skip rule of a dispatch pass reads a queued job
    #: only through this pair, so a pass can skip a whole class at
    #: once; an int, so the per-visit membership test hashes no nested
    #: tuple.
    klass: int = 0
    pending_restore: float = 0.0
    pending_reconfig: float = 0.0
    #: (pod id, blocks) per pod in slot order; empty while queued.
    assignments: list[tuple[int, list[int]]] = field(default_factory=list)
    started_at: float = 0.0
    interval: float = math.inf   # checkpoint cadence; inf for serving
    overhead: float = 1.0        # wall-clock per useful second
    trunk_tax: float = 0.0       # extra wall per useful second, cross-pod
    trunk_ports_held: int = 0    # trunk endpoints held across all pods
    completion: AnyEvent = None

    @property
    def running(self) -> bool:
        """True while the job holds blocks."""
        return bool(self.assignments)

    @property
    def is_cross_pod(self) -> bool:
        """True while the job's slice spans more than one pod."""
        return len(self.assignments) > 1

    @property
    def pod_id(self) -> int | None:
        """The hosting pod of a single-pod placement; None otherwise."""
        if len(self.assignments) == 1:
            return self.assignments[0][0]
        return None

    @property
    def blocks(self) -> list[int]:
        """Every block the job holds, across all pods, in slot order."""
        return [block for _, pod_blocks in self.assignments
                for block in pod_blocks]

    def blocks_on(self, pod_id: int) -> int:
        """Blocks the job holds on one pod."""
        return sum(len(pod_blocks)
                   for held_pod, pod_blocks in self.assignments
                   if held_pod == pod_id)


class FleetScheduler:
    """Places a shared job queue onto the fleet under one policy."""

    #: Dispatches between full from-scratch invariant rescans.  Every
    #: dispatch still runs the O(pods) conservation probe, so
    #: single-sided index updates fail immediately; only positional
    #: drift that happens to conserve per-pod counts waits for the
    #: cadenced rescan (and the one at finalize).
    FULL_CHECK_EVERY = 64

    def __init__(self, config: FleetConfig, policy: PlacementPolicy,
                 sim: Simulator, state: FleetState,
                 telemetry: FleetTelemetry,
                 strategy: PlacementStrategy | None = None,
                 obs: ObsRecorder | NullRecorder = NULL_RECORDER) -> None:
        self.config = config
        self.policy = policy
        self.strategy = strategy if strategy is not None else config.strategy
        self.sim = sim
        self.state = state
        self.telemetry = telemetry
        #: Observability sink; the shared no-op recorder unless the run
        #: asked for a log.  It only records: `obs.enabled` gates building
        #: a record, never a scheduling choice.
        self.obs = obs
        self.queue: list[ActiveJob] = []
        self.running: dict[int, ActiveJob] = {}
        self.verify_invariants = __debug__
        self._dispatches_since_full_check = 0
        #: Whether a job bigger than one pod can run at all: it must
        #: span pods over the trunk layer, which needs an OCS machine
        #: (a static fleet has no trunk layer), cross-pod placement on,
        #: and a second pod.  Fixed for the run, like the pod size.
        self._can_span_pods = state.machine is not None and \
            config.cross_pod and policy is PlacementPolicy.OCS and \
            len(state.pods) >= 2
        self._pod_blocks = state.pods[0].num_blocks
        #: Failure caches persisted across dispatch passes.  A failed
        #: placement attempt mutates nothing, so its result stays valid
        #: while capacity only *shrinks* (assignments, victimless block
        #: failures).  `_grow_epoch` counts every capacity-growing
        #: mutation — block and trunk-port releases, and repairs — and
        #: one rule keeps the caches sound: before each queued job is
        #: tried, they are cleared if the epoch moved since they were
        #: last synced.
        self._grow_epoch = 0
        #: Jobs that ever joined the queue (arrivals and requeues).
        self._joins = 0
        #: (grow epoch, joins) at the start of the last pass that saw
        #: no grow: its caches are synced at that epoch, and while
        #: neither count moves, a dispatch can place nothing.
        self._settled = (-1, -1)
        self._failed_shapes: set = set()
        self._failed_defrags: set[int] = set()
        self._failed_cross: set = set()
        self._failed_preemptions: set = set()
        #: Class id per (shape, priority); see `ActiveJob.klass`.
        self._classes: dict[tuple, int] = {}
        #: Young/Daly interval per block count — a pure function of the
        #: config's failure/checkpoint constants and the job's size,
        #: recomputed thousands of times for the handful of sizes a
        #: workload actually uses.
        self._interval_by_blocks: dict[int, float] = {}

    @property
    def verify_invariants(self) -> bool:
        """Verification mode: guard the incremental indices.

        Defaults to the interpreter's debug mode (python -O compiles
        the guard out for production-speed sweeps); tests force it on
        explicitly so the drift guard itself is testable regardless of
        interpreter flags.  Every dispatch runs the O(pods)
        conservation probe; the full from-scratch rescan runs every
        FULL_CHECK_EVERY dispatches and once more at finalize, so
        positional drift the probe cannot see is still caught within a
        bounded window.  The machine fabric follows the flag: only in
        this mode does it program the pod switch banks and check each
        plan's wiring against its price.  Set it before the run starts.
        """
        return self._verify_invariants

    @verify_invariants.setter
    def verify_invariants(self, on: bool) -> None:
        self._verify_invariants = on
        if self.state.machine is not None:
            self.state.machine.program_pods = on

    # -- queue discipline --------------------------------------------------------

    def _queue_order(self, active: ActiveJob) -> tuple:
        return (-active.job.priority, active.submitted_at, active.job.job_id)

    def _enqueue(self, job: FleetJob) -> ActiveJob:
        """Register an arrival on the queue (no dispatch)."""
        self.telemetry.record_for(job)
        klass = self._classes.setdefault((job.shape, job.priority),
                                         len(self._classes))
        active = ActiveJob(job=job, remaining=job.work_seconds,
                          submitted_at=self.sim.now, klass=klass)
        bisect.insort(self.queue, active, key=self._queue_order)
        self._joins += 1
        return active

    def _queue_in_order(self) -> list[ActiveJob]:
        """The queue in dispatch order (priority, then age, then id).

        `self.queue` is kept in that order as jobs join — a waiting
        job's key never changes — so this is a snapshot copy for a pass
        to walk while placements leave the queue and victims join it.
        """
        return self.queue[:]

    def submit(self, job: FleetJob) -> None:
        """Accept a new arrival and try to run it."""
        self._enqueue(job)
        self.dispatch()

    def dispatch(self) -> None:
        """Run placement passes until nothing else fits (with backfill).

        One pass considers every queued job, so a second pass can only
        help when blocks moved underneath it — an eviction requeued
        victims, or a defragmentation migrated jobs between pods.

        A dispatch that can place nothing returns without walking the
        queue: when the last pass saw no grow and since its start
        neither capacity grew (no block or trunk port came back) nor a
        job joined the queue, every queued job failed each rung it
        tried in that pass and is cached as such, or needs more blocks
        than are free — a full sweep would skip them all.
        """
        if self._settled == (self._grow_epoch, self._joins):
            self._post_dispatch_checks()
            return
        while self._dispatch_pass():
            pass
        self._post_dispatch_checks()

    def _post_dispatch_checks(self) -> None:
        """The per-dispatch drift guard (probe + cadenced full rescan)."""
        if self._verify_invariants:
            self._dispatches_since_full_check += 1
            if self._dispatches_since_full_check >= self.FULL_CHECK_EVERY:
                self._dispatches_since_full_check = 0
                self.state.check_invariants()
            else:
                self.state.check_conservation()

    def _dispatch_pass(self) -> bool:
        """One placement sweep; returns True when a re-pass could help."""
        if not self.queue:
            return False
        moved_any = False
        # Hoisted out of the per-job loop: this sweep visits every
        # queued job on every pass (tens of thousands of iterations on
        # the medium preset), so the disabled path must not pay even
        # the attribute lookups.
        obs_enabled = self.obs.enabled
        # Within a pass, free space only shrinks and (because the queue
        # is priority-sorted) no preemptible job starts before a
        # preemptor is considered — so a failed placement, defrag,
        # cross-pod, or preemption attempt stays failed for identical
        # later requests until capacity grows.  The same monotonicity
        # holds *across* passes and dispatches, so the caches persist,
        # synced to the grow epoch before each job: a defrag or
        # preemption that frees blocks or trunk ports mid-pass
        # invalidates them for every later job.  They start synced at
        # the last settled pass's epoch.
        epoch_at_start = self._grow_epoch
        joins_at_start = self._joins
        synced = self._settled[0]
        failed_shapes = self._failed_shapes
        failed_defrags = self._failed_defrags
        failed_cross = self._failed_cross
        failed_preemptions = self._failed_preemptions
        # Capacity check: a job that cannot preempt and needs more
        # blocks than are free machine-wide fails every rung — free,
        # defrag, and cross-pod placement all need that many free
        # blocks — with no side effect, so it is skipped without
        # touching any cache.  Free space grows only with the grow
        # epoch, so the total is re-read whenever the epoch moves (a
        # mid-pass eviction frees blocks later jobs may take).
        preempt_priority = self.config.preempt_priority
        free_epoch = -1
        total_free = 0
        # Dead classes.  A skip reads a queued job only through its
        # (shape, priority) class: `blocks` follows from the shape,
        # `can_preempt` from the priority, and the failure caches key
        # on shape, blocks and the pair.  Within one grow epoch the
        # caches only grow and free space only shrinks, so once a job
        # of a class is capacity-skipped, or fails or cache-skips every
        # rung it reaches, every later job of that class in this pass
        # would be skipped too: the pass stops visiting them.  A grow
        # during a visit revives every class; a placement kills none.
        # A future rung that reads any other job field must widen the
        # class key.
        dead: set[int] = set()
        for active in self._queue_in_order():
            klass = active.klass
            if klass in dead:
                continue
            epoch = self._grow_epoch
            if synced != epoch:
                synced = epoch
                failed_shapes.clear()
                failed_defrags.clear()
                failed_cross.clear()
                failed_preemptions.clear()
            shape = active.job.shape
            can_preempt = active.job.priority >= preempt_priority
            if not can_preempt:
                if free_epoch != epoch:
                    free_epoch = epoch
                    total_free = self.state.total_free
                if active.job.blocks > total_free:
                    dead.add(klass)
                    continue
            placement = None
            via = ""        # the rung that placed it, for the decision log
            attempted = False  # did ANY rung run, or were all cache-skipped
            if shape not in failed_shapes:
                attempted = True
                placement = self._find_anywhere(active.job)
                if placement is None:
                    failed_shapes.add(shape)
                else:
                    via = "pod_local"
            if placement is None and \
                    self.strategy is PlacementStrategy.DEFRAG and \
                    active.job.blocks not in failed_defrags:
                attempted = True
                placement = self._defrag_for(active)
                if placement is not None:  # migrations moved blocks
                    via = "defrag"
                    moved_any = True
                else:
                    failed_defrags.add(active.job.blocks)
            if placement is None and shape not in failed_cross:
                attempted = True
                placement = self._find_cross_pod(active.job)
                if placement is None:
                    failed_cross.add(shape)
                else:
                    via = "cross_pod"
            if placement is None and can_preempt:
                key = (shape, active.job.priority)
                if key not in failed_preemptions:
                    attempted = True
                    placement = self._preempt_for(active)
                    if placement is not None:  # eviction freed blocks
                        via = "preemption"
                        moved_any = True
                    else:
                        failed_preemptions.add(key)
            if obs_enabled and attempted:
                self.obs.decision(
                    self.sim.now, active.job.job_id, active.job.kind,
                    active.job.blocks, active.job.priority,
                    "placed" if placement is not None else "rejected",
                    via if placement is not None else
                    self._rejection_cause(active, can_preempt))
            if placement is not None:
                self._start(active, placement)
            # Backfill either way: later (smaller) jobs may still fit.
            if self._grow_epoch != epoch:
                dead.clear()
            elif placement is None:
                dead.add(klass)
        # Settle only a pass that saw no grow at all; after one that
        # did, the next pass starts with empty caches.
        if self._grow_epoch == epoch_at_start:
            self._settled = (epoch_at_start, joins_at_start)
        return moved_any

    def _rejection_cause(self, active: ActiveJob, can_preempt: bool) -> str:
        """Classify one failed placement attempt for the decision log.

        Only called with observability enabled, for a job on which at
        least one rung ran, so the extra unbounded-trunk probe below
        never runs on the default path.  A preemption-capable job's
        last resort was eviction, so its failure is
        `preemption_declined`; otherwise the job wanted free capacity,
        and the shortage is trunk ports exactly when a cross-pod plan
        succeeds with the trunk budget lifted (`trunk_budget=None` =
        unbounded) but failed under the live budget.
        """
        if can_preempt:
            return "preemption_declined"
        needed = active.job.blocks
        if self._can_span_pods and needed > self._pod_blocks and \
                self.state.total_free >= needed and \
                plan_multi_region(active.job.shape,
                                  self.state.free_by_pod(),
                                  self.strategy) is not None:
            return "insufficient_trunk_ports"
        return "insufficient_blocks"

    def _find_anywhere(self, job: FleetJob) -> Placement | None:
        """A free single-pod placement under the configured strategy.

        first_fit takes the first feasible pod in id order; best_fit
        and defrag take the feasible pod with the least free space left
        over (ties to the lowest id), preserving large free pools for
        large arrivals.  Under OCS any free blocks of a pod are
        equivalent, so pod choice IS the strategy — one scan of the
        shared per-pod free counts; under static wiring the strategy
        also picks the cuboid inside the pod.
        """
        needed = job.blocks
        if self.policy is PlacementPolicy.OCS:
            pod_id = -1
            if self.strategy is PlacementStrategy.FIRST_FIT:
                for candidate, free in enumerate(self.state.free_counts):
                    if free >= needed:
                        pod_id = candidate
                        break
            else:
                least = self._pod_blocks + 1
                for candidate, free in enumerate(self.state.free_counts):
                    if needed <= free < least:
                        pod_id, least = candidate, free
            if pod_id < 0:
                return None
            pod = self.state.pods[pod_id]
            return [(pod, pod.first_free(needed))]
        if self.strategy is PlacementStrategy.FIRST_FIT:
            candidates = self.state.pods
        else:
            candidates = sorted(
                (p for p in self.state.pods if p.num_free >= needed),
                key=lambda p: (p.num_free, p.pod_id))
        for pod in candidates:
            if pod.num_free < needed:
                continue
            blocks = pod.find_placement(job.shape, self.policy,
                                        self.strategy)
            if blocks is not None:
                return [(pod, blocks)]
        return None

    # -- cross-pod placement ------------------------------------------------------

    def _find_cross_pod(self, job: FleetJob) -> Placement | None:
        """A cross-pod placement over the trunk layer, or None.

        Only jobs whose block demand exceeds one pod span pods — the
        paper's machine exists for exactly those slices — and only on an
        OCS machine with cross-pod placement enabled: a statically-wired
        fleet has no trunk layer to ride.  The per-pod split comes from
        :func:`plan_multi_region` under the live trunk-port budget, so a
        placement that would oversubscribe any pod's trunks is never
        attempted.
        """
        needed = job.blocks
        if not self._can_span_pods or needed <= self._pod_blocks:
            return None  # fits one pod in principle; spill never pays
        if self.state.total_free < needed:
            return None
        placement = plan_multi_region(
            job.shape, self.state.free_by_pod(), self.strategy,
            trunk_budget=self.state.machine.trunk_budget())
        if placement is None:
            return None
        return self._materialize(placement)

    # -- preemption ---------------------------------------------------------------

    def _preempt_for(self, active: ActiveJob) -> Placement | None:
        """Evict lower-priority work to make room, if that can succeed.

        Victims are considered hypothetically first — lowest priority,
        then least progress lost (most recently started) — and evicted
        only once a victim set that actually yields a placement is
        found, and then only the victims that placement actually needs,
        so neither static-fragmentation dead ends nor bystanders in the
        considered set suffer pointless churn.  A cross-pod victim
        loses its whole slice (its other pods' blocks free as a side
        effect), which only helps later queue entries.

        A job too big for any one pod takes the machine-wide path
        instead: its placement is assembled across pods out of
        hypothetical victim credits (blocks per pod, plus the trunk
        ports a cross-pod victim would hand back) under the trunk
        budget, via :func:`plan_multi_region_hypothetical`.
        """
        if active.job.blocks > self._pod_blocks:
            return self._preempt_cross_pod(active)
        for pod in self.state.pods_by_space():
            victims = sorted(
                (self.running[job_id] for job_id in pod.jobs_on()
                 if self.running[job_id].job.priority < active.job.priority),
                key=lambda a: (a.job.priority, -a.started_at, a.job.job_id))
            if not victims:
                continue
            mask = pod.free_mask()
            considered: list[ActiveJob] = []
            for victim in victims:
                for block, owner in pod.owner.items():
                    if owner == victim.job.job_id:
                        mask[block] = True
                considered.append(victim)
                blocks = SliceScheduler(mask).place_one(
                    active.job.shape, self.policy, self.strategy)
                if blocks is None:
                    continue
                needed = set(blocks)
                for candidate in considered:
                    held = {b for b, owner in pod.owner.items()
                            if owner == candidate.job.job_id}
                    if held & needed:
                        self._interrupt(candidate, preempted=True)
                return [(pod, blocks)]
        return None

    def _preempt_cross_pod(self, active: ActiveJob) -> Placement | None:
        """Assemble a cross-pod placement out of evictions, or None.

        The machine-wide contention path: a job that must span pods
        cannot be rescued by any single pod's victims, so candidates
        are ranked fleet-wide (lowest priority, then least progress
        lost) and accumulated into hypothetical per-pod free masks and
        a hypothetical trunk budget — a cross-pod victim is credited
        with the trunk ports it would release — until a victim set
        yields a :class:`MultiRegionPlacement`.  The set is then pruned
        to the victims the winning plan actually needs (necessity is
        monotone: dropping one victim's credits never makes another
        droppable), and only those are evicted.
        """
        if not (self._can_span_pods and self.config.cross_pod_preemption):
            return None
        machine = self.state.machine
        victims = sorted(
            (candidate for candidate in self.running.values()
             if candidate.job.priority < active.job.priority),
            key=lambda a: (a.job.priority, -a.started_at, a.job.job_id))
        if not victims:
            return None
        free = self.state.free_by_pod()

        def plan_with(considered: list[ActiveJob]
                      ) -> MultiRegionPlacement | None:
            block_credits: dict[int, int] = {}
            for victim in considered:
                for pod_id, blocks in victim.assignments:
                    block_credits[pod_id] = \
                        block_credits.get(pod_id, 0) + len(blocks)
            return plan_multi_region_hypothetical(
                active.job.shape, free, self.strategy,
                trunk_budget=machine.trunk_budget_excluding(
                    victim.job.job_id for victim in considered),
                block_credits=block_credits)

        considered: list[ActiveJob] = []
        plan: MultiRegionPlacement | None = None
        for victim in victims:
            considered.append(victim)
            plan = plan_with(considered)
            if plan is not None:
                break
        if plan is None:
            return None
        survivors = list(considered)
        for victim in considered:
            trimmed = [v for v in survivors if v is not victim]
            replanned = plan_with(trimmed)
            if replanned is not None:
                survivors, plan = trimmed, replanned
        for victim in survivors:
            self.telemetry.cross_pod_preemptions += 1
            self.telemetry.trunk_ports_reclaimed += \
                victim.trunk_ports_held
            self._interrupt(victim, preempted=True)
        return self._materialize(plan)

    def _materialize(self, plan: MultiRegionPlacement) -> Placement:
        """Resolve a multi-region plan's counts to physical blocks."""
        placement: Placement = []
        for pod_id, take in plan.region_blocks:
            blocks = self.state.pods[pod_id].first_free(take)
            if blocks is None:  # pragma: no cover - plan guarantees fit
                raise SchedulingError(
                    f"pod {pod_id} cannot supply {take} planned blocks")
            placement.append((self.state.pods[pod_id], blocks))
        return placement

    # -- defragmentation ----------------------------------------------------------

    def _defrag_for(self, active: ActiveJob) -> Placement | None:
        """Compact free blocks onto one pod by migrating donors off it.

        The defrag strategy's OCS move: when a job would otherwise
        queue although the fleet holds enough free blocks in aggregate,
        pick the pod closest to fitting it, checkpoint-migrate small
        jobs from that pod onto the rest of the fleet (each migration
        is an OCS rewiring — the donor pays restore plus the new
        fabric's switching latency), and place the stuck job on the
        compacted pod.  Migrations run only when the whole plan is
        known to succeed, so no job moves for nothing.  Static machines
        cannot rewire, so under static wiring defrag places exactly
        like best_fit.
        """
        if self.policy is not PlacementPolicy.OCS or \
                self.config.defrag_max_moves == 0:
            return None
        needed = active.job.blocks
        if self.state.total_free < needed:
            return None  # compaction cannot conjure capacity
        if needed > self._pod_blocks:
            # No single pod can ever host this job; the only defrag
            # that helps is freeing the *trunk layer* it must ride.
            return self._defrag_trunks_for(active)
        for pod in sorted(self.state.pods,
                          key=lambda p: (needed - p.num_free, p.pod_id)):
            if needed > pod.num_blocks:
                continue  # no compaction fits this job on one pod
            deficit = needed - pod.num_free
            if deficit <= 0:
                continue  # _find_anywhere would have used it
            moves = self._plan_moves(pod, deficit)
            if moves is None:
                continue
            for donor, dest in moves:
                self._migrate(donor, dest)
            blocks = pod.first_free(needed)
            if blocks is None:  # pragma: no cover - plan guarantees fit
                raise SchedulingError("defrag plan failed to free the pod")
            return [(pod, blocks)]
        return None

    def _defrag_trunks_for(self, active: ActiveJob) -> Placement | None:
        """Free trunk ports by re-packing cross-pod donors, or None.

        The defrag strategy's machine-wide move, symmetric to block
        compaction: the stuck job must span pods, the fleet holds
        enough free blocks, but the cross-pod plan fails on the *trunk
        budget* — the ports are held by running cross-pod slices.
        Donors (cross-pod, below the preemption band, biggest trunk
        holders first) are hypothetically lifted off the machine until
        the stuck job plans, then checkpoint-migrated into the
        snuggest placements that fit *around* the stuck job's
        reservation — minimal pod spill, then minimal trunk usage
        (single-pod is the limit case, every trunk endpoint released
        via :meth:`MachineFabric.release`).  Bounded by
        `defrag_max_moves`, and committed only once the whole move set
        is known to succeed — no job moves for nothing.
        """
        if not (self._can_span_pods and self.config.cross_pod_preemption):
            return None
        machine = self.state.machine
        shape = active.job.shape
        free = self.state.free_by_pod()
        budget = machine.trunk_budget()
        plan = plan_multi_region(shape, free, self.strategy,
                                 trunk_budget=budget)
        if plan is not None:
            # Feasible as-is: no migration needed.  Report failure so
            # the cross-pod rung right after this one places it — a
            # defrag "success" here would set moved_any and force a
            # re-pass for a placement that moved nothing.
            return None
        if plan_multi_region(shape, free, self.strategy) is None:
            return None  # blocks are the shortage; moves conserve blocks
        donors = sorted(
            (candidate for candidate in self.running.values()
             if candidate.is_cross_pod and candidate.job.priority <
             self.config.preempt_priority),
            key=lambda a: (-a.trunk_ports_held, a.job.job_id))
        hypo_free = dict(free)
        lifted: list[ActiveJob] = []
        relocations: list[tuple[ActiveJob, MultiRegionPlacement]] = []
        plan = None
        for donor in donors:
            if len(lifted) == self.config.defrag_max_moves:
                break
            lifted.append(donor)
            for pod_id, blocks in donor.assignments:
                hypo_free[pod_id] += len(blocks)
            hypo_budget = machine.trunk_budget_excluding(
                mover.job.job_id for mover in lifted)
            plan = plan_multi_region(shape, list(hypo_free.items()),
                                     self.strategy,
                                     trunk_budget=hypo_budget)
            if plan is None:
                continue  # lift another donor
            # Reserve the stuck job's claim, then re-place every lifted
            # donor in what remains; all-or-nothing.
            rest_free = dict(hypo_free)
            rest_budget = dict(hypo_budget)
            for pod_id, take in plan.region_blocks:
                rest_free[pod_id] -= take
            for pod_id, ports in plan.trunk_ports_by_region().items():
                rest_budget[pod_id] -= ports
            relocations = []
            for mover in lifted:
                new_place = plan_multi_region(
                    mover.job.shape, list(rest_free.items()),
                    PlacementStrategy.BEST_FIT,
                    trunk_budget=rest_budget)
                if new_place is None:
                    break
                for pod_id, take in new_place.region_blocks:
                    rest_free[pod_id] -= take
                for pod_id, ports in \
                        new_place.trunk_ports_by_region().items():
                    rest_budget[pod_id] -= ports
                relocations.append((mover, new_place))
            if len(relocations) == len(lifted):
                break
            plan = None
        if plan is None:
            return None  # no move set frees enough trunk ports
        # Commit in two phases: checkpoint-halt EVERY donor first, so
        # all their blocks and trunk ports release together, then
        # restart each on its planned relocation.  Interleaving (halt
        # one, restart it, halt the next) could land one donor's
        # relocation on blocks a later donor still holds — the
        # relocations were planned against pools where all lifted
        # donors have vacated.
        pending: list[tuple[ActiveJob, MultiRegionPlacement, int]] = []
        for donor, new_place in relocations:
            held_before = donor.trunk_ports_held
            if self._halt_for_migration(donor):
                pending.append((donor, new_place, held_before))
            else:
                # The planned checkpoint completed the donor outright:
                # every endpoint it held came back.
                self.telemetry.trunk_ports_reclaimed += held_before
        for donor, new_place, held_before in pending:
            self.telemetry.trunk_freeing_migrations += 1
            self._restart_migrated(donor, self._materialize(new_place))
            # Net ports handed back: the donor's old endpoints minus
            # whatever its re-packed slice still holds.
            self.telemetry.trunk_ports_reclaimed += \
                max(0, held_before - donor.trunk_ports_held)
        # Re-plan against the live state rather than trusting the
        # hypothesis: a planned checkpoint that covers a donor's whole
        # remaining work completes it instead of moving it, freeing
        # strictly more than planned — never less.
        plan = plan_multi_region(shape, self.state.free_by_pod(),
                                 self.strategy,
                                 trunk_budget=machine.trunk_budget())
        if plan is None:  # pragma: no cover - moves guarantee feasibility
            raise SchedulingError(
                "trunk defrag failed to free the trunk layer")
        return self._materialize(plan)

    def _plan_moves(self, pod: Pod, deficit: int
                    ) -> list[tuple[ActiveJob, Pod]] | None:
        """Donors on `pod` (and destinations) freeing >= `deficit` blocks.

        Serving deployments never migrate (they are the user-facing
        tier).  A donor frees only the blocks it holds *on this pod* —
        a cross-pod donor's slice is released everywhere, but its other
        pods' blocks do not help the deficit here, so the plan counts
        per-pod holdings.  A single donor covering the whole deficit is
        preferred (smallest such donor, least wasted churn); otherwise
        donors accumulate largest-first so the fewest jobs pay
        migration cost.
        """
        donors = sorted(
            (self.running[job_id] for job_id in pod.jobs_on()
             if self.running[job_id].job.priority <
             self.config.preempt_priority),
            key=lambda a: (a.blocks_on(pod.pod_id), a.job.job_id))
        for donor in donors:  # smallest single donor that covers it
            if donor.blocks_on(pod.pod_id) < deficit:
                continue
            dest = self._migration_target(donor, pod, {})
            if dest is not None:
                return [(donor, dest)]
        reserved: dict[int, int] = {}
        moves: list[tuple[ActiveJob, Pod]] = []
        freed = 0
        for donor in sorted(donors,
                            key=lambda a: (-a.blocks_on(pod.pod_id),
                                           a.job.job_id)):
            if freed >= deficit or \
                    len(moves) == self.config.defrag_max_moves:
                break
            dest = self._migration_target(donor, pod, reserved)
            if dest is None:
                continue
            reserved[dest.pod_id] = reserved.get(dest.pod_id, 0) + \
                donor.job.blocks
            moves.append((donor, dest))
            freed += donor.blocks_on(pod.pod_id)
        return moves if freed >= deficit else None

    def _migration_target(self, donor: ActiveJob, source: Pod,
                          reserved: dict[int, int]) -> Pod | None:
        """Best-fit destination pod for a migrating donor, or None.

        The donor resettles as a single-pod slice (even if it ran
        cross-pod before), so the destination needs room for its whole
        demand.
        """
        needed = donor.job.blocks
        best: Pod | None = None
        best_left = -1
        for pod in self.state.pods:
            if pod.pod_id == source.pod_id:
                continue
            left = pod.num_free - reserved.get(pod.pod_id, 0) - needed
            if left < 0:
                continue
            if best is None or left < best_left:
                best, best_left = pod, left
        return best

    def _halt_for_migration(self, active: ActiveJob) -> bool:
        """Checkpoint-halt a donor for a planned move; its blocks and
        trunk ports release here.  Returns False when the checkpoint
        covered everything left — the donor completed outright and
        there is nothing to move (even better than moving)."""
        if self.policy is not PlacementPolicy.OCS:
            # Migration destinations are picked by flat block count and
            # materialized with first_free — valid only because OCS
            # makes any free blocks of a pod equivalent.  A statically
            # wired machine cannot rewire a running job at all (its
            # defrag degrades to best_fit before ever reaching here),
            # so landing here under static wiring is a scheduler bug,
            # not a placement failure.
            raise SchedulingError(
                f"job {active.job.job_id}: defrag migration is an OCS "
                f"rewiring; a statically-wired machine cannot relocate "
                f"a running job")
        self._halt_segment(active, planned=True)
        if active.remaining <= _EPSILON:
            self.telemetry.record_for(active.job).completed_at = \
                self.sim.now
            self.obs.instant("completed", self.sim.now,
                             job_id=active.job.job_id,
                             kind=active.job.kind,
                             blocks=active.job.blocks)
            return False
        return True

    def _restart_migrated(self, active: ActiveJob,
                          placement: Placement) -> None:
        """Restart a halted donor on its new placement (restore paid)."""
        self.telemetry.record_for(active.job).migrations += 1
        self.obs.instant("migrated", self.sim.now,
                         job_id=active.job.job_id, kind=active.job.kind,
                         blocks=active.job.blocks)
        active.pending_restore = self.config.restore_seconds
        self._start(active, placement, migration=True)

    def _migrate(self, active: ActiveJob, dest: Pod) -> None:
        """Planned checkpoint-migrate-restore onto one destination pod.

        The block-compaction defrag move.  The physical blocks are
        resolved only after the donor's own blocks are released, so a
        donor may resettle partly onto blocks it just vacated.  (The
        trunk-freeing defrag drives :meth:`_halt_for_migration` /
        :meth:`_restart_migrated` directly: with several donors in one
        plan, every halt must happen before any restart.)
        """
        if not self._halt_for_migration(active):
            return
        blocks = dest.first_free(active.job.blocks)
        if blocks is None:  # pragma: no cover - reservation fits
            raise SchedulingError(
                f"migration target pod {dest.pod_id} has no room")
        self._restart_migrated(active, [(dest, blocks)])

    # -- job lifecycle -----------------------------------------------------------

    def _start(self, active: ActiveJob, placement: Placement,
               migration: bool = False) -> None:
        job = active.job
        for pod, blocks in placement:
            pod.assign(blocks, job.job_id)
        if not migration:
            self.queue.remove(active)
        self.running[job.job_id] = active
        active.assignments = [(pod.pod_id, list(blocks))
                              for pod, blocks in placement]
        active.started_at = self.sim.now
        active.pending_reconfig = self._rewire(active)

        record = self.telemetry.record_for(job)
        if active.is_cross_pod:
            record.cross_pod_placements += 1
        if not migration:
            record.queue_waits.append(self.sim.now - active.submitted_at)
            self.obs.span("queued", job.job_id, active.submitted_at,
                          self.sim.now, kind=job.kind, blocks=job.blocks)
        if record.first_start is None:
            record.first_start = self.sim.now

        if not job.is_serving:
            interval = self._interval_by_blocks.get(job.blocks)
            if interval is None:
                interval = optimal_interval(CheckpointParams(
                    num_hosts=job.blocks * HOSTS_PER_BLOCK,
                    host_mtbf_seconds=self.config.host_mtbf_seconds,
                    checkpoint_seconds=self.config.checkpoint_seconds,
                    restore_seconds=self.config.restore_seconds))
                self._interval_by_blocks[job.blocks] = interval
            active.interval = interval
            active.overhead = 1.0 + \
                self.config.checkpoint_seconds / active.interval
        wall = active.pending_reconfig + active.pending_restore + \
            active.remaining * active.overhead * (1.0 + active.trunk_tax)
        active.completion = self.sim.schedule(
            wall, lambda a=active: self._complete(a))

    def _rewire(self, active: ActiveJob) -> float:
        """Charge the machine fabric for a placement; critical-path cost.

        Static machines (no fabric) and sub-block slices (electrical
        mesh only) need no rewiring and start instantly.  Circuits,
        trunk ports, and latency are all charged from the plan's
        memoized price.  Cross-pod placements additionally hold trunk
        ports and set the segment's trunk-hop bandwidth tax, scaled by
        the share of the slice's links that leave their pod.
        """
        active.trunk_tax = 0.0
        active.trunk_ports_held = 0
        machine = self.state.machine
        if machine is None:
            return 0.0
        job = active.job
        plan = machine.plan(job.job_id, job.shape, active.assignments)
        price = plan.price
        if price.empty:
            return 0.0
        machine.apply(plan)
        self.telemetry.ocs_reconfigurations += 1
        self.telemetry.circuits_programmed += price.num_circuits
        if price.cross_pod:
            self.telemetry.trunk_circuits_programmed += \
                price.num_trunk_circuits
            active.trunk_tax = self.config.trunk_bandwidth_tax * \
                price.cross_fraction
            active.trunk_ports_held = price.total_trunk_ports
            self.obs.instant("trunk_reconfig", self.sim.now,
                             job_id=job.job_id, kind=job.kind,
                             blocks=job.blocks,
                             trunk_ports=price.total_trunk_ports)
        return price.latency_seconds(self.config.reconfig_base_seconds,
                                     self.config.ocs_switch_seconds,
                                     self.config.trunk_reconfig_seconds)

    def _segment_progress(self, active: ActiveJob, elapsed: float
                          ) -> tuple[float, float, float, float]:
        """Split an elapsed segment into (reconfig, restore, run_wall,
        progressed).

        The single source of the accounting identity every segment path
        relies on: elapsed = reconfig + restore + run_wall — the fabric
        rewires, then the checkpoint restores, then the job runs — and
        progressed useful work is run_wall discounted by the
        checkpoint-write overhead and, on a cross-pod slice, by the
        trunk-hop bandwidth tax.
        """
        reconfig = min(elapsed, active.pending_reconfig)
        restore = min(elapsed - reconfig, active.pending_restore)
        run_wall = elapsed - reconfig - restore
        progressed = run_wall / (active.overhead * (1.0 + active.trunk_tax))
        return reconfig, restore, run_wall, progressed

    def _complete(self, active: ActiveJob) -> None:
        """Retire a job whose completion event fired, then dispatch."""
        job = active.job
        elapsed = self.sim.now - active.started_at
        reconfig, restore, run_wall, _ = self._segment_progress(active,
                                                                elapsed)
        self._account_segment(active, elapsed, reconfig, restore, run_wall,
                              active.remaining, active.remaining)
        self._release(active)
        active.remaining = 0.0
        self.telemetry.record_for(job).completed_at = self.sim.now
        self.obs.instant("completed", self.sim.now, job_id=job.job_id,
                         kind=job.kind, blocks=job.blocks)
        self.dispatch()

    def _halt_segment(self, active: ActiveJob, *, planned: bool) -> None:
        """Stop a running job's segment, account it, and free its blocks.

        `planned` (migration) checkpoints right here — nothing replays;
        an unplanned stop rolls training back to the last Young/Daly
        checkpoint boundary.  Serving is stateless either way.
        """
        job = active.job
        if not active.running:
            raise SchedulingError(f"job {job.job_id} is not running")
        if active.completion is not None:
            active.completion.cancel()
            active.completion = None
        elapsed = self.sim.now - active.started_at
        reconfig, restore, run_wall, progressed = \
            self._segment_progress(active, elapsed)
        if job.is_serving or planned:
            saved = progressed
        else:
            saved = math.floor(progressed / active.interval) * active.interval
        self._account_segment(active, elapsed, reconfig, restore, run_wall,
                              progressed, saved)
        self._release(active)
        active.remaining = max(0.0, active.remaining - saved)
        active.pending_reconfig = 0.0  # a restart replans the fabric

    def _interrupt(self, active: ActiveJob, *, preempted: bool) -> None:
        """Stop a running job (failure or eviction) and requeue it."""
        job = active.job
        self._halt_segment(active, planned=False)
        record = self.telemetry.record_for(job)
        if preempted:
            record.preemptions += 1
        else:
            record.interruptions += 1
        self.obs.instant("preempted" if preempted else "interrupted",
                         self.sim.now, job_id=job.job_id, kind=job.kind,
                         blocks=job.blocks)
        if active.remaining <= _EPSILON:
            record.completed_at = self.sim.now
            self.obs.instant("completed", self.sim.now,
                             job_id=job.job_id, kind=job.kind,
                             blocks=job.blocks)
            return
        active.pending_restore = self.config.restore_seconds
        active.submitted_at = self.sim.now
        bisect.insort(self.queue, active, key=self._queue_order)
        self._joins += 1

    def cancel(self, active: ActiveJob) -> None:
        """Retire a job on request (the serving tier's scale-down path).

        A running job halts as a *planned* stop — the segment banks
        with nothing replayed (serving replicas are stateless anyway)
        and its blocks free immediately; a queued job simply leaves the
        queue.  Either way the record closes at `now` so chip-second
        accounting ends with the pool's decision, not the horizon.
        No dispatch here: callers batch their cancels and dispatch
        once.
        """
        job = active.job
        if active.running:
            self._halt_segment(active, planned=True)
        elif active in self.queue:
            self.queue.remove(active)
        active.remaining = 0.0
        self.telemetry.record_for(job).completed_at = self.sim.now
        self.obs.instant("cancelled", self.sim.now, job_id=job.job_id,
                         kind=job.kind, blocks=job.blocks)

    def _release(self, active: ActiveJob) -> None:
        self._grow_epoch += 1  # freed blocks can unstick cached failures
        for pod_id, blocks in active.assignments:
            self.state.pods[pod_id].release(active.job.job_id, blocks)
        if self.state.machine is not None:
            self.state.machine.release(active.job.job_id)
        del self.running[active.job.job_id]
        active.assignments = []
        active.trunk_tax = 0.0
        active.trunk_ports_held = 0

    def _account_segment(self, active: ActiveJob, elapsed: float,
                         reconfig: float, restore: float, run_wall: float,
                         progressed: float, saved: float) -> None:
        """Bank one segment into the identity's buckets.

        Of the `progressed` useful work, `saved` is kept and the rest
        replays; run wall beyond that work and its trunk stall went to
        checkpoint writes.
        Trunk stall is busy time the slice spends on trunk-hop links:
        part of the job's step time, so it rides inside the goodput
        bucket (keeping utilization = goodput + replay + restore +
        checkpoint + reconfig exact) while being surfaced separately —
        and excluded from the job's own useful-progress credit.  Trunk
        ports a cross-pod slice holds are charged for the whole segment.
        """
        blocks = active.job.blocks
        replay = progressed - saved
        stall = progressed * active.overhead * active.trunk_tax
        writes = max(0.0, run_wall - progressed - stall)
        if self.obs.enabled:
            # Span boundaries ARE the accounting boundaries: the
            # segment's elapsed wall partitions into reconfig, then
            # restore, then run_wall, and the running span's args carry
            # the identity's split of run_wall (useful + replay +
            # checkpoint writes + trunk stall) — so exported spans
            # reconcile exactly with the telemetry buckets.
            job = active.job
            t0 = active.started_at
            if reconfig > 0:
                self.obs.span("reconfig", job.job_id, t0, t0 + reconfig,
                              kind=job.kind, blocks=blocks)
            if restore > 0:
                self.obs.span("restore", job.job_id, t0 + reconfig,
                              t0 + reconfig + restore,
                              kind=job.kind, blocks=blocks)
            if run_wall > 0:
                self.obs.span("running", job.job_id,
                              t0 + reconfig + restore, t0 + elapsed,
                              kind=job.kind, blocks=blocks,
                              useful=saved, replay=replay,
                              checkpoint=writes, trunk_stall=stall)
        record = self.telemetry.record_for(active.job)
        record.useful_seconds += saved
        record.busy_seconds += elapsed
        record.trunk_stall_seconds += stall
        self.telemetry.busy_block_seconds += elapsed * blocks
        self.telemetry.useful_block_seconds += (saved + stall) * blocks
        self.telemetry.trunk_stall_block_seconds += stall * blocks
        self.telemetry.reconfig_block_seconds += reconfig * blocks
        self.telemetry.restore_block_seconds += restore * blocks
        self.telemetry.replay_block_seconds += replay * blocks
        self.telemetry.checkpoint_block_seconds += writes * blocks
        if active.is_cross_pod:
            self.telemetry.cross_pod_block_seconds += elapsed * blocks
        if active.trunk_ports_held:
            self.telemetry.trunk_port_seconds += \
                active.trunk_ports_held * elapsed

    # -- failure hooks -----------------------------------------------------------

    def on_block_down(self, pod_id: int, block_id: int) -> None:
        """A block failed; interrupt whatever job holds it."""
        victim = self.state.pods[pod_id].block_down(block_id)
        self.telemetry.block_failures += 1
        self.obs.instant("block_down", self.sim.now, pod_id=pod_id,
                         block_id=block_id)
        if victim is not None:
            self._interrupt(self.running[victim], preempted=False)
        self.dispatch()

    def on_block_up(self, pod_id: int, block_id: int) -> None:
        """A block came back; queued work may now fit."""
        self._grow_epoch += 1  # repaired capacity can unstick failures
        self.state.pods[pod_id].block_up(block_id)
        self.obs.instant("block_up", self.sim.now, pod_id=pod_id,
                         block_id=block_id)
        self.dispatch()

    # -- end of run --------------------------------------------------------------

    def finalize(self, horizon: float) -> None:
        """Credit in-flight work at the horizon without penalizing it.

        Running jobs get their progressed (not just checkpointed) work
        counted as useful — the run is ongoing, nothing is lost — which
        treats both placement policies identically.  Trunk ports held
        by running cross-pod slices are charged to the horizon.
        """
        for active in list(self.running.values()):
            elapsed = horizon - active.started_at
            reconfig, restore, run_wall, progressed = \
                self._segment_progress(active, elapsed)
            progressed = min(active.remaining, progressed)
            self._account_segment(active, elapsed, reconfig, restore,
                                  run_wall, progressed, progressed)
        # End-of-run backstop for the cadenced rescan: whatever drift
        # the per-dispatch probe could not see fails the run here
        # rather than surviving into the report.
        if self._verify_invariants:
            self.state.check_invariants()

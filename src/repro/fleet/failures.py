"""Precomputed block failure/repair traces for fleet runs.

Failure times are drawn *before* the simulation starts, from a dedicated
RNG stream, so the exact same outage trace can be replayed against the
OCS and static placement policies — the apples-to-apples comparison
behind Figure 4.  Each block alternates exponential up-times (MTBF =
host MTBF / 16, since any of a block's 16 hosts takes it down) and
exponential repair times, the regime Section 1 calls the compounding
reliability problem of everything-must-work training.

Fabric-aware repair: some outages are optical — a fiber or transceiver
fails, not the hosts behind it.  The Palomar keeps spare ports "for link
testing and repairs" (Section 2.2), so when a spare is free the repair
is one mirror move onto the spare pair (:class:`repro.ocs.repair.
RepairableSwitch`) and the block is back in `port_repair_seconds`; the
suspect port stays quarantined (its spare busy) until the original
repair window ends.  With every spare in use, an optical failure waits
out the full outage like any other.  Classification draws come from
their own RNG stream and the shortened trace is still computed entirely
before the simulation, so determinism across policies is untouched.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fleet.config import FleetConfig
from repro.ocs.repair import RepairableSwitch
from repro.ocs.switch import OpticalCircuitSwitch


@dataclass(frozen=True)
class BlockOutage:
    """One contiguous down-time of one block."""

    pod_id: int
    block_id: int
    start: float
    end: float
    via_spare: bool = False

    @property
    def duration(self) -> float:
        """Seconds the block is out."""
        return self.end - self.start


@dataclass(frozen=True)
class DrainWindow:
    """One planned capacity hole: a block pulled for deployment work.

    Unlike a :class:`BlockOutage`, a drain is scheduled — the Section
    2.4 incremental-deployment story at fleet scale: a pod's blocks
    leave service for an upgrade and return one by one as their
    hardware is ready.  Drains are policy-independent inputs exactly
    like failure traces, so the same schedule replays under OCS and
    static placement.
    """

    pod_id: int
    block_id: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Seconds the block is drained."""
        return self.end - self.start


def overlay_windows(outages: list[BlockOutage],
                    windows: list[DrainWindow] | tuple[DrainWindow, ...]
                    ) -> list[BlockOutage]:
    """Merge drain windows into a failure trace as one down/up sequence.

    The simulator drives block health with paired down/up events; a
    drain overlapping a failure must not emit interleaved ups that
    revive a block still out for the other reason.  Per block, the
    union of all down intervals is computed and re-emitted as
    :class:`BlockOutage` entries in the trace's canonical
    (start, pod, block) order.  An interval that is exactly one
    spare-repaired outage keeps its `via_spare` flag; anything merged
    loses it (the spare repair no longer bounds the hole).  With no
    windows the trace is returned unchanged, so the overlay path is
    byte-transparent for plain runs.
    """
    if not windows:
        return outages
    by_block: dict[tuple[int, int], list[tuple[float, float, bool]]] = {}
    for outage in outages:
        by_block.setdefault((outage.pod_id, outage.block_id), []).append(
            (outage.start, outage.end, outage.via_spare))
    for window in windows:
        if window.end <= window.start:
            continue
        by_block.setdefault((window.pod_id, window.block_id), []).append(
            (window.start, window.end, False))
    merged: list[BlockOutage] = []
    for (pod_id, block_id), intervals in by_block.items():
        intervals.sort()
        start, end, via_spare = intervals[0]
        coalesced = 1
        for nxt_start, nxt_end, nxt_spare in intervals[1:]:
            if nxt_start <= end:
                end = max(end, nxt_end)
                coalesced += 1
                continue
            merged.append(BlockOutage(
                pod_id=pod_id, block_id=block_id, start=start, end=end,
                via_spare=via_spare and coalesced == 1))
            start, end, via_spare = nxt_start, nxt_end, nxt_spare
            coalesced = 1
        merged.append(BlockOutage(
            pod_id=pod_id, block_id=block_id, start=start, end=end,
            via_spare=via_spare and coalesced == 1))
    merged.sort(key=lambda o: (o.start, o.pod_id, o.block_id))
    return merged


def drained_block_seconds(windows: Sequence[DrainWindow],
                          horizon: float) -> float:
    """Block-seconds of capacity the drain schedule actually removes.

    A block is either drained or it is not: windows that overlap (or
    duplicate) on the same block must count once, exactly as
    :func:`overlay_windows` coalesces them into one down interval when
    merging the schedule into the failure trace.  So the total is the
    per-block interval *union*, with every window clamped to
    [0, horizon] first — a naive ``sum(w.duration)`` double-counts any
    overlap and can report a drain_fraction above the capacity the
    schedule ever held out of service.
    """
    by_block: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for window in windows:
        start = max(0.0, min(window.start, horizon))
        end = max(0.0, min(window.end, horizon))
        if end <= start:
            continue
        by_block.setdefault((window.pod_id, window.block_id), []).append(
            (start, end))
    total = 0.0
    for intervals in by_block.values():
        intervals.sort()
        start, end = intervals[0]
        for nxt_start, nxt_end in intervals[1:]:
            if nxt_start <= end:
                end = max(end, nxt_end)
                continue
            # by_block preserves window order; sorting would reorder
            # the float sum and change the committed summary digests.
            # detlint: ignore[D005] deterministic window order
            total += end - start
            start, end = nxt_start, nxt_end
        # detlint: ignore[D005] deterministic window order (see above)
        total += end - start
    return total


def _pod_repair_switch(config: FleetConfig) -> RepairableSwitch:
    """One pod's repair-capable OCS view: a port per block plus spares."""
    return RepairableSwitch(OpticalCircuitSwitch(
        name="pod-trunk-repair",
        num_ports=2 * config.blocks_per_pod + config.spare_ports,
        spare_ports=config.spare_ports))


def apply_spare_repairs(config: FleetConfig, outages: list[BlockOutage],
                        rng: np.random.Generator) -> list[BlockOutage]:
    """Shorten optical-port outages that a spare port can absorb.

    Walks the trace in start order (one classification draw per outage,
    so the repair stream is consumed deterministically), moving each
    optical failure's circuit onto a spare of its pod's
    :class:`RepairableSwitch` when one is free.  The failed port stays
    under test — and its spare busy — until the *original* repair window
    ends, so a burst of optical failures can still exhaust the spares
    and fall back to full outages.
    """
    switches = [_pod_repair_switch(config) for _ in range(config.num_pods)]
    # (release time, pod, port) for ports under test, released in order.
    pending: list[tuple[float, int, int]] = []
    repaired: list[BlockOutage] = []
    for outage in outages:
        while pending and pending[0][0] <= outage.start:
            _, pod_id, port = heapq.heappop(pending)
            switches[pod_id].repair_port(port)
        optical = bool(rng.random() < config.optical_failure_fraction)
        switch = switches[outage.pod_id]
        if not optical or switch.spares_available == 0:
            repaired.append(outage)
            continue
        # The block's trunk fiber pair: '+' port b, '-' port b + blocks.
        port = outage.block_id
        if switch.switch.peer_of(port) is None:
            switch.switch.connect(port, config.blocks_per_pod + port)
        switch.fail_port(port)
        heapq.heappush(pending, (outage.end, outage.pod_id, port))
        repaired.append(BlockOutage(
            pod_id=outage.pod_id, block_id=outage.block_id,
            start=outage.start,
            end=min(outage.start + config.port_repair_seconds, outage.end),
            via_spare=True))
    return repaired


def build_failure_trace(config: FleetConfig, rng: np.random.Generator,
                        repair_rng: np.random.Generator | None = None
                        ) -> list[BlockOutage]:
    """Every outage inside the horizon, sorted by start time.

    Draws are made block-by-block in (pod, block) order so the trace
    depends only on the config and the RNG state, never on scheduling.
    With `repair_rng` and a nonzero `optical_failure_fraction`, the
    trace then passes through :func:`apply_spare_repairs`; the up-time
    draws are untouched (a block's next failure is still drawn from the
    original repair completion), so enabling repairs never reshuffles
    when failures strike.
    """
    mtbf = config.block_mtbf_seconds
    mean_repair = config.mean_repair_seconds
    horizon = config.horizon_seconds
    outages: list[BlockOutage] = []
    for pod_id in range(config.num_pods):
        for block_id in range(config.blocks_per_pod):
            clock = 0.0
            while True:
                clock += float(rng.exponential(mtbf))
                if clock >= horizon:
                    break
                repair = float(rng.exponential(mean_repair))
                end = min(clock + repair, horizon)
                outages.append(BlockOutage(pod_id=pod_id, block_id=block_id,
                                           start=clock, end=end))
                clock = end
    outages.sort(key=lambda o: (o.start, o.pod_id, o.block_id))
    if repair_rng is not None and config.optical_failure_fraction > 0 and \
            config.spare_ports > 0:
        outages = apply_spare_repairs(config, outages, repair_rng)
    return outages


def downtime_block_seconds(outages: list[BlockOutage]) -> float:
    """Total block-seconds of capacity lost to the trace."""
    return sum(outage.duration for outage in outages)


def spare_repair_count(outages: list[BlockOutage]) -> int:
    """Outages absorbed by a spare-port repair."""
    return sum(1 for outage in outages if outage.via_spare)

"""Per-pod OCS fabric state and reconfiguration plans.

PR 1 treated placement as instantaneous; in the real machine every
OCS-placed slice first *rewires the pod's optical fabric* — MEMS mirror
moves on the switches serving its block faces (Section 2.2) — and the
job cannot run until the light comes back.  :class:`PodFabric` gives
each :class:`repro.fleet.cluster.Pod` a live
:class:`repro.ocs.fabric.OCSFabric` programmed at block granularity via
:mod:`repro.ocs.reconfigure`, and :class:`ReconfigPlan` prices each
rewiring so the fleet scheduler can charge it on the job's critical
path.

Latency model: the switches program independently and in parallel
(Section 2.8: twisting is "mostly reprogramming of routing in the
OCS"), but each switch moves its mirrors one circuit at a time, and a
fleet-level reconfiguration also pays a fixed drain/validate window
(checking light levels end to end before handing the slice over).  So::

    latency = base_seconds + switch_seconds * max circuits on one switch

A slice of n blocks puts exactly n circuits on each of its 48 switches
(one per block's "+" face per dimension, wraparound included), so the
mirror-move term scales with slice size while the fixed term dominates
small slices.  Sub-block slices live entirely on a block's electrical
mesh and reconfigure nothing.

The fleet scheduler charges each rewiring from its memoized price
(:func:`repro.core.scheduler.plan_price`, next to the multi-region
planner that budgets with it); these banks are programmed only in
verification mode, where they cross-check the price.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.slicing import SliceShape, block_grid, canonical_shape
from repro.errors import OCSError
from repro.ocs.fabric import FACE_LINKS, NUM_OCS
from repro.ocs.reconfigure import BlockAdjacency, block_torus_adjacencies
from repro.topology.builder import is_block_multiple


@dataclass(frozen=True)
class ReconfigPlan:
    """The optical rewiring one placement needs, with its latency price."""

    job_id: int
    adjacencies: tuple[BlockAdjacency, ...]

    @property
    def num_circuits(self) -> int:
        """Chip-level circuits the plan programs (16 per adjacency)."""
        return len(self.adjacencies) * FACE_LINKS

    @property
    def moves_per_switch(self) -> int:
        """Mirror moves on the busiest switch (switches run in parallel).

        Every adjacency of dimension d lands one circuit on each of the
        FACE_LINKS switches serving d, so the busiest switch programs as
        many circuits as its dimension has adjacencies.
        """
        if not self.adjacencies:
            return 0
        per_dim = [0, 0, 0]
        for dim, _, _ in self.adjacencies:
            per_dim[dim] += 1
        return max(per_dim)

    def latency_seconds(self, base_seconds: float,
                        switch_seconds: float) -> float:
        """Critical-path seconds before the slice's links carry traffic."""
        if not self.adjacencies:
            return 0.0
        return base_seconds + switch_seconds * self.moves_per_switch


class SwitchBank:
    """Array-of-struct peer tables for all 48 switches of one pod.

    Semantically identical to 48 :class:`repro.ocs.switch.
    OpticalCircuitSwitch` peer dicts under the Figure 1 wiring law
    (port(block, '+') = block, port(block, '-') = num_blocks + block) —
    but at block granularity all FACE_LINKS switches of a dimension
    always carry the *same* peer state (every block adjacency programs
    one circuit per face position, and nothing else ever touches the
    fleet's switches), so the bank stores one row per dimension and
    counts each entry as FACE_LINKS parallel chip circuits.  A whole
    adjacency then programs as one int32 cell pair.  This is the fleet
    hot path: every placement programs 48 circuits per block, and the
    per-chip dict walk dominated `fleet profile` wall-clock.

    Conflict detection is preserved: connecting an occupied port or
    disconnecting a free one raises :class:`OCSError` exactly as the
    per-switch dicts did (the error names the dimension; every face of
    it conflicts identically).
    """

    __slots__ = ("num_blocks", "_peer", "_live")

    #: One bank row stands for this many identical physical switches.
    ROW_MULTIPLICITY = FACE_LINKS

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 1:
            raise OCSError(f"need at least one block, got {num_blocks}")
        self.num_blocks = num_blocks
        #: -1 = free; else the peer port on the same switch.
        self._peer = np.full((NUM_OCS // FACE_LINKS, 2 * num_blocks), -1,
                             dtype=np.int32)
        self._live = 0

    @property
    def total_circuits(self) -> int:
        """Live chip circuits across all 48 switches."""
        return self._live

    def _layout(self, adjacencies: tuple[BlockAdjacency, ...]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # fromiter over the flattened triples is ~2x cheaper than
        # asarray on a nested tuple, and this conversion is the single
        # largest cost of a connect call.
        adj = np.fromiter(
            itertools.chain.from_iterable(adjacencies), dtype=np.int32,
            count=3 * len(adjacencies)).reshape(-1, 3)
        rows = adj[:, 0]                            # dimension
        plus_cols = adj[:, 1]                       # port(low, '+')
        minus_cols = self.num_blocks + adj[:, 2]    # port(high, '-')
        return rows, plus_cols, minus_cols

    def _conflict(self, rows: np.ndarray, cols: np.ndarray,
                  verb: str) -> OCSError:
        mask = self._peer[rows, cols] != -1 if verb == "connect" \
            else self._peer[rows, cols] == -1
        i = int(np.flatnonzero(mask)[0])
        dim = int(rows[i])
        port = int(cols[i])
        if verb == "connect":
            return OCSError(
                f"ocs-d{dim}: port {port} already connected "
                f"to {int(self._peer[dim, port])}")
        return OCSError(f"ocs-d{dim}: port {port} is not connected")

    def connect(self, adjacencies: tuple[BlockAdjacency, ...],
                layout: tuple[np.ndarray, np.ndarray, np.ndarray]
                | None = None) -> int:
        """Program the chip circuits of each adjacency; returns circuits.

        `layout` is an optional precomputed :meth:`_layout` result for
        the same adjacencies — holders that connect and later
        disconnect the same plan pay the conversion once.
        """
        if not len(adjacencies):
            return 0
        rows, plus_cols, minus_cols = layout if layout is not None \
            else self._layout(adjacencies)
        # The occupancy check below covers cross-plan conflicts but not
        # intra-call duplicates (a duplicate adjacency would write the
        # same cell twice in one fancy-index assignment, which numpy
        # resolves silently where the dicts raised) — so reject plans
        # reusing a switch-port up front.  '+' ports collide on equal
        # (dim, low), '-' ports on equal (dim, high); both sets are
        # tiny.
        if len({(d, low) for d, low, _ in adjacencies}) != \
                len(adjacencies) or \
                len({(d, high) for d, _, high in adjacencies}) != \
                len(adjacencies):
            raise OCSError("plan reuses a (switch, port) pair within "
                           "one programming pass")
        if (self._peer[rows, plus_cols] != -1).any():
            raise self._conflict(rows, plus_cols, "connect")
        if (self._peer[rows, minus_cols] != -1).any():
            raise self._conflict(rows, minus_cols, "connect")
        self._peer[rows, plus_cols] = minus_cols
        self._peer[rows, minus_cols] = plus_cols
        created = len(adjacencies) * FACE_LINKS
        self._live += created
        return created

    def disconnect(self, adjacencies: tuple[BlockAdjacency, ...],
                   layout: tuple[np.ndarray, np.ndarray, np.ndarray]
                   | None = None) -> int:
        """Tear down each adjacency's chip circuits; returns circuits."""
        if not len(adjacencies):
            return 0
        rows, plus_cols, _ = layout if layout is not None \
            else self._layout(adjacencies)
        peers = self._peer[rows, plus_cols]
        if (peers == -1).any():
            raise self._conflict(rows, plus_cols, "disconnect")
        self._peer[rows, plus_cols] = -1
        self._peer[rows, peers] = -1
        removed = len(adjacencies) * FACE_LINKS
        self._live -= removed
        return removed


class PodFabric:
    """One pod's optical fabric: live circuits per job, plan/apply/release."""

    def __init__(self, num_blocks: int) -> None:
        self.bank = SwitchBank(num_blocks)
        #: job id -> (adjacencies, precomputed bank layout); the layout
        #: is reused at release so teardown pays no conversion.
        self._held: dict[int, tuple[tuple[BlockAdjacency, ...],
                                    tuple[np.ndarray, np.ndarray,
                                          np.ndarray]]] = {}

    def holds(self, job_id: int) -> bool:
        """True while `job_id` has circuits on this fabric."""
        return job_id in self._held

    def plan(self, job_id: int, shape: SliceShape,
             blocks: list[int]) -> ReconfigPlan:
        """The rewiring needed to host `shape` on `blocks` (not applied).

        Sub-block shapes return an empty plan: their links are the
        block-internal electrical mesh, no mirrors move.
        """
        dims = canonical_shape(shape)
        if not is_block_multiple(dims):
            return ReconfigPlan(job_id=job_id, adjacencies=())
        adjacencies = block_torus_adjacencies(block_grid(dims), blocks)
        return ReconfigPlan(job_id=job_id, adjacencies=tuple(adjacencies))

    def apply(self, plan: ReconfigPlan) -> int:
        """Program the plan's circuits; returns chip circuits created."""
        if plan.job_id in self._held:
            raise OCSError(
                f"job {plan.job_id} already holds circuits on this pod")
        if not plan.adjacencies:
            return 0
        layout = self.bank._layout(plan.adjacencies)
        created = self.bank.connect(plan.adjacencies, layout)
        self._held[plan.job_id] = (plan.adjacencies, layout)
        return created

    def release(self, job_id: int) -> int:
        """Tear down every circuit `job_id` holds; returns circuits removed.

        Teardown happens off any job's critical path (the blocks are
        already idle), so it carries no latency charge.
        """
        held = self._held.pop(job_id, None)
        if held is None:
            return 0
        adjacencies, layout = held
        return self.bank.disconnect(adjacencies, layout)

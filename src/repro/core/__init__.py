"""The TPU v4 machine: chips, trays, blocks, the supercomputer, slices,
scheduling, and availability analysis (paper Section 2).
"""

from repro.core.chip import TPUv4Chip, CHIPS_PER_HOST, ICI_LINKS_PER_CHIP
from repro.core.tray import Tray, CHIPS_PER_TRAY, EXTERNAL_LINKS_PER_TRAY
from repro.core.block import Block, CHIPS_PER_BLOCK, HOSTS_PER_BLOCK
from repro.core.machine import TPUv4Supercomputer, MACHINE_BLOCKS
from repro.core.slice_ import Slice
from repro.core.slicing import (SliceShape, blocks_needed, canonical_shape,
                                classify_slice, legal_block_shapes,
                                parse_shape, slice_label)
from repro.core.scheduler import (PlacementPolicy, ScheduleOutcome,
                                  SliceScheduler)
from repro.core.availability import (GoodputResult, analytic_ocs_goodput,
                                     simulate_goodput)
from repro.core.deployment import (incremental_deployment,
                                   monolithic_deployment,
                                   sample_delivery_days)
from repro.core.checkpoint import (CheckpointParams, expected_overhead,
                                   goodput_fraction, optimal_interval,
                                   simulate_run, sweep_intervals)
from repro.core.security import (IsolationReport, airgap_audit,
                                 reachable_blocks)

__all__ = [
    "CheckpointParams", "optimal_interval", "expected_overhead",
    "goodput_fraction", "sweep_intervals", "simulate_run",
    "IsolationReport", "airgap_audit", "reachable_blocks",
    "TPUv4Chip", "CHIPS_PER_HOST", "ICI_LINKS_PER_CHIP",
    "Tray", "CHIPS_PER_TRAY", "EXTERNAL_LINKS_PER_TRAY",
    "Block", "CHIPS_PER_BLOCK", "HOSTS_PER_BLOCK",
    "TPUv4Supercomputer", "MACHINE_BLOCKS",
    "Slice",
    "SliceShape", "blocks_needed", "canonical_shape", "classify_slice",
    "legal_block_shapes", "parse_shape", "slice_label",
    "PlacementPolicy", "ScheduleOutcome", "SliceScheduler",
    "GoodputResult", "analytic_ocs_goodput", "simulate_goodput",
    "incremental_deployment", "monolithic_deployment",
    "sample_delivery_days",
]

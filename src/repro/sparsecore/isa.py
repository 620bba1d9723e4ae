"""CISC instruction-stream model of the SparseCore sequencer.

"Like TPU v1, the units execute CISC-like instructions and operate on
variable-length inputs, where the run-time of each instruction is
data-dependent" (Section 3.5).  Section 7.9 then attributes MLPerf
DLRM's poor scaling to "fixed overheads per batch such as HBM latency
and CISC instruction generation time on the SC core sequencer".

This module makes that overhead concrete: an embedding step compiles to
a per-table program of gather / dedup / exchange / combine / scatter
instructions.  Program length scales with *tables and features*, not
batch size, so when weak scaling shrinks the per-SparseCore batch the
constant instruction-issue time dominates — the scaling cliff of
Figure 14's DLRM entry and Section 7.9.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


class Opcode(enum.Enum):
    """Instruction classes of the SC cross-channel and tile units."""

    FETCH_IDS = "fetch_ids"          # read feature ids from activations
    SORT = "sort"                    # cross-channel sort unit
    UNIQUE = "unique"                # dedup unit
    PARTITION = "partition"          # split ids by owning chip
    GATHER = "gather"                # tile fetch units, HBM rows
    SEGMENT_SUM = "segment_sum"      # multivalent combiner
    EXCHANGE = "exchange"            # ICI all-to-all send/recv pair
    SCATTER_UPDATE = "scatter_update"  # flush units, backward pass
    BARRIER = "barrier"              # step-boundary synchronisation


# Issue cost of one instruction on the sequencer, in SC clock cycles.
# Generating a variable-length CISC descriptor (operand lists, DMA
# programs) costs far more than a RISC dispatch.
ISSUE_CYCLES: dict[Opcode, int] = {
    Opcode.FETCH_IDS: 40,
    Opcode.SORT: 60,
    Opcode.UNIQUE: 50,
    Opcode.PARTITION: 60,
    Opcode.GATHER: 80,
    Opcode.SEGMENT_SUM: 70,
    Opcode.EXCHANGE: 120,
    Opcode.SCATTER_UPDATE: 80,
    Opcode.BARRIER: 30,
}


@dataclass(frozen=True)
class Instruction:
    """One CISC instruction: opcode plus its variable-length operand count.

    Attributes:
        opcode: the unit the instruction drives.
        operands: data-dependent input length (ids, rows, or vectors);
            zero-operand instructions still pay full issue cost.
        table: which embedding table the instruction serves (-1: none).
    """

    opcode: Opcode
    operands: int = 0
    table: int = -1

    def __post_init__(self) -> None:
        if self.operands < 0:
            raise ConfigurationError(
                f"operand count must be >= 0, got {self.operands}")

    @property
    def issue_cycles(self) -> int:
        """Sequencer cycles to generate and dispatch this instruction."""
        return ISSUE_CYCLES[self.opcode]


@dataclass(frozen=True)
class EmbeddingStepShape:
    """What one training step asks of one SparseCore.

    Attributes:
        num_tables: embedding tables touched per step.
        features_per_table: categorical features mapped to each table.
        ids_per_feature: per-SC lookups per feature (batch * valency /
            SCs); may be fractional at extreme weak scaling.
        multivalent: whether combiners (segment sums) are needed.
        backward: include the scatter-update flush instructions.
    """

    num_tables: int
    features_per_table: float = 2.0
    ids_per_feature: float = 128.0
    multivalent: bool = True
    backward: bool = True

    def __post_init__(self) -> None:
        if self.num_tables < 1:
            raise ConfigurationError("need at least one table")
        if self.features_per_table <= 0 or self.ids_per_feature < 0:
            raise ConfigurationError("feature/id counts must be positive")


def generate_step_program(shape: EmbeddingStepShape) -> list[Instruction]:
    """Compile one embedding step into its SC instruction stream.

    Per table: fetch ids, sort, unique, partition, ICI exchange, gather,
    (optional) segment-sum combine, reverse exchange, and in the
    backward pass the gradient exchange and scatter-update — plus one
    step barrier.  The *count* of instructions is independent of the
    per-SC batch; only `operands` shrinks as batch shrinks.
    """
    ids = shape.ids_per_feature * shape.features_per_table
    rows = max(1, math.ceil(ids))
    program: list[Instruction] = []
    for table in range(shape.num_tables):
        program.append(Instruction(Opcode.FETCH_IDS, rows, table))
        program.append(Instruction(Opcode.SORT, rows, table))
        program.append(Instruction(Opcode.UNIQUE, rows, table))
        program.append(Instruction(Opcode.PARTITION, rows, table))
        program.append(Instruction(Opcode.EXCHANGE, rows, table))
        program.append(Instruction(Opcode.GATHER, rows, table))
        if shape.multivalent:
            program.append(Instruction(Opcode.SEGMENT_SUM, rows, table))
        program.append(Instruction(Opcode.EXCHANGE, rows, table))
        if shape.backward:
            program.append(Instruction(Opcode.EXCHANGE, rows, table))
            program.append(Instruction(Opcode.SCATTER_UPDATE, rows, table))
    program.append(Instruction(Opcode.BARRIER))
    return program


@dataclass(frozen=True)
class SequencerModel:
    """Times an instruction stream on the SC core sequencer.

    Attributes:
        clock_hz: SC clock (TPU v4: the chip's 1.05 GHz domain).
        issue_width: instructions generated per issue slot (the
            sequencer is scalar in TPU v4).
        hbm_latency: fixed first-access latency each gather pays
            regardless of batch (Section 7.9 names it explicitly).
    """

    clock_hz: float = 1.05e9
    issue_width: int = 1
    hbm_latency: float = 0.5e-6

    def __post_init__(self) -> None:
        if self.clock_hz <= 0 or self.issue_width < 1:
            raise ConfigurationError("invalid sequencer parameters")

    def issue_seconds(self, program: list[Instruction]) -> float:
        """Pure instruction-generation time (batch-size independent)."""
        cycles = sum(i.issue_cycles for i in program)
        return cycles / (self.issue_width * self.clock_hz)

    def fixed_overhead_seconds(self, program: list[Instruction]) -> float:
        """Issue time plus the per-gather HBM latency exposure."""
        gathers = sum(1 for i in program if i.opcode is Opcode.GATHER)
        return self.issue_seconds(program) + gathers * self.hbm_latency


TPUV4_SEQUENCER = SequencerModel()


def step_overhead_seconds(shape: EmbeddingStepShape,
                          sequencer: SequencerModel = TPUV4_SEQUENCER
                          ) -> float:
    """Convenience: fixed per-step overhead for one step shape."""
    return sequencer.fixed_overhead_seconds(generate_step_program(shape))

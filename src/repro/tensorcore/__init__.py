"""Dense-core memory model: one chip's VMEM, CMEM and HBM.

A TPU v4 chip has 32 MiB of VMEM (16 MiB per TensorCore) and a 128 MiB
CMEM scratchpad that its two TensorCores share in front of HBM (paper
Section 2.2, Table 4).  The Figure 13 CMEM study
(:mod:`repro.models.perfmodel`) prices dense memory traffic with it.
"""

from repro.tensorcore.memory import MemorySystem

__all__ = ["MemorySystem"]

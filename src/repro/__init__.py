"""repro: an open-source reproduction of the TPU v4 ISCA 2023 paper.

"TPU v4: An Optically Reconfigurable Supercomputer for Machine Learning
with Hardware Support for Embeddings" (Jouppi et al.).

The library models, in pure Python, the three systems the paper
introduces and everything they stand on:

* the **OCS-reconfigurable machine** — 4x4x4 electrically-cabled blocks
  joined by 48 Palomar optical circuit switches into arbitrary (twisted)
  3D-torus slices, with the scheduler and availability analysis that
  motivated it (:mod:`repro.core`, :mod:`repro.ocs`, :mod:`repro.topology`);
* the **ICI network** — flow-level simulation, collectives, analytic
  all-to-all, and the Infiniband fat-tree counterfactual
  (:mod:`repro.network`);
* the **SparseCore** — a functional distributed embedding engine plus the
  hardware timing model, CISC sequencer ISA, and load-imbalance studies
  (:mod:`repro.sparsecore`), and the TensorCore's VMEM/CMEM/HBM memory
  model (:mod:`repro.tensorcore`);
* the **graph-level simulator** — tensor/sharding IR, GSPMD propagation,
  and an event-driven per-chip scheduler with communication overlap
  (:mod:`repro.graph`), the same altitude as the paper's own internal
  evaluation tool (Section 7.3);
* the **evaluation** — chip catalog, rooflines, production workload
  models, parallelism search, MLPerf comparisons, and energy/carbon
  accounting (:mod:`repro.chips`, :mod:`repro.models`,
  :mod:`repro.parallelism`, :mod:`repro.mlperf`, :mod:`repro.energy`),
  wired into per-table/figure experiments (:mod:`repro.experiments`);
* the **fleet simulator** — a multi-pod cluster as one discrete-event
  run: Table 2 job streams, priorities and preemption, failure injection
  with checkpoint-restart, and OCS-vs-static goodput telemetry
  (:mod:`repro.fleet`).

Quickstart::

    from repro import TPUv4Supercomputer
    machine = TPUv4Supercomputer()
    slice_ = machine.create_slice((4, 4, 8), twisted=True)
    print(slice_.topology.describe())
"""

from repro.core.machine import TPUv4Supercomputer
from repro.core.slice_ import Slice
from repro.core.scheduler import PlacementPolicy, SliceScheduler
from repro.core.availability import simulate_goodput
from repro.ocs import OCSFabric, OpticalCircuitSwitch
from repro.topology import (Mesh3D, Torus3D, TwistedTorus3D, build_topology,
                            is_twistable)
from repro.network import FlowSim, alltoall_analysis
from repro.sparsecore import (DistributedEmbedding, EmbeddingTable,
                              SparseCore, synthetic_batch)
from repro.chips import A100, IPU_BOW, TPUV3, TPUV4
from repro.experiments import list_experiments, run as run_experiment
from repro.fleet import FleetConfig, FleetSimulator, compare_policies

__version__ = "1.0.0"

__all__ = [
    "TPUv4Supercomputer", "Slice", "PlacementPolicy", "SliceScheduler",
    "simulate_goodput",
    "OCSFabric", "OpticalCircuitSwitch",
    "Torus3D", "TwistedTorus3D", "Mesh3D", "build_topology", "is_twistable",
    "FlowSim", "alltoall_analysis",
    "EmbeddingTable", "DistributedEmbedding", "SparseCore", "synthetic_batch",
    "TPUV4", "TPUV3", "A100", "IPU_BOW",
    "list_experiments", "run_experiment",
    "FleetConfig", "FleetSimulator", "compare_policies",
    "__version__",
]

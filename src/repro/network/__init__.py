"""ICI network modelling: flow-level simulation, collectives, baselines.

The paper evaluates interconnect choices with "an internal event-driven
simulator that operates at the TensorFlow graph operation level"
(Section 7.3).  This package provides the same altitude of modelling:

* :mod:`repro.network.fairshare` / :mod:`repro.network.flowsim` — a
  max-min-fair fluid flow simulator driven by the event kernel;
* :mod:`repro.network.analytic` — closed-form all-to-all throughput from
  ECMP edge loads (used for Figure 6);
* :mod:`repro.network.collectives` — torus all-reduce time models;
* :mod:`repro.network.fattree` + :mod:`repro.network.hybrid` — the
  Infiniband fat-tree switch count and hybrid ICI/IB collectives
  (Section 7.3's what-if).
"""

from repro.network.alphabeta import AxisGeometry, CollectiveCostModel
from repro.network.analytic import AllToAllAnalysis, alltoall_analysis
from repro.network.collectives import allreduce_time_torus
from repro.network.fairshare import max_min_fair_rates
from repro.network.fattree import ib_switch_count
from repro.network.flowsim import Flow, FlowSim
from repro.network.hybrid import (HybridNetworkParams, ICIParams, IBParams,
                                  allreduce_time_hybrid,
                                  alltoall_time_hybrid, ib_vs_ocs_slowdowns)
from repro.network.simcollectives import (SimulatedCollective,
                                          simulate_alltoall,
                                          simulate_ring_allreduce)

__all__ = [
    "AxisGeometry", "CollectiveCostModel",
    "AllToAllAnalysis", "alltoall_analysis",
    "allreduce_time_torus",
    "max_min_fair_rates",
    "ib_switch_count",
    "Flow", "FlowSim",
    "HybridNetworkParams", "ICIParams", "IBParams",
    "allreduce_time_hybrid", "alltoall_time_hybrid", "ib_vs_ocs_slowdowns",
    "SimulatedCollective", "simulate_ring_allreduce", "simulate_alltoall",
]

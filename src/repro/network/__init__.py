"""ICI network modelling: flow-level simulation, collectives, baselines.

The paper evaluates interconnect choices with "an internal event-driven
simulator that operates at the TensorFlow graph operation level"
(Section 7.3).  This package provides the same altitude of modelling:

* :mod:`repro.network.fairshare` / :mod:`repro.network.flowsim` — a
  max-min-fair fluid flow simulator driven by the event kernel;
* :mod:`repro.network.analytic` — exact all-to-all throughput from
  ECMP edge loads (Figure 6, and every all-to-all price);
* :mod:`repro.network.collectives` — the one price of a collective on
  a slice axis (:class:`AxisGeometry`): split-schedule all-reduce and
  all-gather, and the exact ECMP all-to-all;
* :mod:`repro.network.fattree` + :mod:`repro.network.hybrid` — the
  Infiniband fat-tree switch count and hybrid ICI/IB collectives
  (Section 7.3's what-if).
"""

from repro.network.analytic import AllToAllAnalysis, alltoall_analysis
from repro.network.collectives import AxisGeometry
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
    "AxisGeometry",
    "AllToAllAnalysis", "alltoall_analysis",
    "max_min_fair_rates",
    "ib_switch_count",
    "Flow", "FlowSim",
    "HybridNetworkParams", "ICIParams", "IBParams",
    "allreduce_time_hybrid", "alltoall_time_hybrid", "ib_vs_ocs_slowdowns",
    "SimulatedCollective", "simulate_ring_allreduce", "simulate_alltoall",
]

"""Workload models: production apps, DLRM history, workload mixes, scaling.

Google's production models are proprietary; what the paper publishes is
their *resource shape* (Table 1 mixes, Figure 17 growth, per-app speedups).
This package encodes those shapes as parameterized cost models — the
calibration constants are documented inline and audited by the benchmarks.
"""

from repro.models.profiles import AppProfile, PRODUCTION_APPS
from repro.models.perfmodel import (ChipGeneration, TPUV3_GEN, TPUV4_GEN,
                                    TPUV4_GEN_NO_CMEM, speedup_v4_over_v3)
from repro.models.dlrm import (DLRM0_2022, DLRMConfig, SystemKind,
                               dlrm_relative_performance, dlrm_step_time,
                               dlrm0_version_history)
from repro.models.workload import (TABLE1_MIX, TABLE2_SLICES, SliceUsage,
                                   table1_rows, table2_rows,
                                   topology_distribution_stats)
from repro.models.transformer import GPT3_CONFIG, TransformerConfig
from repro.models.scaling import (ScalingCurve, scaling_curve,
                                  production_scaling_curves)
from repro.models.serving import (ServingEstimate, chips_for_qps,
                                  serving_estimate)

__all__ = [
    "AppProfile", "PRODUCTION_APPS",
    "ChipGeneration", "TPUV3_GEN", "TPUV4_GEN", "TPUV4_GEN_NO_CMEM",
    "speedup_v4_over_v3",
    "DLRMConfig", "DLRM0_2022", "SystemKind", "dlrm_step_time",
    "dlrm_relative_performance", "dlrm0_version_history",
    "TABLE1_MIX", "TABLE2_SLICES", "SliceUsage",
    "table1_rows", "table2_rows", "topology_distribution_stats",
    "TransformerConfig", "GPT3_CONFIG",
    "ScalingCurve", "scaling_curve", "production_scaling_curves",
    "ServingEstimate", "serving_estimate", "chips_for_qps",
]

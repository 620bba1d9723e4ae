"""Production workload mixes (Tables 1-2) and Section 2.9 statistics.

The mixes are published measurements (the paper's own input data); we
encode them and regenerate the tables plus the derived topology-
distribution statistics, cross-checked against the slicing rules in
:mod:`repro.core.slicing`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.slicing import classify_slice, parse_shape
from repro.errors import ConfigurationError


# Table 1: % of TPUs used by DNN model type across four fleet snapshots.
TABLE1_MIX: dict[str, dict[str, float]] = {
    "TPU v1 (7/2016, inference)": {
        "MLP/DLRM": 0.61, "RNN": 0.29, "CNN": 0.05, "Transformer": 0.0,
        "BERT": 0.0, "LLM": 0.0,
    },
    "TPU v3 (4/2019, training+inference)": {
        "MLP/DLRM": 0.27, "RNN": 0.21, "CNN": 0.24, "Transformer": 0.21,
        "BERT": 0.0, "LLM": 0.0,
    },
    "TPU v4 lite (2/2020, inference)": {
        "MLP/DLRM": 0.25, "RNN": 0.29, "CNN": 0.18, "Transformer": 0.28,
        "BERT": 0.28, "LLM": 0.0,
    },
    "TPU v4 (10/2022, training)": {
        "MLP/DLRM": 0.24, "RNN": 0.02, "CNN": 0.12, "Transformer": 0.57,
        "BERT": 0.26, "LLM": 0.31,
    },
}


@dataclass(frozen=True)
class SliceUsage:
    """One Table 2 row: a slice label and its share of usage."""

    label: str
    share: float


# Table 2: slice-shape popularity for a day in November 2022 (shares >= 0.1%).
TABLE2_SLICES: list[SliceUsage] = [
    SliceUsage("1x1x1", 0.021), SliceUsage("1x1x2", 0.004),
    SliceUsage("1x2x2", 0.067), SliceUsage("2x2x2", 0.047),
    SliceUsage("2x2x4", 0.064), SliceUsage("2x4x4", 0.089),
    SliceUsage("4x4x4", 0.139),
    SliceUsage("4x4x8_T", 0.160), SliceUsage("4x4x8_NT", 0.015),
    SliceUsage("4x4x12", 0.007),
    SliceUsage("4x8x8_T", 0.092), SliceUsage("4x8x8_NT", 0.015),
    SliceUsage("4x4x16", 0.010), SliceUsage("4x8x12", 0.001),
    SliceUsage("8x8x8", 0.096), SliceUsage("4x8x16", 0.017),
    SliceUsage("4x4x32", 0.006),
    SliceUsage("8x8x12", 0.007),
    SliceUsage("8x8x16_T", 0.018), SliceUsage("8x8x16_NT", 0.014),
    SliceUsage("4x16x16", 0.003), SliceUsage("4x4x64", 0.001),
    SliceUsage("4x8x32", 0.001),
    SliceUsage("8x12x16", 0.001), SliceUsage("4x4x96", 0.001),
    SliceUsage("8x8x24", 0.001),
    SliceUsage("8x16x16_T", 0.014), SliceUsage("8x16x16_NT", 0.003),
    SliceUsage("12x16x16", 0.057), SliceUsage("4x4x192", 0.004),
]


def table1_rows() -> list[tuple[str, dict[str, float]]]:
    """Table 1 as (snapshot, {model_type: share}) rows."""
    return list(TABLE1_MIX.items())


def table2_rows() -> list[tuple[str, float, str]]:
    """Table 2 as (label, share, category) rows, categories re-derived."""
    rows = []
    for usage in TABLE2_SLICES:
        shape, twisted = parse_shape(usage.label)
        info = classify_slice(shape, twisted=twisted)
        rows.append((usage.label, usage.share, info.category))
    return rows


def transformer_share_2022() -> float:
    """Table 1's headline: Transformers are 57% of 2022 training."""
    return TABLE1_MIX["TPU v4 (10/2022, training)"]["Transformer"]


def topology_distribution_stats() -> dict[str, float]:
    """Section 2.9's derived statistics from the Table 2 distribution.

    Returns shares of: sub-block slices, twistable slices, twisted slices,
    and twisted-among-twistable / twisted-among-block-sized.
    """
    total = sum(u.share for u in TABLE2_SLICES)
    if total <= 0:
        raise ConfigurationError("empty slice distribution")
    sub_block = twistable = twisted = block_sized = 0.0
    for usage in TABLE2_SLICES:
        shape, is_twisted = parse_shape(usage.label)
        info = classify_slice(shape, twisted=is_twisted)
        if info.sub_block:
            sub_block += usage.share
        else:
            block_sized += usage.share
            if info.twistable:
                twistable += usage.share
                if is_twisted:
                    twisted += usage.share
    return {
        "sub_block": sub_block / total,
        "block_sized": block_sized / total,
        "twistable": twistable / total,
        "twisted": twisted / total,
        "twisted_among_twistable": twisted / twistable if twistable else 0.0,
        "twistable_among_block_sized":
            twistable / block_sized if block_sized else 0.0,
        "twisted_among_block_sized":
            twisted / block_sized if block_sized else 0.0,
    }

"""Chip catalog and first-order performance models (Tables 4-5, Fig. 16)."""

from repro.chips.specs import (A100, ChipSpec, IPU_BOW, TPUV3, TPUV4,
                               TPUV4LITE)
from repro.chips.roofline import (MODEL_INTENSITIES, RooflinePoint,
                                  attainable_flops, ridge_point, roofline_curve)

__all__ = [
    "ChipSpec", "TPUV3", "TPUV4", "TPUV4LITE", "A100", "IPU_BOW",
    "attainable_flops", "ridge_point", "roofline_curve", "RooflinePoint",
    "MODEL_INTENSITIES",
]

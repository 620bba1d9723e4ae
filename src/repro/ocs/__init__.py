"""Optical circuit switching substrate (paper Section 2).

Models the Google Palomar OCS (3D MEMS mirrors, 136 ports, circulators for
bidirectional fibers), the 48-switch fabric that joins 64 electrically-
cabled 4x4x4 blocks into a 4096-chip machine (Figure 1), slice
realization/reconfiguration, and the optics cost/power accounting
(Section 2.10).
"""

from repro.ocs.switch import OpticalCircuitSwitch, PALOMAR_PORTS, PALOMAR_SPARE_PORTS
from repro.ocs.fabric import OCSFabric, FACE_LINKS, NUM_OCS
from repro.ocs.reconfigure import SliceWiring, realize_slice, release_slice
from repro.ocs.optics_cost import (OpticsBill, OpticsCostModel,
                                   default_cost_model, optics_bill)
from repro.ocs.wavelength import (WDMConfig, lambdas_for_target,
                                  upgrade_study)

__all__ = [
    "WDMConfig",
    "lambdas_for_target",
    "upgrade_study",
    "OpticalCircuitSwitch",
    "PALOMAR_PORTS",
    "PALOMAR_SPARE_PORTS",
    "OCSFabric",
    "FACE_LINKS",
    "NUM_OCS",
    "SliceWiring",
    "realize_slice",
    "release_slice",
    "OpticsBill",
    "OpticsCostModel",
    "default_cost_model",
    "optics_bill",
]

"""Tests for the optics cost/power accounting (Section 2.10)."""

import pytest

from repro.ocs import OCSFabric, OpticsCostModel, default_cost_model, optics_bill


class TestOpticsBill:
    def test_paper_claims_hold_for_defaults(self):
        bill = optics_bill(OCSFabric())
        assert bill.num_chips == 4096
        assert bill.cost_fraction < 0.05   # "<5% of system cost"
        assert bill.power_fraction < 0.03  # "<3% of system power"

    def test_component_counts(self):
        bill = optics_bill(OCSFabric())
        assert bill.switches == 48
        assert bill.fibers == 6144
        assert bill.transceivers == 6144

    def test_fractions_bounded(self):
        bill = optics_bill(OCSFabric())
        assert 0 < bill.cost_fraction < 1
        assert 0 < bill.power_fraction < 1

    def test_expensive_optics_fail_claim(self):
        pricey = OpticsCostModel(ocs_cost=2_000_000.0,
                                 transceiver_cost=5_000.0)
        bill = optics_bill(OCSFabric(), model=pricey)
        assert bill.cost_fraction >= 0.05 or bill.power_fraction >= 0.03

    def test_cost_scales_with_blocks(self):
        small = optics_bill(OCSFabric(num_blocks=8))
        large = optics_bill(OCSFabric(num_blocks=64))
        assert large.optics_cost > small.optics_cost
        assert small.num_chips == 512

    def test_default_model_is_documented_instance(self):
        model = default_cost_model()
        assert model.ocs_cost > 0
        assert model.system_cost_per_chip > model.transceiver_cost

"""Tests for repro.core.security: airgapped slice isolation (Section 2.6)."""

from repro.core.security import (airgap_audit, optical_adjacency,
                                 reachable_blocks)
from repro.ocs.fabric import OCSFabric
from repro.ocs.reconfigure import (SliceWiring, default_placement,
                                   realize_slice)
from repro.topology.builder import build_topology


def two_tenant_fabric():
    """One machine, two customers: 8x8x8 on blocks 0-7, 4x4x8 on 8-9."""
    fabric = OCSFabric()
    wiring_a = realize_slice(fabric, (8, 8, 8))
    placement_b = {coord: block + 8
                   for coord, block in default_placement((4, 4, 8)).items()}
    wiring_b = realize_slice(fabric, (4, 4, 8), placement=placement_b)
    return fabric, {"cust-a": wiring_a, "cust-b": wiring_b}


class TestCleanAudit:
    def test_two_tenants_are_isolated(self):
        fabric, wirings = two_tenant_fabric()
        report = airgap_audit(fabric, wirings)
        assert report.isolated
        assert report.circuits_audited == sum(
            len(w.circuits) for w in wirings.values())
        assert "airgap holds" in report.summary()

    def test_single_tenant_trivially_isolated(self):
        fabric = OCSFabric()
        wiring = realize_slice(fabric, (8, 8, 8))
        assert airgap_audit(fabric, {"only": wiring}).isolated

    def test_reachability_stays_inside_slice(self):
        fabric, wirings = two_tenant_fabric()
        blocks_a = set(wirings["cust-a"].placement.values())
        reach = reachable_blocks(fabric, 0)
        assert reach <= blocks_a


class TestViolations:
    def test_shared_block_detected(self):
        fabric = OCSFabric()
        wiring_a = realize_slice(fabric, (8, 8, 8))
        # A fake record claiming block 7, which cust-a also owns.
        fake = SliceWiring(shape=(4, 4, 4), twisted=False,
                           placement={(0, 0, 0): 7},
                           topology=build_topology((4, 4, 4)))
        report = airgap_audit(fabric, {"cust-a": wiring_a, "cust-b": fake})
        kinds = {v.kind for v in report.violations}
        assert "shared-block" in kinds

    @staticmethod
    def rewire_across_tenants(fabric):
        """Free one port on each side of the boundary, then join them.

        Mimics a buggy/malicious fabric controller: tear down one
        circuit of each tenant on OCS d2/f0 and cross-connect the
        freed fibers (block 8 of cust-b to block 7 of cust-a).
        """
        switch = fabric.switch_for(2, 0)
        switch.disconnect(fabric.port_for(8, "+"))
        switch.disconnect(fabric.port_for(7, "-"))
        switch.connect(fabric.port_for(8, "+"), fabric.port_for(7, "-"))

    def test_cross_slice_circuit_detected(self):
        fabric, wirings = two_tenant_fabric()
        self.rewire_across_tenants(fabric)
        report = airgap_audit(fabric, wirings)
        assert not report.isolated
        kinds = {v.kind for v in report.violations}
        assert "cross-circuit" in kinds
        assert "AIRGAP VIOLATED" in report.summary()

    def test_cross_circuit_also_breaks_reachability(self):
        fabric, wirings = two_tenant_fabric()
        self.rewire_across_tenants(fabric)
        report = airgap_audit(fabric, wirings)
        kinds = {v.kind for v in report.violations}
        assert "reachability" in kinds

    def test_foreign_circuit_detected(self):
        fabric, wirings = two_tenant_fabric()
        # A circuit between blocks nobody audited (20 <-> 21).
        fabric.connect_blocks(0, 0, 20, 21)
        report = airgap_audit(fabric, wirings)
        assert not report.isolated
        kinds = {v.kind for v in report.violations}
        assert "foreign-circuit" in kinds


class TestOpticalAdjacency:
    def test_adjacency_is_symmetric(self):
        fabric, _ = two_tenant_fabric()
        adjacency = optical_adjacency(fabric)
        for block, neighbors in adjacency.items():
            for neighbor in neighbors:
                assert block in adjacency[neighbor]

    def test_reachable_includes_start(self):
        fabric = OCSFabric()
        assert reachable_blocks(fabric, 5) == {5}

    def test_empty_fabric_has_no_adjacency(self):
        assert optical_adjacency(OCSFabric()) == {}

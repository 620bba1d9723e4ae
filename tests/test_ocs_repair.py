"""Tests for spare-port repair (Section 2.2's 8 spares)."""

import pytest

from repro.errors import OCSError
from repro.ocs.repair import RepairableSwitch


@pytest.fixture
def loaded_switch():
    repairable = RepairableSwitch()
    for i in range(64):
        repairable.switch.connect(i, 64 + i)
    return repairable


class TestRepair:
    def test_fail_moves_circuit_to_spare(self, loaded_switch):
        spare = loaded_switch.fail_port(0)
        assert spare >= 128  # spares live above the usable range
        assert loaded_switch.switch.peer_of(64) == spare
        assert loaded_switch.circuit_count() == 64
        assert loaded_switch.spares_available == 7

    def test_repair_returns_port_to_service(self, loaded_switch):
        loaded_switch.fail_port(0)
        loaded_switch.repair_port(0)
        assert loaded_switch.switch.peer_of(0) == 64
        assert loaded_switch.spares_available == 8

    def test_other_circuits_untouched(self, loaded_switch):
        loaded_switch.fail_port(5)
        for i in range(64):
            if i == 5:
                continue
            assert loaded_switch.switch.peer_of(i) == 64 + i

    def test_eight_concurrent_repairs_max(self, loaded_switch):
        for port in range(8):
            loaded_switch.fail_port(port)
        assert loaded_switch.spares_available == 0
        with pytest.raises(OCSError):
            loaded_switch.fail_port(9)

    def test_fail_unconnected_port(self):
        repairable = RepairableSwitch()
        with pytest.raises(OCSError):
            repairable.fail_port(0)

    def test_repair_untested_port(self, loaded_switch):
        with pytest.raises(OCSError):
            loaded_switch.repair_port(3)

    def test_repair_cycle_is_idempotent(self, loaded_switch):
        for _ in range(3):
            loaded_switch.fail_port(7)
            loaded_switch.repair_port(7)
        assert loaded_switch.switch.peer_of(7) == 71
        assert loaded_switch.spares_available == 8

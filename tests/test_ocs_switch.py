"""Tests for the Palomar OCS model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import OCSError
from repro.ocs import (OpticalCircuitSwitch, PALOMAR_PORTS,
                       PALOMAR_SPARE_PORTS)


class TestPalomarDefaults:
    def test_port_counts(self):
        switch = OpticalCircuitSwitch()
        assert switch.num_ports == PALOMAR_PORTS == 136
        assert switch.spare_ports == PALOMAR_SPARE_PORTS == 8
        assert switch.usable_ports == 128

    def test_switch_time_is_milliseconds(self):
        assert 1e-3 <= OpticalCircuitSwitch().switch_time <= 100e-3


class TestConnections:
    def test_connect_and_peer(self):
        switch = OpticalCircuitSwitch()
        switch.connect(0, 64)
        assert switch.peer_of(0) == 64
        assert switch.peer_of(64) == 0
        assert switch.num_circuits == 1

    def test_double_connect_rejected(self):
        switch = OpticalCircuitSwitch()
        switch.connect(0, 64)
        with pytest.raises(OCSError):
            switch.connect(0, 65)
        with pytest.raises(OCSError):
            switch.connect(65, 64)

    def test_self_connect_rejected(self):
        with pytest.raises(OCSError):
            OpticalCircuitSwitch().connect(5, 5)

    def test_spare_ports_unusable(self):
        switch = OpticalCircuitSwitch()
        with pytest.raises(OCSError):
            switch.connect(128, 0)  # 128..135 are spares

    def test_disconnect_frees_both_ends(self):
        switch = OpticalCircuitSwitch()
        switch.connect(1, 2)
        switch.disconnect(2)
        assert switch.is_free(1) and switch.is_free(2)
        with pytest.raises(OCSError):
            switch.disconnect(1)

    def test_reconfiguration_counter(self):
        switch = OpticalCircuitSwitch()
        switch.connect(0, 1)
        switch.disconnect(0)
        switch.connect(2, 3)
        switch.clear()
        assert switch.reconfigurations == 4
        switch.clear()  # empty clear is free
        assert switch.reconfigurations == 4

    def test_circuits_listing_sorted(self):
        switch = OpticalCircuitSwitch()
        switch.connect(9, 3)
        switch.connect(0, 7)
        assert switch.circuits() == [(0, 7), (3, 9)]

    def test_full_matching_capacity(self):
        switch = OpticalCircuitSwitch()
        for i in range(64):
            switch.connect(i, 64 + i)
        assert switch.num_circuits == 64
        with pytest.raises(OCSError):
            switch.connect(0, 127)

    @given(st.sets(st.integers(0, 127), min_size=2, max_size=128).map(sorted))
    def test_matching_is_involution(self, ports):
        switch = OpticalCircuitSwitch()
        pairs = list(zip(ports[::2], ports[1::2]))
        for a, b in pairs:
            switch.connect(a, b)
        for a, b in pairs:
            assert switch.peer_of(a) == b and switch.peer_of(b) == a

    def test_invalid_constructor(self):
        with pytest.raises(OCSError):
            OpticalCircuitSwitch(num_ports=1)
        with pytest.raises(OCSError):
            OpticalCircuitSwitch(num_ports=8, spare_ports=8)

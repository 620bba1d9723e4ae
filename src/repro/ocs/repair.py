"""Spare-port repair and link-failure recovery on the OCS.

The Palomar keeps 8 spare ports "for link testing and repairs"
(Section 2.2), and the OCS "acts like a plugboard to skip failed units".
This module models both maintenance flows:

* a block's fiber or transceiver fails -> its circuit moves to a spare
  port pair without disturbing the rest of the switch;
* a whole block fails -> the scheduler (not this module) simply picks a
  different block; here we verify the switch-level bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OCSError
from repro.ocs.switch import OpticalCircuitSwitch


@dataclass
class RepairableSwitch:
    """An OCS plus spare-port management.

    Spare ports live above `usable_ports`; a repair remaps one side of a
    live circuit onto a spare, freeing the suspect port for testing.
    """

    switch: OpticalCircuitSwitch = field(
        default_factory=OpticalCircuitSwitch)

    def __post_init__(self) -> None:
        self._spares_free = list(range(
            self.switch.usable_ports,
            self.switch.usable_ports + self.switch.spare_ports))
        self._under_test: dict[int, int] = {}  # failed port -> spare used

    @property
    def spares_available(self) -> int:
        """Spare ports still unassigned."""
        return len(self._spares_free)

    def fail_port(self, port: int) -> int:
        """Move `port`'s circuit onto a spare; returns the spare used.

        The peer keeps its port: one mirror move, milliseconds, no other
        circuit disturbed.
        """
        if not self._spares_free:
            raise OCSError(f"{self.switch.name}: no spare ports left")
        peer = self.switch.peer_of(port)
        if peer is None:
            raise OCSError(f"port {port} has no circuit to repair")
        spare = self._spares_free.pop(0)
        self.switch.disconnect(port)
        # Spares are above the usable range; bypass the range check the
        # way the management plane does, by direct mirror programming.
        self.switch._peer[spare] = peer
        self.switch._peer[peer] = spare
        self.switch.reconfigurations += 1
        self._under_test[port] = spare
        return spare

    def repair_port(self, port: int) -> None:
        """Return a tested-good port to service and free its spare."""
        if port not in self._under_test:
            raise OCSError(f"port {port} is not under test")
        spare = self._under_test.pop(port)
        peer = self.switch._peer.pop(spare, None)
        if peer is not None:
            del self.switch._peer[peer]
            self.switch.connect(port, peer)
        self._spares_free.append(spare)
        self._spares_free.sort()

    def circuit_count(self) -> int:
        """Live circuits including ones running on spares."""
        return len(self.switch._peer) // 2

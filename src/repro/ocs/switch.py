"""The Palomar optical circuit switch.

A MEMS-mirror OCS realizes a partial matching over its ports: light entering
one port is reflected out of exactly one other port, and the mapping is
symmetric (the paper: "all inputs can be connected to all outputs, but the
connections must be 1:1").  Because circulators run both directions through
one fiber, one connected port pair carries a full bidirectional link.

The production Palomar switch is 136x136: 128 usable ports plus 8 spares
kept for link testing and repairs (paper Section 2.2).  Reconfiguration is
a mirror move, taking milliseconds.
"""

from __future__ import annotations

from repro.errors import OCSError

PALOMAR_PORTS = 136
PALOMAR_SPARE_PORTS = 8
SWITCH_TIME_SECONDS = 10e-3  # "switch in milliseconds"


class OpticalCircuitSwitch:
    """A single OCS: a reconfigurable 1:1 matching over optical ports."""

    def __init__(self, name: str = "ocs",
                 num_ports: int = PALOMAR_PORTS,
                 spare_ports: int = PALOMAR_SPARE_PORTS,
                 switch_time: float = SWITCH_TIME_SECONDS) -> None:
        if num_ports < 2:
            raise OCSError(f"an OCS needs at least 2 ports, got {num_ports}")
        if not 0 <= spare_ports < num_ports:
            raise OCSError(
                f"spare ports {spare_ports} must fit in {num_ports} ports")
        self.name = name
        self.num_ports = num_ports
        self.spare_ports = spare_ports
        self.switch_time = switch_time
        self._peer: dict[int, int] = {}
        self.reconfigurations = 0

    # -- port bookkeeping ------------------------------------------------------

    @property
    def usable_ports(self) -> int:
        """Ports available for production circuits (spares excluded)."""
        return self.num_ports - self.spare_ports

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.usable_ports:
            raise OCSError(
                f"{self.name}: port {port} outside usable range "
                f"0..{self.usable_ports - 1}")

    def peer_of(self, port: int) -> int | None:
        """The port this port is mirrored to, or None."""
        self._check_port(port)
        return self._peer.get(port)

    @property
    def num_circuits(self) -> int:
        """Count of live port pairs."""
        return len(self._peer) // 2

    # -- reconfiguration --------------------------------------------------------

    def connect(self, port_a: int, port_b: int) -> None:
        """Create a circuit between two free ports (one mirror move)."""
        self._check_port(port_a)
        self._check_port(port_b)
        if port_a == port_b:
            raise OCSError(f"{self.name}: cannot connect port {port_a} to itself")
        for port in (port_a, port_b):
            if port in self._peer:
                raise OCSError(
                    f"{self.name}: port {port} already connected to "
                    f"{self._peer[port]}")
        self._peer[port_a] = port_b
        self._peer[port_b] = port_a
        self.reconfigurations += 1

    def disconnect(self, port: int) -> None:
        """Tear down the circuit through `port` (and its peer)."""
        self._check_port(port)
        peer = self._peer.pop(port, None)
        if peer is None:
            raise OCSError(f"{self.name}: port {port} is not connected")
        del self._peer[peer]
        self.reconfigurations += 1

    def clear(self) -> None:
        """Drop every circuit (counts as one bulk reconfiguration)."""
        if self._peer:
            self.reconfigurations += 1
        self._peer.clear()

    def circuits(self) -> list[tuple[int, int]]:
        """Live circuits as sorted (low_port, high_port) pairs."""
        return sorted({(min(a, b), max(a, b)) for a, b in self._peer.items()})

    def __repr__(self) -> str:
        return (f"<OCS {self.name}: {self.num_circuits} circuits on "
                f"{self.usable_ports}+{self.spare_ports} ports>")

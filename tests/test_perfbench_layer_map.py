"""Every entry point perfbench's layer clock wraps still resolves.

``perfbench/layers.py`` patches functions and methods by name, so a rename
under ``src/`` silently drops a layer from the benchmark's time split.  The
benchmark then fails its own run; this test makes the same rename fail the
tier-1 suite.  It drives one OCS fleet run and one flow-level all-to-all
inside a traced session, which reaches every patch and every per-instance
shadow the clock installs.
"""

import sys
from pathlib import Path

from repro.core.scheduler import PlacementPolicy
from repro.fleet import FleetSimulator
from repro.fleet.presets import preset_config
from repro.network import simulate_alltoall
from repro.topology import Torus3D

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layers import LayerClock  # noqa: E402


def test_layer_map_resolves_every_wrapped_entry_point():
    clock = LayerClock()
    with clock.session():
        FleetSimulator(preset_config("tiny"), seed=0).run(
            PlacementPolicy.OCS, profiler=clock)
        simulate_alltoall(Torus3D((2, 2, 2)), 1024.0, 50e9)
    assert clock.missing == set()
    assert clock.harvest()["fleet.machine.release.calls"] > 0

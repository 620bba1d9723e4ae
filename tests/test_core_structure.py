"""Tests for chips, trays, blocks, and the machine's physical structure."""

import pytest

from repro.core import (Block, CHIPS_PER_BLOCK, CHIPS_PER_HOST,
                        CHIPS_PER_TRAY, EXTERNAL_LINKS_PER_TRAY,
                        HOSTS_PER_BLOCK, ICI_LINKS_PER_CHIP, MACHINE_BLOCKS,
                        TPUv4Supercomputer, Tray)
from repro.core.block import FACE_LINKS_PER_BLOCK, INTERNAL_MESH_LINKS
from repro.errors import SchedulingError


class TestPaperConstants:
    def test_chip_counts(self):
        assert CHIPS_PER_HOST == 4       # Table 4: chips per CPU host
        assert ICI_LINKS_PER_CHIP == 6   # Table 4: 6 links @ 50 GB/s
        assert CHIPS_PER_TRAY == 4       # Figure 2

    def test_tray_osfp_ports(self):
        # Figure 2: "16 bottom-side OSFP connectors for inter-tray ICI".
        assert EXTERNAL_LINKS_PER_TRAY == 16

    def test_block_counts(self):
        assert CHIPS_PER_BLOCK == 64
        assert HOSTS_PER_BLOCK == 16     # "16 tray-host pairs" per rack
        assert FACE_LINKS_PER_BLOCK == 96
        assert INTERNAL_MESH_LINKS == 144

    def test_machine_scale(self):
        assert MACHINE_BLOCKS == 64


class TestTray:
    def test_wrong_chip_count_rejected(self):
        from repro.core.chip import TPUv4Chip
        chip = TPUv4Chip(chip_id=0, block_id=0, host_id=0, coords=(0, 0, 0))
        with pytest.raises(ValueError):
            Tray(tray_id=0, host_id=0, chips=[chip])


class TestBlock:
    def test_build_populates(self):
        block = Block.build(3)
        assert len(block.chips) == 64
        assert len(block.trays) == 16
        assert all(len(t.chips) == 4 for t in block.trays)
        assert block.is_healthy

    def test_chip_ids_offset_by_block(self):
        block = Block.build(2)
        assert block.chips[0].chip_id == 128
        assert block.chips[0].host_id == 32

    def test_chip_coords_cover_block(self):
        block = Block.build(0)
        coords = {chip.coords for chip in block.chips}
        assert len(coords) == 64
        assert all(0 <= c < 4 for coord in coords for c in coord)

    def test_host_failure_breaks_block(self):
        block = Block.build(0)
        block.fail_host(5)
        assert not block.is_healthy
        assert not block.available
        block.host_up[5] = True
        assert block.is_healthy

    def test_in_use_blocks_unavailable(self):
        block = Block.build(0)
        block.in_use = True
        assert block.is_healthy and not block.available

    def test_chip_properties(self):
        chip = Block.build(0).chips[0]
        assert chip.ici_links == 6


class TestMachine:
    def test_full_machine_inventory(self):
        machine = TPUv4Supercomputer()
        assert machine.num_chips == 4096
        assert machine.num_hosts == 1024
        assert machine.num_blocks == 64
        assert len(machine.fabric.switches) == 48



class TestMachineSlices:
    def test_create_and_release(self):
        machine = TPUv4Supercomputer()
        sl = machine.create_slice((4, 4, 8))
        assert sl.num_chips == 128
        assert machine.utilization() == pytest.approx(128 / 4096)
        assert machine.fabric.total_circuits() == sl.wiring.num_optical_links
        machine.release(sl)
        assert machine.utilization() == 0.0
        assert machine.fabric.total_circuits() == 0

    def test_blocks_marked_busy(self):
        machine = TPUv4Supercomputer()
        sl = machine.create_slice((4, 4, 4))
        assert machine.blocks[sl.block_ids[0]].in_use
        assert len(machine.available_blocks()) == 63

    def test_avoids_unhealthy_blocks(self):
        machine = TPUv4Supercomputer()
        machine.blocks[0].fail_host(0)
        sl = machine.create_slice((4, 4, 4))
        assert 0 not in sl.block_ids

    def test_explicit_blocks_anywhere(self):
        machine = TPUv4Supercomputer()
        sl = machine.create_slice((4, 4, 8), block_ids=[60, 7])
        assert sorted(sl.block_ids) == [7, 60]

    def test_busy_block_rejected(self):
        machine = TPUv4Supercomputer()
        machine.create_slice((4, 4, 4), block_ids=[5])
        with pytest.raises(SchedulingError):
            machine.create_slice((4, 4, 4), block_ids=[5])

    def test_insufficient_blocks(self):
        machine = TPUv4Supercomputer(num_blocks=1)
        with pytest.raises(SchedulingError):
            machine.create_slice((4, 4, 8))

    def test_twisted_slice(self):
        machine = TPUv4Supercomputer()
        sl = machine.create_slice((4, 4, 8), twisted=True)
        assert sl.topology.kind == "twisted-torus"
        assert sl.label == "4x4x8_T"

    def test_slice_names_unique(self):
        machine = TPUv4Supercomputer()
        machine.create_slice((4, 4, 4), name="train")
        with pytest.raises(SchedulingError):
            machine.create_slice((4, 4, 4), name="train")

    def test_release_unknown(self):
        machine = TPUv4Supercomputer()
        with pytest.raises(SchedulingError):
            machine.release("ghost")

    def test_illegal_shape(self):
        machine = TPUv4Supercomputer()
        with pytest.raises(SchedulingError):
            machine.create_slice((3, 4, 4))

    def test_sub_block_slice(self):
        machine = TPUv4Supercomputer()
        sl = machine.create_slice((2, 2, 4))
        assert sl.topology.kind == "mesh"
        assert len(sl.block_ids) == 1

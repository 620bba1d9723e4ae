"""Tests for slice packing and the Figure 4 goodput models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (PlacementPolicy, SliceScheduler, TPUv4Supercomputer,
                        analytic_ocs_goodput, simulate_goodput)
from repro.core.availability import balanced_block_shape, spares_staircase
from repro.core.scheduler import PlacementStrategy, _price_for
from repro.errors import SchedulingError
from repro.ocs.reconfigure import grid_adjacency_indices


def all_healthy(n=64):
    return [True] * n


class TestScheduler:
    def test_ocs_pack_counts(self):
        scheduler = SliceScheduler(all_healthy())
        outcome = scheduler.pack((8, 8, 16), PlacementPolicy.OCS)
        assert outcome.num_slices == 4  # 16 blocks each
        assert outcome.goodput == 1.0

    def test_static_pack_counts_full_health(self):
        scheduler = SliceScheduler(all_healthy())
        outcome = scheduler.pack((8, 8, 16), PlacementPolicy.STATIC)
        assert outcome.num_slices == 4
        assert outcome.goodput == 1.0

    def test_ocs_ignores_fragmentation(self):
        healthy = all_healthy()
        # Kill a scattered pattern that breaks every 2x2x4 cuboid's corner.
        for block in range(0, 64, 16):
            healthy[block] = False
        ocs = SliceScheduler(healthy).pack((8, 8, 16), PlacementPolicy.OCS)
        static = SliceScheduler(healthy).pack((8, 8, 16), PlacementPolicy.STATIC)
        assert ocs.num_slices >= static.num_slices
        assert ocs.num_slices == 3  # 60 healthy // 16

    def test_static_requires_contiguity(self):
        healthy = all_healthy(8)
        healthy[0] = False
        # 2x2x2 grid of 8 blocks; an 8-block slice no longer fits.
        scheduler = SliceScheduler(healthy, grid=(2, 2, 2))
        outcome = scheduler.pack((8, 8, 8), PlacementPolicy.STATIC)
        assert outcome.num_slices == 0
        ocs = SliceScheduler(healthy, grid=(2, 2, 2)).pack(
            (8, 8, 8), PlacementPolicy.OCS)
        assert ocs.num_slices == 0  # needs 8 blocks, only 7 healthy

    def test_static_orientation_freedom(self):
        # A 1x1x4 column can stand along any axis of the 4x4x4 grid.
        healthy = [False] * 64
        for x in range(4):
            healthy[x * 16] = True  # column along grid x at (y=0, z=0)
        scheduler = SliceScheduler(healthy)
        outcome = scheduler.pack((4, 4, 16), PlacementPolicy.STATIC)
        assert outcome.num_slices == 1

    def test_no_overlap_in_placements(self):
        scheduler = SliceScheduler(all_healthy())
        outcome = scheduler.pack((4, 4, 8), PlacementPolicy.STATIC)
        used = [b for placement in outcome.placements for b in placement]
        assert len(used) == len(set(used))

    def test_sub_block_shape_packs_per_block(self):
        scheduler = SliceScheduler(all_healthy())
        outcome = scheduler.pack((2, 2, 4), PlacementPolicy.OCS)
        assert outcome.num_slices == 64

    def test_non_cubic_grid_rejected(self):
        with pytest.raises(SchedulingError):
            SliceScheduler(all_healthy(10))

    def test_from_machine(self):
        machine = TPUv4Supercomputer()
        machine.blocks[0].fail_host(0)
        scheduler = SliceScheduler([b.available for b in machine.blocks])
        assert scheduler.healthy.count(False) == 1

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=20, deadline=None)
    def test_ocs_always_at_least_static(self, pattern):
        healthy = [(pattern >> (i % 16)) & 1 == 1 or i % 3 == 0
                   for i in range(64)]
        ocs = SliceScheduler(healthy).pack((8, 8, 8), PlacementPolicy.OCS)
        static = SliceScheduler(healthy).pack((8, 8, 8), PlacementPolicy.STATIC)
        assert ocs.num_slices >= static.num_slices


class TestPlacementStrategy:
    def test_ocs_ignores_strategy(self):
        # Any healthy blocks are equivalent under OCS (Section 2.5), so
        # every strategy returns the identical pick.
        healthy = all_healthy()
        healthy[0] = False
        picks = {
            tuple(SliceScheduler(healthy).place_one(
                (4, 4, 8), PlacementPolicy.OCS, strategy))
            for strategy in PlacementStrategy}
        assert len(picks) == 1

    def test_static_best_fit_prefers_snug_pocket(self):
        # 2x2x2 grid with one free block walled in by busy neighbors
        # (block 0: neighbors 1, 2, 4 all busy) and a fully-free far
        # corner: first-fit grabs block 0's corner region only because
        # it scans first; best-fit must also pick block 0 — but via the
        # fragmentation score, which we check by inverting the layout.
        free = [True] * 8
        for block in (1, 2, 4):
            free[block] = False
        first = SliceScheduler(free, grid=(2, 2, 2)).place_one(
            (4, 4, 4), PlacementPolicy.STATIC, PlacementStrategy.FIRST_FIT)
        best = SliceScheduler(free, grid=(2, 2, 2)).place_one(
            (4, 4, 4), PlacementPolicy.STATIC, PlacementStrategy.BEST_FIT)
        assert first == best == [0]  # the pocket, 0 free neighbors

    def test_static_best_fit_diverges_from_first_fit(self):
        # Free blocks: 0 (loose: free neighbor 1) and 7 (walled in by
        # busy 3, 5, 6 — 0 free neighbors).  First-fit scans to 0;
        # best-fit must tuck into 7 and keep the 0-1 pair intact.
        free = [False] * 8
        for block in (0, 1, 7):
            free[block] = True
        first = SliceScheduler(free, grid=(2, 2, 2)).place_one(
            (4, 4, 4), PlacementPolicy.STATIC, PlacementStrategy.FIRST_FIT)
        best = SliceScheduler(free, grid=(2, 2, 2)).place_one(
            (4, 4, 4), PlacementPolicy.STATIC, PlacementStrategy.BEST_FIT)
        assert first == [0]
        assert best == [7]

    def test_static_defrag_places_like_best_fit(self):
        free = [False] * 8
        for block in (0, 1, 7):
            free[block] = True
        best = SliceScheduler(free, grid=(2, 2, 2)).place_one(
            (4, 4, 4), PlacementPolicy.STATIC, PlacementStrategy.BEST_FIT)
        defrag = SliceScheduler(free, grid=(2, 2, 2)).place_one(
            (4, 4, 4), PlacementPolicy.STATIC, PlacementStrategy.DEFRAG)
        assert defrag == best

    def test_best_fit_none_when_nothing_fits(self):
        free = [False] * 8
        free[3] = True
        assert SliceScheduler(free, grid=(2, 2, 2)).place_one(
            (4, 4, 8), PlacementPolicy.STATIC,
            PlacementStrategy.BEST_FIT) is None

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_best_fit_is_a_valid_placement(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        free = [bool(b) for b in rng.integers(0, 2, size=64)]
        scheduler = SliceScheduler(free)
        first = scheduler.place_one((4, 4, 8), PlacementPolicy.STATIC,
                                    PlacementStrategy.FIRST_FIT)
        best = scheduler.place_one((4, 4, 8), PlacementPolicy.STATIC,
                                   PlacementStrategy.BEST_FIT)
        # Feasibility agrees between strategies; any pick is free blocks.
        assert (first is None) == (best is None)
        if best is not None:
            assert all(free[b] for b in best)
            assert len(set(best)) == 2


def _reference_trunk_layout(grid, takes):
    """Reference trunk walk, slot by slot in plain Python.

    Each slot gets the index of the region-contiguous run that hosts
    it; the adjacencies whose endpoints sit in different runs are the
    trunks, and each lands one port on both of its runs.
    """
    owner = []
    for run, take in enumerate(takes):
        owner.extend([run] * take)
    trunks = tuple((dim, low, high)
                   for dim, low, high in grid_adjacency_indices(grid)
                   if owner[low] != owner[high])
    ports = [0] * len(takes)
    for _, low, high in trunks:
        ports[owner[low]] += 1
        ports[owner[high]] += 1
    return trunks, tuple(ports)


@st.composite
def _grid_splits(draw):
    """A block grid with sides 1-4 and a split of it into 1-6 runs."""
    grid = tuple(draw(st.integers(1, 4)) for _ in range(3))
    slots = grid[0] * grid[1] * grid[2]
    runs = draw(st.integers(1, min(6, slots)))
    cuts = sorted(draw(st.sets(st.integers(1, slots - 1),
                               min_size=runs - 1, max_size=runs - 1))
                  ) if runs > 1 else []
    bounds = [0, *cuts, slots]
    return grid, tuple(high - low for low, high in zip(bounds, bounds[1:]))


class TestPlanPriceOracle:
    """The multi-region planner filters on `ports_by_region` and ranks
    on `trunk_count`, so those two values equal to the reference walk's
    mean the planner picks the same placements."""

    @given(_grid_splits())
    @settings(max_examples=300, deadline=None)
    def test_price_matches_the_reference_walk(self, grid_split):
        grid, takes = grid_split
        trunks, ports = _reference_trunk_layout(grid, takes)
        price = _price_for(grid, takes)
        assert price.trunk_count == len(trunks)
        assert price.ports_by_region == ports


class TestBalancedShape:
    def test_figure4_shapes(self):
        assert balanced_block_shape(64) == (4, 4, 4)
        assert balanced_block_shape(128) == (4, 4, 8)
        assert balanced_block_shape(256) == (4, 8, 8)
        assert balanced_block_shape(512) == (8, 8, 8)
        assert balanced_block_shape(1024) == (8, 8, 16)
        assert balanced_block_shape(2048) == (8, 16, 16)
        assert balanced_block_shape(4096) == (16, 16, 16)

    def test_rejects_bad_sizes(self):
        with pytest.raises(SchedulingError):
            balanced_block_shape(32)
        with pytest.raises(SchedulingError):
            balanced_block_shape(100)


class TestGoodput:
    def test_spares_staircase(self):
        # Paper: 3 slices of 1K occupy 75%; one 2K slice 50%; one 3K 75%;
        # a 4K slice cannot be scheduled once anything is down.
        assert spares_staircase(1024) == 0.75
        assert spares_staircase(2048) == 0.50
        assert spares_staircase(3072) == 0.75
        assert spares_staircase(4096) == 0.0

    def test_quarter_machine_75_percent(self):
        # Paper: "At 1/4 of the 4K chips, goodput for both 99.0% and 99.5%
        # is 75%".
        for avail in (0.99, 0.995):
            result = simulate_goodput(1024, avail, use_ocs=True, trials=60,
                                      seed=2)
            assert result.mean_goodput == pytest.approx(0.75, abs=0.02)

    def test_half_machine_50_percent(self):
        result = simulate_goodput(2048, 0.99, use_ocs=True, trials=60, seed=2)
        assert result.mean_goodput == pytest.approx(0.50, abs=0.02)

    def test_static_needs_high_availability(self):
        low = simulate_goodput(1024, 0.99, use_ocs=False, trials=60, seed=3)
        high = simulate_goodput(1024, 0.999, use_ocs=False, trials=60, seed=3)
        assert high.mean_goodput > low.mean_goodput + 0.3

    def test_ocs_dominates_static(self):
        for chips in (256, 1024, 2048):
            ocs = simulate_goodput(chips, 0.995, use_ocs=True, trials=40,
                                   seed=4)
            static = simulate_goodput(chips, 0.995, use_ocs=False, trials=40,
                                      seed=4)
            assert ocs.mean_goodput >= static.mean_goodput - 1e-9

    def test_analytic_matches_simulation(self):
        analytic = analytic_ocs_goodput(1024, 0.995)
        sim = simulate_goodput(1024, 0.995, use_ocs=True, trials=400, seed=5)
        assert sim.mean_goodput == pytest.approx(analytic, abs=0.03)

    def test_goodput_monotone_in_availability(self):
        values = [analytic_ocs_goodput(512, a)
                  for a in (0.98, 0.99, 0.995, 0.999)]
        assert values == sorted(values)

    def test_invalid_availability(self):
        with pytest.raises(SchedulingError):
            simulate_goodput(64, 0.0)

    @pytest.mark.parametrize("model, args, kwargs", [
        pytest.param(analytic_ocs_goodput, (64, 1.5), {},
                     id="analytic-availability-above-one"),
        pytest.param(analytic_ocs_goodput, (64, float("nan")), {},
                     id="analytic-availability-nan"),
        pytest.param(analytic_ocs_goodput, (64, -0.1), {},
                     id="analytic-availability-negative"),
        pytest.param(analytic_ocs_goodput, (-64, 0.99), {},
                     id="analytic-negative-chips"),
        pytest.param(analytic_ocs_goodput, (0, 0.99), {},
                     id="analytic-zero-chips"),
        pytest.param(analytic_ocs_goodput, (64, 0.99), {"num_blocks": 0},
                     id="analytic-zero-blocks"),
        pytest.param(analytic_ocs_goodput, (64, 0.99), {"num_blocks": -4},
                     id="analytic-negative-blocks"),
        pytest.param(spares_staircase, (0,), {}, id="spares-zero-chips"),
        pytest.param(spares_staircase, (32,), {}, id="spares-sub-block-chips"),
        pytest.param(spares_staircase, (-64,), {},
                     id="spares-negative-chips"),
        pytest.param(spares_staircase, (64, 0), {}, id="spares-zero-blocks"),
        pytest.param(simulate_goodput, (64, 0.99), {"trials": 0},
                     id="simulate-zero-trials"),
        pytest.param(simulate_goodput, (64, 0.99), {"trials": -1},
                     id="simulate-negative-trials"),
        pytest.param(simulate_goodput, (64, 0.99), {"num_blocks": 0},
                     id="simulate-zero-blocks"),
        pytest.param(simulate_goodput, (64, 0.99), {"num_blocks": -3},
                     id="simulate-negative-blocks"),
    ])
    def test_rejects_malformed_inputs(self, model, args, kwargs):
        with pytest.raises(SchedulingError):
            model(*args, **kwargs)

    @pytest.mark.parametrize("model, args, kwargs, name", [
        pytest.param(analytic_ocs_goodput, (64, 0.99), {"num_blocks": 2.5},
                     "num_blocks", id="analytic-fractional-blocks"),
        pytest.param(analytic_ocs_goodput, (64.0, 0.99), {}, "slice_chips",
                     id="analytic-float-chips"),
        pytest.param(analytic_ocs_goodput, (True, 0.99), {}, "slice_chips",
                     id="analytic-bool-chips"),
        pytest.param(analytic_ocs_goodput, (64, 0.99), {"num_blocks": True},
                     "num_blocks", id="analytic-bool-blocks"),
        pytest.param(simulate_goodput, (64, 0.99), {"trials": 2.5}, "trials",
                     id="simulate-fractional-trials"),
        pytest.param(simulate_goodput, (64.0, 0.99), {}, "slice_chips",
                     id="simulate-float-chips"),
        pytest.param(simulate_goodput, (np.float64(64), 0.99), {},
                     "slice_chips", id="simulate-numpy-float-chips"),
        pytest.param(simulate_goodput, (64, 0.99), {"trials": True},
                     "trials", id="simulate-bool-trials"),
        pytest.param(simulate_goodput, (64, 0.99),
                     {"num_blocks": np.bool_(True)}, "num_blocks",
                     id="simulate-numpy-bool-blocks"),
        pytest.param(simulate_goodput, (64, 0.99), {"trials": "3"},
                     "trials", id="simulate-string-trials"),
        pytest.param(spares_staircase, ("64",), {}, "slice_chips",
                     id="spares-string-chips"),
        pytest.param(spares_staircase, (64, None), {}, "num_blocks",
                     id="spares-none-blocks"),
    ])
    def test_rejects_non_integer_counts(self, model, args, kwargs, name):
        with pytest.raises(SchedulingError,
                           match=f"^{name} must be an integer, got "):
            model(*args, **kwargs)

    def test_numpy_integer_counts_accepted(self):
        assert analytic_ocs_goodput(np.int64(1024), 0.995,
                                    num_blocks=np.int32(64)) == \
            analytic_ocs_goodput(1024, 0.995)
        assert simulate_goodput(np.int64(64), 0.99, trials=np.int16(3),
                                num_blocks=np.uint8(8), seed=1) == \
            simulate_goodput(64, 0.99, trials=3, num_blocks=8, seed=1)

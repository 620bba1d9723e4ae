"""Tests for machine-wide placement: the trunk fabric layer, the
multi-region placement planner, and fabric-aware spare-port repair."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (_SUBSET_ENUMERATION_CAP,
                                  MultiRegionPlacement, PlacementPolicy,
                                  PlacementStrategy, _greedy_take,
                                  _price_for, plan_multi_region)
from repro.core.slicing import (block_grid, blocks_needed, canonical_shape,
                                is_legal_shape)
from repro.errors import OCSError, SchedulingError
from repro.fleet.config import FleetConfig
from repro.fleet.failures import (apply_spare_repairs, build_failure_trace,
                                  spare_repair_count)
from repro.fleet.fabric import PodFabric
from repro.fleet.machine import MachineFabric, plan_price
from repro.fleet.presets import preset_config
from repro.fleet.simulator import FleetSimulator
from repro.ocs.fabric import FACE_LINKS
from repro.ocs.reconfigure import (block_torus_adjacencies,
                                   grid_adjacency_indices)
from repro.topology.builder import is_block_multiple


class TestGridAdjacencies:
    def test_three_per_slot(self):
        assert len(grid_adjacency_indices((2, 3, 4))) == 3 * 24

    def test_matches_block_torus_wiring(self):
        # The physical wiring is the slot walk with ids substituted.
        grid = (1, 2, 2)
        blocks = [7, 3, 11, 5]
        assert block_torus_adjacencies(grid, blocks) == [
            (dim, blocks[low], blocks[high])
            for dim, low, high in grid_adjacency_indices(grid)]

    def test_single_slot_wraps_onto_itself(self):
        assert grid_adjacency_indices((1, 1, 1)) == [
            (0, 0, 0), (1, 0, 0), (2, 0, 0)]


class TestPlanMultiRegion:
    # An (8, 8, 16) slice: 16 blocks on a (2, 2, 4) grid.
    SHAPE = (8, 8, 16)

    def test_single_region_when_it_fits(self):
        placement = plan_multi_region(self.SHAPE, [(0, 16), (1, 16)],
                                      PlacementStrategy.BEST_FIT)
        assert placement.spill == 0
        assert placement.price.trunk_count == 0
        assert placement.region_blocks == ((0, 16),)

    def test_spans_when_no_region_fits(self):
        placement = plan_multi_region(self.SHAPE, [(0, 10), (1, 10)],
                                      PlacementStrategy.BEST_FIT)
        assert placement.spill == 1
        assert placement.num_blocks == 16
        assert placement.price.trunk_count > 0
        # Both sides of every trunk adjacency terminate a port.
        ports = placement.trunk_ports_by_region()
        assert sum(ports.values()) == 2 * placement.price.trunk_count

    def test_best_fit_minimizes_spill_then_trunks(self):
        # 12 + 4 and 10 + 6 both cover 16 blocks with one spill;
        # enumeration must pick the split with fewer trunk crossings,
        # never a three-region split.
        placement = plan_multi_region(
            self.SHAPE, [(0, 6), (1, 12), (2, 10)],
            PlacementStrategy.BEST_FIT)
        assert placement.spill == 1
        alternatives = [
            plan_multi_region(self.SHAPE, [(a, take_a), (b, take_b)],
                              PlacementStrategy.FIRST_FIT)
            for a, take_a, b, take_b in
            ((1, 12, 2, 10), (1, 12, 0, 6), (2, 10, 0, 6))]
        assert placement.price.trunk_count == min(
            alt.price.trunk_count for alt in alternatives)

    def test_first_fit_takes_regions_in_order(self):
        placement = plan_multi_region(self.SHAPE, [(0, 9), (1, 5), (2, 16)],
                                      PlacementStrategy.FIRST_FIT)
        assert placement.region_blocks == ((0, 9), (1, 5), (2, 2))

    def test_trunk_budget_rejects_oversubscription(self):
        generous = plan_multi_region(self.SHAPE, [(0, 10), (1, 10)],
                                     PlacementStrategy.BEST_FIT,
                                     trunk_budget={0: 100, 1: 100})
        assert generous is not None
        starved = plan_multi_region(self.SHAPE, [(0, 10), (1, 10)],
                                    PlacementStrategy.BEST_FIT,
                                    trunk_budget={0: 1, 1: 1})
        assert starved is None

    def test_insufficient_capacity_returns_none(self):
        assert plan_multi_region(self.SHAPE, [(0, 8), (1, 7)],
                                 PlacementStrategy.BEST_FIT) is None

    def test_sub_block_returns_none(self):
        assert plan_multi_region((2, 2, 4), [(0, 8), (1, 8)],
                                 PlacementStrategy.BEST_FIT) is None

    def test_deterministic(self):
        pools = [(0, 7), (1, 9), (2, 5)]
        first = plan_multi_region(self.SHAPE, pools,
                                  PlacementStrategy.BEST_FIT)
        second = plan_multi_region(self.SHAPE, pools,
                                   PlacementStrategy.BEST_FIT)
        assert first == second


# -- the reference planner --------------------------------------------------
#
# The planner as it stood before it sized its enumeration cap with
# `math.comb` and enumerated subsets of the sorted pools, kept to require
# the same placement (or the same exception) on every input.


def _reference_plan_multi_region(shape, free_by_region,
                                 strategy=PlacementStrategy.FIRST_FIT, *,
                                 trunk_budget=None):
    """`plan_multi_region` before the `math.comb` cap."""
    dims = canonical_shape(shape)
    if not is_legal_shape(dims):
        raise SchedulingError(f"illegal slice shape {dims}")
    if not is_block_multiple(dims):
        return None
    needed = blocks_needed(dims)
    grid = block_grid(dims)
    pool = [(region, free) for region, free in free_by_region if free > 0]
    if sum(free for _, free in pool) < needed:
        return None
    if strategy is PlacementStrategy.FIRST_FIT:
        candidates = [_greedy_take(pool, needed)]
    else:
        by_size = sorted(pool, key=lambda rf: (-rf[1], rf[0]))
        greedy = _greedy_take(by_size, needed)
        if greedy is None:
            return None
        k = len(greedy)
        subsets = list(itertools.islice(itertools.combinations(pool, k),
                                        _SUBSET_ENUMERATION_CAP + 1))
        if len(subsets) <= _SUBSET_ENUMERATION_CAP:
            candidates = [
                _greedy_take(sorted(subset,
                                    key=lambda rf: (-rf[1], rf[0])),
                             needed)
                for subset in subsets
                if sum(free for _, free in subset) >= needed] or [greedy]
        else:
            candidates = [greedy]
    free_of = dict(free_by_region)
    best = None
    best_key = None
    for assignment in candidates:
        if assignment is None:
            continue
        price = _price_for(grid, tuple(take for _, take in assignment))
        if trunk_budget is not None and any(
                ports > trunk_budget.get(region, 0)
                for (region, _), ports in zip(assignment,
                                              price.ports_by_region)):
            continue
        leftover = sum(free_of[region] for region, _ in assignment) - needed
        key = (len(assignment) - 1, price.trunk_count, leftover,
               tuple(region for region, _ in assignment))
        if best is None or key < best_key:
            best = MultiRegionPlacement(
                shape=dims, grid=grid, region_blocks=tuple(assignment),
                price=price)
            best_key = key
    return best


def _outcome(planner, *args, **kwargs):
    """The planner's placement, or the type and text of what it raised."""
    try:
        return planner(*args, **kwargs)
    except SchedulingError as exc:
        return type(exc), str(exc)


@st.composite
def _planner_inputs(draw):
    """Pools with distinct region ids in shuffled order, any shape
    (block-multiple, sub-block or illegal), strategy and trunk budget."""
    regions = draw(st.lists(st.integers(0, 999), min_size=1, max_size=64,
                            unique=True))
    # Whole pods (27 or 64 blocks) make the equal pools that id order
    # must break.
    free = st.integers(0, 64) | st.sampled_from([27, 64])
    pools = [(region, draw(free)) for region in regions]
    shape = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 4, 8, 12, 16,
                                                 24, 32]),
                                min_size=3, max_size=3)))
    strategy = draw(st.sampled_from(list(PlacementStrategy)))
    budget = draw(st.none() | st.fixed_dictionaries(
        {region: st.integers(0, 48) for region in regions}))
    return shape, pools, strategy, budget


class TestPlanMultiRegionOracle:
    """`plan_multi_region` places exactly as the reference planner does:
    the same placement, or the same exception, on every input."""

    @settings(max_examples=400, deadline=None)
    @given(_planner_inputs())
    def test_matches_reference(self, inputs):
        shape, pools, strategy, budget = inputs
        assert _outcome(plan_multi_region, shape, pools, strategy,
                        trunk_budget=budget) == \
            _outcome(_reference_plan_multi_region, shape, pools, strategy,
                     trunk_budget=budget)

    # C(23, 2) = 253 subsets are ranked: the 8-block pool leaves the
    # least over.  C(24, 2) = 276 pass the cap: the greedy pick.
    @pytest.mark.parametrize("nines, expected", [
        (22, ((0, 9), (22, 7))),
        (23, ((0, 9), (1, 7))),
    ])
    def test_cap_boundary_two_regions(self, nines, expected):
        pools = [(region, 9) for region in range(nines)] + [(nines, 8)]
        placement = plan_multi_region((8, 8, 16), pools,
                                      PlacementStrategy.BEST_FIT)
        assert placement.region_blocks == expected
        assert placement == _reference_plan_multi_region(
            (8, 8, 16), pools, PlacementStrategy.BEST_FIT)

    # C(256, 1) = 256 subsets are ranked: the 2-block pool fits a
    # one-block slice snuggest.  With 257 pools the greedy pick, the
    # largest, wins.
    @pytest.mark.parametrize("fives, expected", [
        (255, ((0, 1),)),
        (256, ((1, 1),)),
    ])
    def test_cap_boundary_one_region(self, fives, expected):
        pools = [(0, 2)] + [(region, 5) for region in range(1, fives + 1)]
        placement = plan_multi_region((4, 4, 4), pools,
                                      PlacementStrategy.BEST_FIT)
        assert placement.region_blocks == expected
        assert placement == _reference_plan_multi_region(
            (4, 4, 4), pools, PlacementStrategy.BEST_FIT)

    # Pools given out of size and id order.  Ranked: each subset fills
    # largest first, so 12 + 4 beats 6 + 10.  Equal pools: the lower id
    # goes first, whether the subsets are ranked (two pools) or not
    # (C(30, 2) = 435, the greedy pick).
    @pytest.mark.parametrize("pools, expected", [
        ([(0, 6), (1, 12), (2, 10)], ((1, 12), (0, 4))),
        ([(1, 9), (0, 9)], ((0, 9), (1, 7))),
        ([(region, 9) for region in reversed(range(30))],
         ((0, 9), (1, 7))),
    ])
    def test_subsets_fill_largest_then_lowest_id_first(self, pools,
                                                       expected):
        for strategy in (PlacementStrategy.BEST_FIT,
                         PlacementStrategy.DEFRAG):
            placement = plan_multi_region((8, 8, 16), pools, strategy)
            assert placement.region_blocks == expected
            assert placement == _reference_plan_multi_region(
                (8, 8, 16), pools, strategy)

    def test_illegal_shape_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(SchedulingError, match="illegal slice"):
                plan_multi_region((3, 4, 4), [(0, 8)],
                                  PlacementStrategy.BEST_FIT)


class TestMachineFabric:
    CROSS = [(0, [0, 1, 2, 3, 4]), (1, [0, 1, 2])]

    def _fabric(self, num_pods=2, blocks_per_pod=8, trunk_ports=48):
        return MachineFabric(num_pods, blocks_per_pod, trunk_ports)

    def _cross_plan(self, fabric, job_id=1):
        # (4, 8, 16): 8 blocks on a (1, 2, 4) grid, split 5 + 3.
        return fabric.plan(job_id, (4, 8, 16), self.CROSS)

    def test_single_pod_plan_has_no_trunks(self):
        fabric = self._fabric()
        wiring = fabric.wiring(1, (4, 4, 8), [(0, [2, 5])])
        assert not wiring.cross_pod
        assert wiring.num_adjacencies == 3 * 2
        assert wiring.num_circuits == 6 * FACE_LINKS

    def test_cross_pod_plan_splits_layers(self):
        wiring = self._fabric().wiring(1, (4, 8, 16), self.CROSS)
        assert wiring.cross_pod
        # Every adjacency lands in exactly one layer.
        assert wiring.num_adjacencies == 3 * 8
        assert wiring.num_trunk_circuits == \
            len(wiring.trunk_adjacencies) * FACE_LINKS
        assert wiring.total_trunk_ports == \
            2 * len(wiring.trunk_adjacencies)
        assert 0.0 < wiring.cross_fraction < 1.0

    def test_cross_pod_latency_exceeds_single_pod(self):
        fabric = self._fabric()
        cross = fabric.wiring(1, (4, 8, 16), self.CROSS)
        single = fabric.wiring(2, (8, 8, 8), [(0, list(range(8)))])
        assert cross.latency_seconds(30.0, 0.01, 15.0) > \
            single.latency_seconds(30.0, 0.01, 15.0)
        assert single.latency_seconds(30.0, 0.01, 15.0) == \
            pytest.approx(30.0 + 0.01 * single.pod_plans[0][1]
                          .moves_per_switch)

    def test_apply_release_roundtrip(self):
        fabric = self._fabric()
        plan = self._cross_plan(fabric)
        assert plan.wiring is not None  # programmed by default
        created = fabric.apply(plan)
        assert created == plan.price.num_circuits
        assert sum(pod.live_circuits for pod in fabric.pods) == \
            created - plan.price.num_trunk_circuits
        assert fabric.holds_trunks(1)
        assert fabric.trunk_in_use() == plan.price.total_trunk_ports
        fabric.check_trunk_accounting()
        removed = fabric.release(1)
        assert removed == created
        assert fabric.trunk_in_use() == 0
        assert not fabric.holds_trunks(1)
        assert all(pod.live_circuits == 0 for pod in fabric.pods)
        fabric.check_trunk_accounting()

    def test_double_apply_rejected(self):
        fabric = self._fabric()
        fabric.apply(self._cross_plan(fabric))
        with pytest.raises(OCSError):
            fabric.apply(self._cross_plan(fabric))

    def test_oversubscribed_trunks_rejected_atomically(self):
        fabric = self._fabric(trunk_ports=1)
        plan = self._cross_plan(fabric)
        with pytest.raises(OCSError):
            fabric.apply(plan)
        # Nothing leaked: ports intact, no pod programmed.
        assert fabric.trunk_in_use() == 0
        assert all(pod.live_circuits == 0 for pod in fabric.pods)

    def test_budget_reflects_held_ports(self):
        fabric = self._fabric()
        plan = self._cross_plan(fabric)
        fabric.apply(plan)
        budget = fabric.trunk_budget()
        for pod_id, ports in plan.trunk_ports_by_pod().items():
            assert budget[pod_id] == 48 - ports

    def test_what_if_accounting_never_mutates(self):
        # The contention planner's what-if views: per-victim holdings
        # and an excluding budget, both pure reads.
        fabric = self._fabric()
        plan = self._cross_plan(fabric)
        fabric.apply(plan)
        held = fabric.trunk_ports_of(1)
        assert held == plan.trunk_ports_by_pod()
        held[0] = 999  # a copy — the ledger must not see this
        assert fabric.trunk_ports_of(1) == plan.trunk_ports_by_pod()
        assert fabric.trunk_ports_of(42) == {}
        excluding = fabric.trunk_budget_excluding([1])
        assert excluding == {0: 48, 1: 48}  # as if job 1 had released
        # ...but the live budget and ledger are untouched.
        assert fabric.trunk_in_use() == plan.price.total_trunk_ports
        assert fabric.holds_trunks(1)
        fabric.check_trunk_accounting()

    def test_release_of_unknown_or_released_job_is_a_no_op(self):
        # The trunk ledger hands each job's ports back exactly once.
        fabric = self._fabric()
        plan = self._cross_plan(fabric)
        fabric.apply(plan)
        held = fabric.trunk_budget()
        assert fabric.release(99) == 0   # held nothing
        assert fabric.trunk_budget() == held
        assert fabric.holds_trunks(1)
        assert fabric.release(1) == plan.price.num_circuits
        assert fabric.trunk_in_use() == 0
        assert fabric.release(1) == 0    # already gone
        assert fabric.trunk_budget() == {0: 48, 1: 48}
        fabric.check_trunk_accounting()

    def test_priced_mode_touches_no_pod(self, monkeypatch):
        # Outside verification mode a plan is its price: apply holds
        # only trunk ports and release visits no pod fabric.
        fabric = self._fabric()
        fabric.program_pods = False
        plan = self._cross_plan(fabric)
        assert plan.wiring is None

        def forbidden(*args, **kwargs):
            raise AssertionError("pod fabric touched in priced mode")

        monkeypatch.setattr(PodFabric, "apply", forbidden)
        monkeypatch.setattr(PodFabric, "release", forbidden)
        assert fabric.apply(plan) == plan.price.num_circuits
        assert fabric.trunk_ports_of(1) == plan.trunk_ports_by_pod()
        assert fabric.release(1) == plan.price.num_trunk_circuits
        assert fabric.trunk_in_use() == 0
        fabric.check_trunk_accounting()

    def test_wiring_that_disagrees_with_its_price_raises(self, monkeypatch):
        # Verification mode checks every programmed plan against the
        # price the scheduler charges.
        import repro.fleet.machine as machine
        wrong = machine.PlanPrice(num_blocks=8, trunk_count=0,
                                  ports_by_region=(0, 0), pod_moves=8,
                                  trunk_moves=0)
        monkeypatch.setattr(machine, "plan_price",
                            lambda shape, counts: wrong)
        with pytest.raises(OCSError, match="disagrees with its price"):
            self._cross_plan(self._fabric())


class TestTrunkReserve:
    """`MachineFabric.reserve`: the trunk ledger's atomic primitive."""

    def test_reserve_and_release_roundtrip(self):
        fabric = MachineFabric(num_pods=3, blocks_per_pod=16,
                               trunk_ports=8)
        fabric.reserve(7, {0: 2, 1: 2})
        assert fabric.holds_trunks(7)
        assert fabric.trunk_free(0) == 6 and fabric.trunk_free(1) == 6
        assert fabric.trunk_in_use() == 4
        assert fabric.trunk_budget() == {0: 6, 1: 6, 2: 8}
        assert fabric.trunk_budget_excluding([7]) == {0: 8, 1: 8, 2: 8}
        fabric.check_trunk_accounting()
        released = fabric.release(7)
        assert released == (4 // 2) * FACE_LINKS
        assert not fabric.holds_trunks(7)
        assert fabric.trunk_in_use() == 0
        fabric.check_trunk_accounting()

    def test_release_unknown_job_is_free(self):
        fabric = MachineFabric(num_pods=2, blocks_per_pod=16,
                               trunk_ports=8)
        assert fabric.release(99) == 0

    def test_double_reserve_rejected(self):
        fabric = MachineFabric(num_pods=2, blocks_per_pod=16,
                               trunk_ports=8)
        fabric.reserve(1, {0: 2})
        with pytest.raises(OCSError, match="already holds"):
            fabric.reserve(1, {1: 2})

    def test_oversubscription_rejected_atomically(self):
        fabric = MachineFabric(num_pods=2, blocks_per_pod=16,
                               trunk_ports=4)
        with pytest.raises(OCSError, match="trunk"):
            fabric.reserve(1, {0: 2, 1: 6})
        # The failed reserve must not have taken pod 0's ports.
        assert fabric.trunk_budget() == {0: 4, 1: 4}
        assert not fabric.holds_trunks(1)

    def test_empty_reserve_holds_nothing(self):
        fabric = MachineFabric(num_pods=1, blocks_per_pod=16,
                               trunk_ports=4)
        fabric.reserve(1, {})
        assert not fabric.holds_trunks(1)
        assert fabric.release(1) == 0


def _assert_price_matches_wiring(shape, assignments):
    """Compare every consumer-visible quantity, priced vs wired."""
    wiring = MachineFabric(num_pods=1 + max(pod for pod, _ in assignments),
                           blocks_per_pod=64, trunk_ports=64).wiring(
        1, shape, assignments)
    price = plan_price(shape, tuple(len(blocks)
                                    for _, blocks in assignments))
    assert price.empty == wiring.empty
    assert price.cross_pod == wiring.cross_pod
    assert price.num_adjacencies == wiring.num_adjacencies
    assert price.num_circuits == wiring.num_circuits
    assert price.num_trunk_circuits == wiring.num_trunk_circuits
    assert price.total_trunk_ports == wiring.total_trunk_ports
    assert price.cross_fraction == wiring.cross_fraction
    ports = {assignments[region][0]: count
             for region, count in enumerate(price.ports_by_region)
             if count}
    assert ports == wiring.trunk_ports_by_pod()
    assert price.latency_seconds(1.0, 0.01, 5.0) == \
        wiring.latency_seconds(1.0, 0.01, 5.0)


class TestPlanPriceParity:
    """plan_price must match the block-level wiring value-for-value.

    The scheduler charges every rewiring from the memoized price; its
    whole claim to correctness is that a rewiring's price depends only
    on the block grid and the per-pod block counts.  Each case prices
    one placement both ways — wired vs. memoized — and compares every
    consumer-visible quantity.
    """

    CASES = [
        # (shape, [(pod, blocks)...]): pod-local, split, and sub-block.
        ((4, 4, 8), [(0, [0]), (1, [0])]),
        ((8, 8, 8), [(0, [0, 1, 2, 3, 4, 5, 6, 7])]),
        ((8, 8, 8), [(0, [0, 1, 2, 3]), (1, [4, 5, 6, 7])]),
        ((4, 8, 12), [(0, [0, 1, 2]), (1, [0, 1, 2])]),
        ((4, 4, 12), [(0, [5]), (1, [7]), (2, [2])]),
        ((2, 2, 4), [(0, [3])]),
    ]

    @pytest.mark.parametrize("shape,assignments", CASES)
    def test_matches_machine_plan(self, shape, assignments):
        _assert_price_matches_wiring(shape, assignments)

    @pytest.mark.parametrize("preset", ["large", "hyperscale", "edge"])
    def test_matches_every_placement_of_seed_zero(self, preset,
                                                  monkeypatch):
        # Every (shape, per-pod counts) a real run places, priced both
        # ways; the first placement of each pair stands for the rest.
        placed = {}
        plan = MachineFabric.plan

        def spy(fabric, job_id, shape, assignments):
            key = (shape, tuple(len(blocks) for _, blocks in assignments))
            placed.setdefault(key, [(pod, list(blocks))
                                    for pod, blocks in assignments])
            return plan(fabric, job_id, shape, assignments)

        monkeypatch.setattr(MachineFabric, "plan", spy)
        FleetSimulator(preset_config(preset), seed=0).run(
            PlacementPolicy.OCS)
        assert any(len(counts) > 1 for _, counts in placed)
        for (shape, _), assignments in sorted(placed.items()):
            _assert_price_matches_wiring(shape, assignments)

    def test_memoized_identity(self):
        first = plan_price((8, 8, 8), (4, 4))
        second = plan_price((8, 8, 8), (4, 4))
        assert first is second


class TestSpareRepairs:
    def _config(self, **overrides):
        overrides.setdefault("num_pods", 1)
        overrides.setdefault("blocks_per_pod", 8)
        overrides.setdefault("max_job_blocks", 8)
        overrides.setdefault("optical_failure_fraction", 1.0)
        overrides.setdefault("spare_ports", 2)
        overrides.setdefault("port_repair_seconds", 60.0)
        return FleetConfig(**overrides)

    def test_optical_outages_shortened(self):
        config = self._config()
        trace = build_failure_trace(config, np.random.default_rng(0),
                                    repair_rng=np.random.default_rng(1))
        repaired = [o for o in trace if o.via_spare]
        assert repaired, "expected spare-port repairs"
        assert all(o.duration <= 60.0 + 1e-9 for o in repaired)
        assert spare_repair_count(trace) == len(repaired)

    def test_spares_can_exhaust(self):
        # Every outage optical, one spare, long quarantines: overlapping
        # failures must fall back to full outages.
        config = self._config(spare_ports=1,
                              host_mtbf_seconds=4 * 86400.0)
        trace = build_failure_trace(config, np.random.default_rng(3),
                                    repair_rng=np.random.default_rng(4))
        assert any(o.via_spare for o in trace)
        assert any(not o.via_spare for o in trace)

    def test_repair_never_lengthens_an_outage(self):
        config = self._config(port_repair_seconds=1e9)
        rng = np.random.default_rng(0)
        base = build_failure_trace(config, np.random.default_rng(0))
        repaired = apply_spare_repairs(config, base, rng)
        for before, after in zip(base, repaired):
            assert after.duration <= before.duration + 1e-9

    def test_zero_fraction_leaves_trace_untouched(self):
        config = self._config(optical_failure_fraction=0.0)
        with_stream = build_failure_trace(
            config, np.random.default_rng(0),
            repair_rng=np.random.default_rng(1))
        without = build_failure_trace(config, np.random.default_rng(0))
        assert with_stream == without
        assert spare_repair_count(with_stream) == 0

    def test_repairs_deterministic(self):
        config = self._config()
        first = build_failure_trace(config, np.random.default_rng(5),
                                    repair_rng=np.random.default_rng(6))
        second = build_failure_trace(config, np.random.default_rng(5),
                                     repair_rng=np.random.default_rng(6))
        assert first == second


class TestLargePreset:
    def test_machine_wide_by_construction(self):
        config = preset_config("large")
        assert config.machine_wide_jobs
        assert config.cross_pod
        assert config.spare_ports > 0
        assert config.optical_failure_fraction > 0

    def test_replace_toggles_cross_pod_without_revalidation_error(self):
        config = preset_config("large").with_overrides(cross_pod=False)
        assert not config.cross_pod
        assert config.machine_wide_jobs  # the mix still spans pods

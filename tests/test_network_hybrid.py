"""Tests for the IB fat-tree baseline and hybrid collectives (Sec. 7.3)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.network import (HybridNetworkParams, IBParams, ICIParams,
                           allreduce_time_hybrid, alltoall_time_hybrid,
                           ib_vs_ocs_slowdowns)
from repro.network.fattree import clos_switch_count, superpod_anchor_check
from repro.network.hybrid import allreduce_time_ocs, alltoall_time_ocs


class TestFatTree:
    def test_superpod_anchors_close_to_paper(self):
        anchors = superpod_anchor_check()
        # Paper: 164 switches for 1120 GPUs, 568 for 4096 TPUs.
        assert anchors["a100_1120"] == pytest.approx(164, rel=0.10)
        assert anchors["tpuv4_4096"] == pytest.approx(568, rel=0.10)

    def test_clos_count_1120(self):
        # Pure Clos: 56 leaves + 56 agg + 28 core = 140.
        assert clos_switch_count(1120) == 140

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            clos_switch_count(0)
        with pytest.raises(ConfigurationError):
            clos_switch_count(100, radix=39)


class TestHybridCollectives:
    def test_paper_allreduce_band(self):
        # Paper: optimized all-reduce 1.8x-2.4x slower on the hybrid.
        slowdowns = ib_vs_ocs_slowdowns(slice_sizes=(256, 512, 1024, 4096))
        for size, numbers in slowdowns.items():
            assert 1.8 <= numbers["allreduce"] <= 2.4, (size, numbers)

    def test_paper_alltoall_band(self):
        # Paper: all-to-all 1.2x-2.4x slower, depending on slice size.
        slowdowns = ib_vs_ocs_slowdowns(slice_sizes=(256, 512, 1024, 4096))
        for size, numbers in slowdowns.items():
            assert 1.15 <= numbers["alltoall"] <= 2.45, (size, numbers)

    def test_alltoall_gap_narrows_at_scale(self):
        # Torus bisection/node shrinks with N; IB stays NIC-bound.
        slowdowns = ib_vs_ocs_slowdowns(slice_sizes=(512, 4096))
        assert slowdowns[4096]["alltoall"] < slowdowns[512]["alltoall"]

    def test_single_island_is_pure_ici(self):
        t = alltoall_time_hybrid(8, 1e6)
        params = HybridNetworkParams()
        local_bw = 3 * params.ici.link_bandwidth
        assert t == pytest.approx(1e6 / local_bw)

    def test_hybrid_allreduce_monotone_in_bytes(self):
        t1 = allreduce_time_hybrid(512, 1e6)
        t2 = allreduce_time_hybrid(512, 4e6)
        assert t2 == pytest.approx(4 * t1)

    def test_island_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            allreduce_time_hybrid(100, 1e6)

    def test_ocs_times_positive(self):
        assert allreduce_time_ocs(512, 1e6) > 0
        assert alltoall_time_ocs(512, 1e6) > 0

    def test_efficiency_parameter_matters(self):
        slow = HybridNetworkParams(ib=IBParams(fabric_efficiency=0.4))
        fast = HybridNetworkParams(ib=IBParams(fabric_efficiency=1.0))
        assert (allreduce_time_hybrid(512, 1e6, slow)
                > allreduce_time_hybrid(512, 1e6, fast))

    def test_params_defaults_documented(self):
        params = HybridNetworkParams()
        assert params.ici.link_bandwidth == 50e9   # Table 4
        assert params.ib.nic_bandwidth == 25e9     # 200 Gbit/s HDR
        assert params.ib.island_size == 8          # DGX-like ICI island


class TestSection73Golden:
    # Pinned (all-reduce, all-to-all) slowdowns of the default run.  The
    # torus all-to-all sums ECMP loads per link class, so a change in
    # summation order may move the last bits: compare to rel=1e-12.
    GOLDEN = {
        256: (2.0840336134453783, 2.3526785714285694),
        512: (2.113502935420744, 2.390624999999998),
        1024: (2.128194386258902, 1.204799107142856),
        2048: (2.1355293460813733, 1.2095424107142845),
        4096: (2.139194139194139, 1.211914062499999),
    }

    def test_default_slowdowns_pinned(self):
        slowdowns = ib_vs_ocs_slowdowns()
        assert sorted(slowdowns) == sorted(self.GOLDEN)
        for size, (allreduce, alltoall) in self.GOLDEN.items():
            assert slowdowns[size]["allreduce"] == pytest.approx(
                allreduce, rel=1e-12)
            assert slowdowns[size]["alltoall"] == pytest.approx(
                alltoall, rel=1e-12)


BAD_INPUTS = [
    (ICIParams, {"link_bandwidth": 0}),
    (ICIParams, {"link_bandwidth": -50e9}),
    (ICIParams, {"link_bandwidth": math.inf}),
    (ICIParams, {"link_bandwidth": math.nan}),
    (ICIParams, {"links_per_chip": 0}),
    (ICIParams, {"alltoall_efficiency": -1}),
    (ICIParams, {"alltoall_efficiency": 0}),
    (ICIParams, {"alltoall_efficiency": 1.5}),
    (ICIParams, {"alltoall_efficiency": math.nan}),
    (IBParams, {"nic_bandwidth": 0}),
    (IBParams, {"nic_bandwidth": math.inf}),
    (IBParams, {"fabric_efficiency": 0}),
    (IBParams, {"fabric_efficiency": 1.01}),
    (IBParams, {"island_size": 3}),
    (IBParams, {"island_size": 16}),
    (allreduce_time_hybrid, {"num_chips": 512, "num_bytes": -1.0}),
    (allreduce_time_hybrid, {"num_chips": 8, "num_bytes": math.nan}),
    (allreduce_time_ocs, {"num_chips": 512, "num_bytes": math.nan}),
    (allreduce_time_ocs, {"num_chips": 512, "num_bytes": math.inf}),
    (alltoall_time_hybrid, {"num_chips": 512, "per_node_bytes": -1.0}),
    (alltoall_time_hybrid, {"num_chips": 8, "per_node_bytes": -1.0}),
    (alltoall_time_hybrid, {"num_chips": 512, "per_node_bytes": math.nan}),
    (alltoall_time_ocs, {"num_chips": 512, "per_node_bytes": -1.0}),
    (alltoall_time_ocs, {"num_chips": 512, "per_node_bytes": math.inf}),
]


@pytest.mark.parametrize("fn, kwargs", BAD_INPUTS, ids=[
    f"{fn.__name__}-{'-'.join(f'{k}={v}' for k, v in kwargs.items())}"
    for fn, kwargs in BAD_INPUTS])
def test_bad_inputs_raise_configuration_error(fn, kwargs):
    with pytest.raises(ConfigurationError):
        fn(**kwargs)

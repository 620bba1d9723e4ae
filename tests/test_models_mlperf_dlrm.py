"""Tests for repro.models.mlperf_dlrm: the Section 7.9 scaling study."""

import pytest
from hypothesis import given, strategies as st

from repro.core.slicing import cube_shape
from repro.errors import ConfigurationError
from repro.models.mlperf_dlrm import (MLPERF_DLRM, PRODUCTION_DLRM,
                                      RecommenderBenchmark,
                                      RecommenderCostModel,
                                      scaling_curve, useful_scaling_limit)
from repro.topology.builder import supports_wraparound


class TestBenchmarkConfigs:
    def test_mlperf_batch_cap_applies(self):
        assert MLPERF_DLRM.global_batch(16) == 64 * 1024
        assert MLPERF_DLRM.global_batch(1024) == 64 * 1024
        assert MLPERF_DLRM.global_batch(2) == 32768

    def test_production_scales_with_chips(self):
        assert PRODUCTION_DLRM.global_batch(64) == 64 * 16384
        assert PRODUCTION_DLRM.global_batch(1024) == 1024 * 16384

    def test_paper_claimed_per_sc_batch_at_128_chips(self):
        # "limiting batch size to 128 per SC on a 128-chip system
        # (128 chips x 4 SCs/chip x 128 = 64k)".
        batch = MLPERF_DLRM.global_batch(128)
        assert batch / (128 * 4) == pytest.approx(128)

    def test_multivalence(self):
        assert not MLPERF_DLRM.multivalent
        assert PRODUCTION_DLRM.multivalent

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            RecommenderBenchmark(name="x", global_batch_cap=None,
                                 per_chip_batch=0, num_features=1,
                                 num_tables=1, avg_valency=1.0)
        with pytest.raises(ConfigurationError):
            RecommenderBenchmark(name="x", global_batch_cap=None,
                                 per_chip_batch=1, num_features=0,
                                 num_tables=1, avg_valency=1.0)
        with pytest.raises(ConfigurationError):
            RecommenderBenchmark(name="x", global_batch_cap=None,
                                 per_chip_batch=1, num_features=1,
                                 num_tables=1, avg_valency=0.5)


class TestCubeShape:
    def test_perfect_cubes(self):
        assert cube_shape(64) == (4, 4, 4)
        assert cube_shape(512) == (8, 8, 8)
        assert cube_shape(4096) == (16, 16, 16)

    def test_non_cubes_most_cubical(self):
        assert cube_shape(128) == (4, 4, 8)
        assert cube_shape(1024) in ((8, 8, 16),)

    def test_ordering_invariant(self):
        for chips in (16, 32, 64, 128, 256, 512, 1024):
            x, y, z = cube_shape(chips)
            assert x <= y <= z
            assert x * y * z == chips

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            cube_shape(0)


class TestScalingStudy:
    def test_mlperf_limit_within_paper_claim(self):
        curve = scaling_curve(MLPERF_DLRM)
        assert useful_scaling_limit(curve) <= 128

    def test_production_outscales_mlperf_4x(self):
        mlperf = useful_scaling_limit(scaling_curve(MLPERF_DLRM))
        production = useful_scaling_limit(scaling_curve(PRODUCTION_DLRM))
        assert production >= 4 * mlperf
        assert production >= 512

    def test_overhead_fraction_grows_under_batch_cap(self):
        curve = scaling_curve(MLPERF_DLRM)
        fractions = [p.overhead_fraction for p in curve]
        assert fractions[-1] > 3 * fractions[0]
        assert fractions[-1] > 0.2

    def test_production_overhead_stays_negligible(self):
        curve = scaling_curve(PRODUCTION_DLRM)
        assert all(p.overhead_fraction < 0.01 for p in curve)

    def test_throughput_monotone_for_production(self):
        curve = scaling_curve(PRODUCTION_DLRM)
        rates = [p.examples_per_second for p in curve]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_per_sc_batch_bookkeeping(self):
        model = RecommenderCostModel()
        point = model.step_time(MLPERF_DLRM, 256)
        assert point.per_sc_batch == pytest.approx(64 * 1024 / (256 * 4))
        assert point.examples_per_second == pytest.approx(
            point.global_batch / point.step_seconds)

    def test_empty_curve_rejected(self):
        with pytest.raises(ConfigurationError):
            useful_scaling_limit([])

    def test_custom_chip_counts(self):
        curve = scaling_curve(MLPERF_DLRM, [64, 128])
        assert [p.num_chips for p in curve] == [64, 128]


class TestSliceWiring:
    """Slices smaller than one 4x4x4 block have no OCS wraparound, so the
    16- and 32-chip all-to-all is priced on a mesh."""

    CHIPS = (16, 32, 64, 128, 256, 512, 1024)
    # Step seconds over CHIPS.  Priced as tori, the 16- and 32-chip
    # slices read 1.205e-3 and 6.058e-4 s (MLPerf) and 0.1357 and 0.1345 s.
    # With the closed-form mesh all-to-all (N * n_max / 4 per-pair
    # serialization), the 32-chip 2x4x4 mesh read 9.998e-4 s (MLPerf)
    # and 0.17088 s; its exact ECMP all-to-all is 39/32 of that form.
    GOLDEN = {
        MLPERF_DLRM.name: (0.00201908228588052, 0.0011721996232302754,
                           0.00031634208618759016, 0.00027013191398493364,
                           0.00015124119379638398, 9.207924535183538e-05,
                           8.644706199469348e-05),
        PRODUCTION_DLRM.name: (0.1732997728748052, 0.1867864897367407,
                               0.13392923932813852, 0.16915698945937213,
                               0.16887848301127578, 0.1687400473208326,
                               0.2392042197261835),
    }

    def test_only_sub_block_shapes_lack_wraparound(self):
        wraps = [supports_wraparound(cube_shape(chips))
                 for chips in self.CHIPS]
        assert wraps == [False, False, True, True, True, True, True]

    @pytest.mark.parametrize("bench", [MLPERF_DLRM, PRODUCTION_DLRM],
                             ids=lambda bench: bench.name)
    def test_pinned_step_times(self, bench):
        steps = [point.step_seconds
                 for point in scaling_curve(bench, list(self.CHIPS))]
        assert steps == pytest.approx(self.GOLDEN[bench.name], rel=1e-12)


@given(st.integers(1, 4096))
def test_cube_shape_factorizes(chips):
    x, y, z = cube_shape(chips)
    assert x * y * z == chips
    assert x <= y <= z


@given(st.integers(1, 512), st.integers(1, 512))
def test_global_batch_cap_is_min(chips, cap_k):
    bench = RecommenderBenchmark(name="b", global_batch_cap=cap_k * 1024,
                                 per_chip_batch=1024, num_features=4,
                                 num_tables=4, avg_valency=1.0)
    assert bench.global_batch(chips) == min(1024 * chips, cap_k * 1024)

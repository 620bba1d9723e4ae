"""Tests for the DLRM0 system comparison (Fig. 9) and history (Fig. 17)."""

import pytest

from repro.models import (DLRM0_2022, DLRMConfig, SystemKind,
                          dlrm_relative_performance, dlrm_step_time,
                          dlrm0_version_history)
from repro.models.dlrm import (EMBEDDINGS_GROWTH, NUM_DLRM0_VERSIONS,
                               WEIGHTS_GROWTH)


class TestFigure9:
    @pytest.fixture(scope="class")
    def relative(self):
        return dlrm_relative_performance()

    def test_tpuv3_98x_cpu(self, relative):
        assert relative[SystemKind.TPUV3] == pytest.approx(9.8, rel=0.10)

    def test_tpuv4_301x_cpu(self, relative):
        assert relative[SystemKind.TPUV4] == pytest.approx(30.1, rel=0.10)

    def test_v4_beats_v3_31x(self, relative):
        ratio = relative[SystemKind.TPUV4] / relative[SystemKind.TPUV3]
        assert ratio == pytest.approx(3.1, rel=0.08)

    def test_no_sparsecore_drops_5_to_7x(self, relative):
        v4 = relative[SystemKind.TPUV4]
        for fallback in (SystemKind.TPUV4_EMB_ON_HOST,
                         SystemKind.TPUV4_EMB_ON_VARIABLE_SERVER):
            drop = v4 / relative[fallback]
            assert 5.0 <= drop <= 7.0, (fallback, drop)

    def test_fallbacks_still_beat_cpu(self, relative):
        # Figure 9's bottom bars are above the CPU baseline.
        assert relative[SystemKind.TPUV4_EMB_ON_HOST] > 1.0
        assert relative[SystemKind.TPUV4_EMB_ON_VARIABLE_SERVER] > 1.0

    def test_ordering_matches_figure(self, relative):
        order = sorted(relative, key=relative.get)
        assert order[0] == SystemKind.CPU_CLUSTER
        assert order[-1] == SystemKind.TPUV4

    def test_step_times_positive(self):
        for system in SystemKind:
            assert dlrm_step_time(DLRM0_2022, system) > 0


class TestConfig:
    def test_sizes(self):
        assert DLRM0_2022.dense_params == pytest.approx(137e6)
        assert DLRM0_2022.embedding_params == pytest.approx(20e9)

    def test_flops_law(self):
        assert DLRM0_2022.dense_flops_per_example() == pytest.approx(
            6 * 137e6)

    def test_rows_scale_with_batch(self):
        small = DLRMConfig(batch_per_chip=16)
        large = DLRMConfig(batch_per_chip=32)
        assert large.embedding_rows_per_chip() == pytest.approx(
            2 * small.embedding_rows_per_chip())


class TestFigure17:
    def test_43_versions(self):
        history = dlrm0_version_history()
        assert len(history) == NUM_DLRM0_VERSIONS == 43

    def test_growth_factors(self):
        history = dlrm0_version_history()
        assert (history[-1].dense_params / history[0].dense_params
                == pytest.approx(WEIGHTS_GROWTH))
        assert (history[-1].embedding_params / history[0].embedding_params
                == pytest.approx(EMBEDDINGS_GROWTH))
        assert WEIGHTS_GROWTH == 4.2 and EMBEDDINGS_GROWTH == 3.8

    def test_monotone_growth(self):
        history = dlrm0_version_history()
        weights = [v.dense_params for v in history]
        embeddings = [v.embedding_params for v in history]
        assert weights == sorted(weights)
        assert embeddings == sorted(embeddings)

    def test_final_version_is_2022_config(self):
        history = dlrm0_version_history()
        assert history[-1].dense_params == pytest.approx(
            DLRM0_2022.dense_params)

    def test_release_cadence_six_weeks(self):
        # 43 versions over 5 years ~= one per 6.1 weeks.
        weeks = 5 * 52 / (NUM_DLRM0_VERSIONS - 1)
        assert 5.5 <= weeks <= 6.7

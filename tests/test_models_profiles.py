"""Tests for app profiles and the Figure 12/13 performance model."""

import pytest

from repro.errors import ConfigurationError
from repro.models import (PRODUCTION_APPS, TPUV3_GEN, TPUV4_GEN,
                          TPUV4_GEN_NO_CMEM, speedup_v4_over_v3)
from repro.models.perfmodel import geomean_speedup, perf_per_watt_ratio
from repro.models.profiles import AppProfile


class TestProfiles:
    def test_eight_apps(self):
        assert len(PRODUCTION_APPS) == 8
        kinds = {p.kind for p in PRODUCTION_APPS.values()}
        assert kinds == {"cnn", "rnn", "bert", "dlrm"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AppProfile(name="x", kind="cnn", dense_flops=1.0,
                       hbm_bytes=1.0, cmem_fraction=1.5)
        with pytest.raises(ConfigurationError):
            AppProfile(name="x", kind="cnn", dense_flops=-1.0,
                       hbm_bytes=1.0, cmem_fraction=0.5)

    def test_dlrms_have_embedding_work(self):
        for name, profile in PRODUCTION_APPS.items():
            assert (profile.embedding_rows > 0) == (profile.kind == "dlrm")


class TestFigure12:
    """Per-app v4/v3 speedups against the published bars."""

    @pytest.mark.parametrize("app", sorted(PRODUCTION_APPS))
    def test_speedup_close_to_paper(self, app):
        target = PRODUCTION_APPS[app].paper_speedup_v4_over_v3
        measured = speedup_v4_over_v3(app)
        assert measured == pytest.approx(target, rel=0.12), (app, measured)

    def test_most_apps_between_15_and_2x(self):
        # Paper: "most applications run 1.5x-2.0x faster".
        in_band = [app for app in PRODUCTION_APPS
                   if 1.5 <= speedup_v4_over_v3(app) <= 2.0]
        assert len(in_band) >= 4

    def test_dlrm0_standout(self):
        assert speedup_v4_over_v3("DLRM0") > 2.8

    def test_rnn1_standout(self):
        assert speedup_v4_over_v3("RNN1") > 3.0

    def test_geomean_21x(self):
        assert geomean_speedup() == pytest.approx(2.1, rel=0.08)


class TestFigure13:
    """CMEM ablation and performance/Watt."""

    def test_cmem_contribution_12x(self):
        contribution = geomean_speedup() / geomean_speedup(cmem=False)
        assert contribution == pytest.approx(1.2, abs=0.07)

    def test_rnn1_cmem_2x(self):
        gain = (speedup_v4_over_v3("RNN1")
                / speedup_v4_over_v3("RNN1", cmem=False))
        assert gain == pytest.approx(2.0, rel=0.2)

    def test_perf_per_watt_27x(self):
        assert perf_per_watt_ratio() == pytest.approx(2.7, rel=0.06)

    def test_cmem_never_hurts(self):
        for app in PRODUCTION_APPS:
            assert (speedup_v4_over_v3(app)
                    >= speedup_v4_over_v3(app, cmem=False) - 1e-12)


class TestStepTime:
    def test_step_time_positive(self):
        for profile in PRODUCTION_APPS.values():
            for gen in (TPUV3_GEN, TPUV4_GEN, TPUV4_GEN_NO_CMEM):
                assert gen.step_time(profile) > 0

    def test_v4_always_faster(self):
        for profile in PRODUCTION_APPS.values():
            assert TPUV4_GEN.step_time(profile) < TPUV3_GEN.step_time(profile)

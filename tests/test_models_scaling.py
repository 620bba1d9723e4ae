"""Tests for transformer configs and Figure 11 scaling curves."""

import pytest

from repro.errors import ConfigurationError
from repro.models import (GPT3_CONFIG, TransformerConfig,
                          production_scaling_curves, scaling_curve)
from repro.models.scaling import apps_scaling_well
from repro.models.transformer import model_flops_utilization


class TestTransformerConfigs:
    def test_gpt3_size(self):
        # GPT-3 is the canonical 175B-parameter model.
        assert GPT3_CONFIG.num_params == pytest.approx(175e9, rel=0.05)

    def test_bert_size(self):
        # BERT-large: ~340M parameters.
        bert = TransformerConfig(
            name="BERT", num_layers=24, d_model=1024, num_heads=16,
            d_ff=4096, seq_len=512, vocab_size=30_522)
        assert bert.num_params == pytest.approx(340e6, rel=0.15)

    def test_flops_law(self):
        assert GPT3_CONFIG.flops_per_token() == pytest.approx(
            6 * GPT3_CONFIG.num_params)

    def test_heads_divide_dmodel(self):
        with pytest.raises(ConfigurationError):
            TransformerConfig(name="bad", num_layers=2, d_model=100,
                              num_heads=3, d_ff=400, seq_len=128)

    def test_palm_mfu_regime(self):
        # The paper cites PaLM sustaining 57.8% of peak; sanity-check the
        # MFU arithmetic lands in a physical range for a GPT-3-like run.
        mfu = model_flops_utilization(
            achieved_tokens_per_second=50_000,
            config=GPT3_CONFIG, num_chips=512,
            peak_flops_per_chip=275e12)
        assert 0.2 < mfu < 0.6


class TestFigure11:
    @pytest.fixture(scope="class")
    def curves(self):
        return production_scaling_curves()

    def test_all_eight_apps(self, curves):
        assert len(curves) == 8

    def test_half_scale_well_to_3k(self, curves):
        # Paper: CNN0, RNN0, RNN1, BERT1 scale well to 3K chips.
        good = apps_scaling_well()
        for expected in ("CNN0", "RNN0", "RNN1", "BERT1"):
            assert expected in good

    def test_bert0_stops_at_2k(self, curves):
        assert curves["BERT0"].chips[-1] == 2048

    def test_dlrms_stop_at_1k(self, curves):
        assert curves["DLRM0"].chips[-1] == 1024
        assert curves["DLRM1"].chips[-1] == 1024

    def test_speedup_monotone(self, curves):
        for app, curve in curves.items():
            assert list(curve.speedup) == sorted(curve.speedup), app

    def test_speedup_at_most_ideal(self, curves):
        for app, curve in curves.items():
            for chips, speedup in zip(curve.chips, curve.speedup):
                assert speedup <= chips / curve.chips[0] * 1.001, app

    def test_dlrm_efficiency_droops(self, curves):
        # Bisection-limited all-to-all bends the DLRM curves first.
        dlrm_eff = curves["DLRM0"].efficiency()[-1]
        cnn_eff = curves["CNN0"].efficiency()[-1]
        assert dlrm_eff < cnn_eff

    def test_base_point_normalized(self, curves):
        for curve in curves.values():
            assert curve.speedup[0] == pytest.approx(1.0)

    def test_unknown_app(self):
        with pytest.raises(ConfigurationError):
            scaling_curve("GAN0")

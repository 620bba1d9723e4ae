"""Tests for repro.graph.pipeline: GPipe and 1F1B schedules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.graph.pipeline import (PipelineConfig, PipelineSchedule,
                                  analytic_bubble_fraction, simulate_pipeline)


def config(stages=4, microbatches=16, schedule=PipelineSchedule.ONE_F_ONE_B,
           permute=0.0):
    return PipelineConfig(num_stages=stages, num_microbatches=microbatches,
                          forward_seconds=1.0, backward_seconds=2.0,
                          permute_seconds=permute, schedule=schedule)


class TestConfig:
    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(num_stages=0, num_microbatches=1,
                           forward_seconds=1, backward_seconds=1)
        with pytest.raises(ConfigurationError):
            PipelineConfig(num_stages=1, num_microbatches=1,
                           forward_seconds=0, backward_seconds=1)
        with pytest.raises(ConfigurationError):
            PipelineConfig(num_stages=1, num_microbatches=1,
                           forward_seconds=1, backward_seconds=1,
                           permute_seconds=-1)

    def test_analytic_bubble_validates(self):
        with pytest.raises(ConfigurationError):
            analytic_bubble_fraction(0, 4)


class TestBubble:
    @pytest.mark.parametrize("schedule", list(PipelineSchedule))
    @pytest.mark.parametrize("stages,microbatches",
                             [(2, 4), (4, 16), (8, 8), (16, 64)])
    def test_matches_analytic_for_uniform_stages(self, schedule, stages,
                                                 microbatches):
        out = simulate_pipeline(config(stages, microbatches, schedule))
        assert out.bubble_fraction == pytest.approx(
            analytic_bubble_fraction(stages, microbatches), abs=1e-9)

    def test_single_stage_has_no_bubble(self):
        out = simulate_pipeline(config(stages=1, microbatches=8))
        assert out.bubble_fraction == pytest.approx(0.0)
        assert out.step_seconds == pytest.approx(out.ideal_seconds)

    def test_more_microbatches_shrink_bubble(self):
        bubbles = [simulate_pipeline(config(8, count)).bubble_fraction
                   for count in (8, 32, 128)]
        assert bubbles[0] > bubbles[1] > bubbles[2]

    def test_permute_time_stretches_step(self):
        fast = simulate_pipeline(config(permute=0.0))
        slow = simulate_pipeline(config(permute=0.5))
        assert slow.step_seconds > fast.step_seconds


class TestMemory:
    def test_gpipe_holds_all_microbatches(self):
        out = simulate_pipeline(config(stages=4, microbatches=32,
                                       schedule=PipelineSchedule.GPIPE))
        assert out.peak_activations == 32

    def test_1f1b_caps_at_pipeline_depth(self):
        out = simulate_pipeline(config(stages=4, microbatches=32))
        assert out.peak_activations == 4

    def test_same_step_time_both_schedules(self):
        gpipe = simulate_pipeline(config(schedule=PipelineSchedule.GPIPE))
        onef = simulate_pipeline(config())
        assert gpipe.step_seconds == pytest.approx(onef.step_seconds)


class TestAccounting:
    def test_stage_busy_equals_work(self):
        cfg = config(stages=4, microbatches=8)
        out = simulate_pipeline(cfg)
        for busy in out.stage_busy_seconds:
            assert busy == pytest.approx(
                8 * (cfg.forward_seconds + cfg.backward_seconds))

    def test_efficiency_is_complement(self):
        out = simulate_pipeline(config())
        assert out.efficiency == pytest.approx(1 - out.bubble_fraction)

    def test_table3_gpt3_depth16(self):
        # Table 3's revised GPT-3 config: pipeline depth 16.  With 64
        # microbatches the bubble is already under 20%.
        out = simulate_pipeline(config(stages=16, microbatches=64))
        assert out.bubble_fraction < 0.20
        assert out.peak_activations == 16


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 48),
       st.sampled_from(list(PipelineSchedule)))
def test_bubble_always_matches_closed_form(stages, microbatches, schedule):
    """For uniform stage times and free permutes, both schedules hit
    the (s-1)/(m+s-1) bound exactly — no scheduler-induced stalls."""
    out = simulate_pipeline(PipelineConfig(
        num_stages=stages, num_microbatches=microbatches,
        forward_seconds=1.0, backward_seconds=2.0, schedule=schedule))
    assert out.bubble_fraction == pytest.approx(
        analytic_bubble_fraction(stages, microbatches), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10), st.integers(1, 40))
def test_1f1b_memory_bound(stages, microbatches):
    """1F1B peak residency never exceeds min(stages, microbatches)."""
    out = simulate_pipeline(PipelineConfig(
        num_stages=stages, num_microbatches=microbatches,
        forward_seconds=1.0, backward_seconds=2.0))
    assert out.peak_activations <= min(stages, microbatches)

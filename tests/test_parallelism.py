"""Tests for partitioning specs, mapping, LLM cost model, and searches."""

import pytest

from repro.errors import ConfigurationError
from repro.parallelism import (PartitionSpec, Sharding, TABLE3_GPT3,
                               TABLE3_LLM, dlrm0_panas_search,
                               llm_step_cost, map_axes_to_torus,
                               original_dlrm0_balance,
                               search_best_configuration)
from repro.models.transformer import LLM_CONFIG
from repro.parallelism.mapping import feasible_specs
from repro.parallelism.panas import panas_gain, quality_neutral_point


class TestPartitionSpec:
    def test_label_matches_paper_notation(self):
        spec = PartitionSpec(16, 4, 1, 8, Sharding("1D", "1D"))
        assert spec.label == "[16,4,1,8], 1D/1D"
        assert spec.num_chips == 512

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionSpec(0, 1, 1, 1)
        with pytest.raises(ConfigurationError):
            Sharding(activations="3D")


class TestMapping:
    def test_table3_configs_map(self):
        for case in (TABLE3_LLM, TABLE3_GPT3):
            assert map_axes_to_torus(case.baseline_shape,
                                     case.baseline_spec) is not None
            assert map_axes_to_torus(case.best_shape,
                                     case.best_spec) is not None

    def test_mapping_partitions_dims(self):
        mapping = map_axes_to_torus((8, 8, 8), PartitionSpec(1, 1, 64, 8))
        claimed = [d for dims in mapping.assignment for d in dims]
        assert sorted(claimed) == [0, 1, 2]
        assert mapping.sub_shape("model1") == (8, 8)
        assert mapping.sub_shape("model2") == (8,)

    def test_infeasible_returns_none(self):
        # 3 does not divide any dim product of (4, 8, 16).
        assert map_axes_to_torus((4, 8, 16), PartitionSpec(1, 1, 3, 1)) is None

    def test_chip_count_mismatch(self):
        assert map_axes_to_torus((4, 4, 4), PartitionSpec(1, 1, 64, 8)) is None

    def test_feasible_specs_cover_paper_rows(self):
        specs = {s.axes for s in feasible_specs((4, 8, 16))}
        assert (1, 1, 16, 32) in specs or (1, 1, 32, 16) in specs
        assert (16, 4, 1, 8) in specs

    def test_feasible_specs_have_four_shardings(self):
        specs = feasible_specs((8, 8, 8))
        labels = {s.sharding.label for s in specs}
        assert labels == {"1D/1D", "1D/2D", "2D/1D", "2D/2D"}


class TestLLMCostModel:
    def test_baselines_near_paper_throughput(self):
        for case in (TABLE3_LLM, TABLE3_GPT3):
            cost = llm_step_cost(case.model, case.baseline_shape,
                                 case.baseline_spec, case.global_batch)
            assert cost.throughput_seqs == pytest.approx(
                case.paper_baseline_throughput, rel=0.18), case.name

    def test_published_best_beats_baseline(self):
        for case in (TABLE3_LLM, TABLE3_GPT3):
            base = llm_step_cost(case.model, case.baseline_shape,
                                 case.baseline_spec, case.global_batch)
            best = llm_step_cost(case.model, case.best_shape,
                                 case.best_spec, case.global_batch)
            assert best.throughput_seqs > base.throughput_seqs

    def test_mfu_in_published_regime(self):
        # The paper's best configs achieve ~0.38-0.45 MFU-class efficiency.
        best = llm_step_cost(TABLE3_LLM.model, TABLE3_LLM.best_shape,
                             TABLE3_LLM.best_spec, TABLE3_LLM.global_batch)
        assert 0.3 <= best.model_flops_utilization <= 0.95

    def test_memory_infeasible_rejected(self):
        # Pure data parallelism: a 250B-param replica per chip.
        with pytest.raises(ConfigurationError):
            llm_step_cost(TABLE3_LLM.model, (8, 8, 8),
                          PartitionSpec(1, 512, 1, 1), 512)

    def test_oversized_data_parallelism_rejected(self):
        with pytest.raises(ConfigurationError):
            llm_step_cost(TABLE3_LLM.model, (8, 8, 8),
                          PartitionSpec(1, 512, 1, 1), global_batch=16)

    def test_unmappable_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            llm_step_cost(TABLE3_LLM.model, (4, 4, 4),
                          PartitionSpec(1, 1, 64, 8), 256)


class TestTable3Golden:
    """Table 3 and the LLM cost model to the last bit.  Every all-reduce
    is the split schedule's bandwidth term on the axis's torus
    dimensions; these values predate its move onto AxisGeometry."""

    ROWS = {
        ("LLM", "baseline"): (18.730580407174003, 0.3837345350538969),
        ("LLM", "best"): (41.420316087822954, 0.8485805239467361),
        ("GPT-3 pre-training", "baseline"): (18.22000031027036,
                                             0.5046825169356429),
        ("GPT-3 pre-training", "best"): (31.229379019186325,
                                         0.8650341019399379),
    }

    def test_table3_rows(self):
        rows = {}
        for case in (TABLE3_LLM, TABLE3_GPT3):
            baseline = llm_step_cost(case.model, case.baseline_shape,
                                     case.baseline_spec, case.global_batch)
            best = search_best_configuration(case).best
            for label, cost in (("baseline", baseline), ("best", best)):
                rows[case.name, label] = (cost.throughput_seqs,
                                          cost.model_flops_utilization)
        assert rows == self.ROWS

    @pytest.mark.parametrize("model, shape, spec, seconds, tensor_comm", [
        # data, model1 and model2 on one dimension each.
        (LLM_CONFIG, (8, 8, 8), PartitionSpec(1, 8, 8, 8,
                                              Sharding("1D", "2D")),
         1.447270856761547, 0.38805648179200003),
        # model1 over two dimensions (Section 7.10's pairing).
        (LLM_CONFIG, (8, 8, 8), PartitionSpec(1, 8, 64, 1,
                                              Sharding("1D", "1D")),
         2.6701770732095467, 1.61096269824),
        # model1 on one dimension, model2 over two.
        (LLM_CONFIG, (4, 8, 16), PartitionSpec(1, 1, 16, 32,
                                               Sharding("2D", "2D")),
         4.515460667449547, 3.4633285632),
        # model1 over all three dimensions.
        (TABLE3_LLM.model, (8, 8, 8), PartitionSpec(1, 1, 512, 1,
                                                    Sharding("1D", "1D")),
         41.884472411646584, 20.905722402133332),
    ], ids=["one-dim", "two-dim", "one-and-two-dim", "three-dim"])
    def test_step_cost(self, model, shape, spec, seconds, tensor_comm):
        cost = llm_step_cost(model, shape, spec, 256)
        assert (cost.seconds, cost.tensor_comm_seconds) == (seconds,
                                                            tensor_comm)


class TestTable3Search:
    def test_llm_search_gain(self):
        result = search_best_configuration(TABLE3_LLM)
        # Paper: 2.3x over the novice pick.
        assert result.gain == pytest.approx(2.3, rel=0.15)

    def test_llm_best_found_matches_paper_throughput(self):
        result = search_best_configuration(TABLE3_LLM)
        assert result.best.throughput_seqs == pytest.approx(41.3, rel=0.15)

    def test_gpt3_search_gain(self):
        result = search_best_configuration(TABLE3_GPT3)
        # Paper: 1.2x over the expert pick; our model grants up to ~1.8.
        assert 1.1 <= result.gain <= 1.9

    def test_search_beats_published_best(self):
        for case in (TABLE3_LLM, TABLE3_GPT3):
            result = search_best_configuration(case)
            published = llm_step_cost(case.model, case.best_shape,
                                      case.best_spec, case.global_batch)
            assert (result.best.throughput_seqs
                    >= published.throughput_seqs * 0.999)

    def test_search_explores_hundreds(self):
        result = search_best_configuration(TABLE3_LLM)
        assert result.evaluated >= 200

    def test_leaderboard_sorted(self):
        result = search_best_configuration(TABLE3_GPT3)
        times = [c.seconds for c in result.leaderboard]
        assert times == sorted(times)


class TestPanas:
    def test_original_imbalance(self):
        point = original_dlrm0_balance()
        # Paper: the SC idles ~25% of the step.
        assert point.sc_idle_fraction == pytest.approx(0.25)
        assert point.dense_time == point.step_time  # the TC never idles

    def test_search_balances_pipes(self):
        best = dlrm0_panas_search()
        assert best.sc_idle_fraction < 0.05
        assert best.dense_time / best.step_time > 0.95

    def test_gain_over_10_percent(self):
        assert panas_gain() > 1.10

    def test_quality_neutral_exchange(self):
        point = quality_neutral_point(0.8)
        assert point.sparse_scale > 1.0
        with pytest.raises(ConfigurationError):
            quality_neutral_point(0.01)

    def test_step_time_is_max_of_pipes(self):
        point = quality_neutral_point(0.9)
        assert point.step_time == max(point.dense_time, point.sparse_time)

"""Tests for fleet job-stream generation."""

import dataclasses
import pickle
from bisect import bisect_right

import numpy as np
import pytest

from repro.core.slicing import blocks_needed, is_legal_shape, parse_shape
from repro.errors import ConfigurationError, SchedulingError
from repro.fleet.config import (NUM_STREAMS, STREAM_ARRIVALS, STREAM_SHAPES,
                                FleetConfig)
from repro.fleet.presets import preset_config, preset_names
from repro.fleet.serve import scenario_for
from repro.fleet.workload import (PRIORITY_BATCH, PRIORITY_PROD,
                                  PRIORITY_SERVING, FleetJob,
                                  _categorical_cdf, generate_jobs,
                                  model_type_mix, serving_shape,
                                  truncated_slice_mix)
from repro.models.dlrm import DLRMConfig
from repro.models.serving import serving_estimate
from repro.models.workload import TABLE2_SLICES
from repro.sim.rng import make_rng, spawn_rngs


def _config(**overrides) -> FleetConfig:
    defaults = dict(num_pods=1, blocks_per_pod=64,
                    horizon_seconds=86400.0,
                    arrival_window_seconds=43200.0,
                    mean_interarrival_seconds=300.0)
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestSliceMix:
    def test_truncation_respects_cap(self):
        shapes, probabilities = truncated_slice_mix(4)
        assert all(blocks_needed(s) <= 4 for s in shapes)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_full_table_at_large_cap(self):
        shapes, _ = truncated_slice_mix(64)
        assert len(shapes) == 30  # every Table 2 row

    def test_impossible_cap_would_raise(self):
        # Cap 1 still admits the sub-block rows, so it works...
        shapes, _ = truncated_slice_mix(1)
        assert all(blocks_needed(s) == 1 for s in shapes)

    def test_grid_side_filters_elongated_shapes(self):
        # 4x4x32 is only 8 blocks but its 1x1x8 extent cannot fit a
        # 4x4x4-block pod; with grid_side it must be excluded so the
        # static policy is never offered geometrically-impossible work.
        shapes, _ = truncated_slice_mix(64, grid_side=4)
        assert (4, 4, 32) not in shapes
        assert all(max(d // 4 for d in s) <= 4 for s in shapes
                   if blocks_needed(s) > 1)
        assert (8, 8, 16) in shapes  # extent 2x2x4 fits


class TestModelMix:
    def test_shares_normalized(self):
        kinds, probabilities = model_type_mix()
        assert probabilities.sum() == pytest.approx(1.0)
        assert "Transformer" in kinds
        assert "RNN" in kinds

    def test_unknown_snapshot(self):
        with pytest.raises(ConfigurationError):
            model_type_mix("TPU v9")


class TestServingShape:
    def test_shape_is_legal(self):
        shape = serving_shape(_config())
        assert is_legal_shape(shape)

    def test_qps_scales_slice(self):
        small = serving_shape(_config(serving_qps=1e4))
        large = serving_shape(_config(serving_qps=2e7))
        chips = lambda s: s[0] * s[1] * s[2]
        assert chips(large) > chips(small)


class TestGenerateJobs:
    def _jobs(self, seed=0, **overrides):
        config = _config(**overrides)
        rngs = [make_rng(seed), make_rng(seed + 1000)]
        return generate_jobs(config, arrival_rng=rngs[0],
                             shape_rng=rngs[1]), config

    def test_arrivals_inside_window_and_sorted(self):
        jobs, config = self._jobs()
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] <= config.arrival_window_seconds

    def test_shapes_respect_block_cap(self):
        jobs, config = self._jobs(max_job_blocks=4, serving_fraction=0.0)
        assert jobs
        assert all(j.blocks <= 4 for j in jobs)

    def test_shapes_fit_pod_grid(self):
        jobs, config = self._jobs(max_job_blocks=64, serving_fraction=0.0)
        side = config.pod_grid_side
        assert all(max(d // 4 for d in j.shape) <= side
                   for j in jobs if j.blocks > 1)

    def test_prod_fraction_extremes(self):
        all_prod, _ = self._jobs(prod_fraction=1.0, serving_fraction=0.0)
        assert all(j.priority == 1 for j in all_prod)
        no_prod, _ = self._jobs(prod_fraction=0.0, serving_fraction=0.0)
        assert all(j.priority == 0 for j in no_prod)

    def test_serving_jobs_marked_and_prioritized(self):
        jobs, _ = self._jobs(serving_fraction=0.5)
        serving = [j for j in jobs if j.is_serving]
        assert serving
        assert all(j.priority == PRIORITY_SERVING for j in serving)
        assert all(j.model_type == "MLP/DLRM" for j in serving)

    def test_no_serving_when_fraction_zero(self):
        jobs, _ = self._jobs(serving_fraction=0.0)
        assert all(not j.is_serving for j in jobs)

    def test_same_rng_state_reproduces_stream(self):
        first, _ = self._jobs(seed=3)
        second, _ = self._jobs(seed=3)
        assert [(j.arrival, j.shape, j.work_seconds) for j in first] == \
            [(j.arrival, j.shape, j.work_seconds) for j in second]

    def test_work_is_positive(self):
        jobs, _ = self._jobs()
        assert all(j.work_seconds > 0 for j in jobs)


def _job(shape, job_id=7):
    return FleetJob(job_id=job_id, kind="train", model_type="Transformer",
                    shape=shape, arrival=1.5, work_seconds=60.0, priority=1)


class TestJobBlocks:
    """`FleetJob.blocks` is computed on first read and then kept in the
    job's `__dict__`, without becoming a dataclass field."""

    @pytest.mark.parametrize("label",
                             [usage.label for usage in TABLE2_SLICES])
    def test_equals_blocks_needed_and_is_kept(self, label):
        shape, _ = parse_shape(label)
        job = _job(shape)
        assert "blocks" not in job.__dict__
        assert job.blocks == blocks_needed(shape)
        assert job.__dict__["blocks"] == blocks_needed(shape)
        assert job.blocks == blocks_needed(shape)

    def test_illegal_shape_raises_on_every_read(self):
        job = _job((3, 4, 4))
        for _ in range(2):
            with pytest.raises(SchedulingError, match="illegal slice"):
                job.blocks
        assert "blocks" not in job.__dict__

    def test_dataclass_surface_is_unchanged(self):
        read, unread = _job((4, 4, 8)), _job((4, 4, 8))
        assert read.blocks == 2
        assert [field.name for field in dataclasses.fields(FleetJob)] == [
            "job_id", "kind", "model_type", "shape", "arrival",
            "work_seconds", "priority"]
        assert repr(read) == (
            "FleetJob(job_id=7, kind='train', model_type='Transformer', "
            "shape=(4, 4, 8), arrival=1.5, work_seconds=60.0, priority=1)")
        assert read == unread and hash(read) == hash(unread)
        assert read != _job((4, 4, 8), job_id=8)
        for job in (read, unread):
            copy = pickle.loads(pickle.dumps(job))
            assert copy == job and copy.blocks == 2


def _distinct_mixes() -> list:
    """Every Table 2 mix a config can draw from, once each, the Table 1
    model mix, and one mix with zero entries.

    The 128 (cap, grid) pairs give only a few distinct mixes; each is
    named after the first pair that gives it.
    """
    mixes = {}
    for max_blocks in range(1, 65):
        for grid_side in (None, 4):
            _, p = truncated_slice_mix(max_blocks, grid_side=grid_side)
            mixes.setdefault(tuple(p.tolist()), pytest.param(
                p, id=f"table2-cap{max_blocks}-grid{grid_side}"))
    params = list(mixes.values())
    params.append(pytest.param(model_type_mix()[1], id="table1"))
    params.append(pytest.param(np.array([0.0, 0.5, 0.0, 0.25, 0.25, 0.0]),
                               id="zero-entries"))
    return params


class TestCategoricalDraw:
    """One ``random()`` looked up in a CDF built once is exactly the
    index and the draw of ``Generator.choice(n, p=p)``."""

    @pytest.mark.parametrize("p", _distinct_mixes())
    def test_draw_equals_generator_choice(self, p):
        cdf = _categorical_cdf(p)
        for seed in range(200):
            a, b = make_rng(seed), make_rng(seed)
            expected = [int(a.choice(len(p), p=p)) for _ in range(50)]
            drawn = [bisect_right(cdf, b.random()) for _ in range(50)]
            assert drawn == expected, seed
            assert a.bit_generator.state == b.bit_generator.state, seed

    def test_mix_off_one_within_tolerance_is_accepted_by_both(self):
        p = np.array([0.5, 0.5 + 1e-9])
        a, b = make_rng(0), make_rng(0)
        assert bisect_right(_categorical_cdf(p), b.random()) == \
            int(a.choice(len(p), p=p))

    @pytest.mark.parametrize("p", [
        pytest.param([0.6, -0.1, 0.5], id="negative"),
        pytest.param([0.5, float("nan"), 0.5], id="nan"),
        pytest.param([float("inf"), 0.0], id="inf"),
        pytest.param([0.5, 0.6], id="sums-over-one"),
        pytest.param([0.25, 0.25], id="sums-under-one"),
        pytest.param([], id="empty"),
        pytest.param([[0.5, 0.5]], id="two-dimensional"),
    ])
    def test_bad_mix_is_a_configuration_error(self, p):
        p = np.array(p, dtype=np.float64)
        with pytest.raises(ConfigurationError, match="categorical mix"):
            _categorical_cdf(p)
        # The same mixes numpy turns away on every choice call.
        with pytest.raises(ValueError):
            make_rng(0).choice(len(p), p=p)


def _choice_generate_jobs(config: FleetConfig, *,
                          arrival_rng: np.random.Generator,
                          shape_rng: np.random.Generator) -> list[FleetJob]:
    """The job stream drawn with ``Generator.choice``: the reference."""
    shapes, shape_p = truncated_slice_mix(
        config.max_job_blocks,
        grid_side=None if config.machine_wide_jobs
        else config.pod_grid_side)
    kinds, kind_p = model_type_mix()
    serve_shape = serving_shape(config) if config.serving_fraction > 0 \
        else None
    jobs: list[FleetJob] = []
    clock = 0.0
    while True:
        clock += float(arrival_rng.exponential(
            config.mean_interarrival_seconds))
        if clock > config.arrival_window_seconds:
            break
        job_id = len(jobs)
        if serve_shape is not None and \
                shape_rng.random() < config.serving_fraction:
            jobs.append(FleetJob(
                job_id=job_id, kind="serve", model_type="MLP/DLRM",
                shape=serve_shape, arrival=clock,
                work_seconds=float(shape_rng.exponential(
                    config.mean_serving_seconds)),
                priority=PRIORITY_SERVING))
            continue
        shape = shapes[int(shape_rng.choice(len(shapes), p=shape_p))]
        model = kinds[int(shape_rng.choice(len(kinds), p=kind_p))]
        priority = PRIORITY_PROD \
            if shape_rng.random() < config.prod_fraction \
            else PRIORITY_BATCH
        jobs.append(FleetJob(
            job_id=job_id, kind="train", model_type=model, shape=shape,
            arrival=clock,
            work_seconds=float(shape_rng.exponential(
                config.mean_job_seconds)),
            priority=priority))
    return jobs


class TestJobStreamEqualsChoiceReference:
    """Every preset covers the serving, machine-wide and grid-filtered
    mixes; each seed's stream must equal the ``choice`` draw's."""

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_streams(self, name):
        config = preset_config(name)
        for seed in range(10):
            rngs, twins = spawn_rngs(seed, NUM_STREAMS), \
                spawn_rngs(seed, NUM_STREAMS)
            jobs = generate_jobs(config, arrival_rng=rngs[STREAM_ARRIVALS],
                                 shape_rng=rngs[STREAM_SHAPES])
            expected = _choice_generate_jobs(
                config, arrival_rng=twins[STREAM_ARRIVALS],
                shape_rng=twins[STREAM_SHAPES])
            assert jobs == expected, seed
            assert rngs[STREAM_SHAPES].bit_generator.state == \
                twins[STREAM_SHAPES].bit_generator.state, seed


#: Serving slice of every preset that generates serving jobs, and the
#: zero-load step of each replica size the `surge` scenario's pools
#: stand up.  Job streams and replica pools size from these, so every
#: summary digest rests on them: a change here is a model change.
SERVING_SHAPES = {name: (4, 4, 4) for name in (
    "deploy_week", "edge", "hyperscale", "large", "medium", "replay",
    "serve_surge", "serving", "small", "tiny")}
SURGE_REPLICA_STEP_SECONDS = {16: 0.00011594049586776859,
                              32: 0.00011594049586776859}


class TestServingSizesPinned:
    def test_every_serving_preset_is_pinned(self):
        assert set(SERVING_SHAPES) == {
            name for name in preset_names()
            if preset_config(name).serving_fraction > 0}

    @pytest.mark.parametrize("name", sorted(SERVING_SHAPES))
    def test_serving_shape(self, name):
        assert serving_shape(preset_config(name)) == SERVING_SHAPES[name]

    def test_surge_replica_steps(self):
        scenario = scenario_for("surge", preset_config("serve_surge"))
        assert {model.replica_chips for model in scenario.models} == \
            set(SURGE_REPLICA_STEP_SECONDS)
        for chips, step in SURGE_REPLICA_STEP_SECONDS.items():
            assert serving_estimate(DLRMConfig(), chips).step_seconds == \
                step, chips

"""Trace record/replay round-trips and JSONL schema validation.

Two contracts: (1) replaying a recorded trace reproduces the recorded
run's telemetry byte for byte — through in-memory serialization and
through an actual file on disk; (2) the loader rejects malformed,
wrong-version, and out-of-contract traces loudly, line by line, before
a single event fires.
"""

import dataclasses
import json
import re

import pytest

from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.errors import TraceError
from repro.fleet import (BlockOutage, FleetSimulator, FleetTrace,
                         TraceWorkload, dumps_trace, load_trace,
                         loads_trace, preset_config, record_trace,
                         save_trace, schedule_for, trace_of,
                         validate_trace)


def _summary_json(report):
    return json.dumps(report.summary, sort_keys=True)


@pytest.fixture(scope="module")
def tiny_text():
    """Valid JSONL text of a recorded tiny-preset run (shared, cheap)."""
    return dumps_trace(record_trace(preset_config("tiny"), seed=0))


def _mutated(text, line_index, record=None, raw=None):
    """The trace text with one line replaced (by a record or raw text)."""
    lines = text.splitlines()
    lines[line_index] = json.dumps(record) if raw is None else raw
    return "\n".join(lines) + "\n"


def _line(text, line_index):
    return json.loads(text.splitlines()[line_index])


class TestRoundTrip:
    def test_small_preset_file_replay_byte_identical(self, tmp_path):
        # The satellite's wording, literally: record a small-preset
        # run, write the trace to disk, load it back, replay, and the
        # telemetry JSON must be byte-identical.
        config = preset_config("small")
        recorded = FleetSimulator(config, seed=0)
        path = save_trace(trace_of(recorded), tmp_path / "run.jsonl")
        replayed = FleetSimulator.from_trace(load_trace(path))
        assert _summary_json(recorded.run(PlacementPolicy.OCS)) == \
            _summary_json(replayed.run(PlacementPolicy.OCS))
        assert _summary_json(recorded.run(PlacementPolicy.STATIC)) == \
            _summary_json(replayed.run(PlacementPolicy.STATIC))

    def test_text_round_trip_is_lossless(self, tiny_text):
        trace = loads_trace(tiny_text)
        assert dumps_trace(trace) == tiny_text
        assert loads_trace(dumps_trace(trace)) == trace

    def test_round_trip_preserves_structure(self, tiny_text):
        original = record_trace(preset_config("tiny"), seed=0)
        loaded = loads_trace(tiny_text)
        assert loaded.seed == original.seed
        assert loaded.config == original.config
        assert loaded.jobs == original.jobs
        assert loaded.outages == original.outages
        assert loaded.windows == ()

    def test_windows_survive_round_trip(self):
        config = preset_config("small")
        schedule = schedule_for("deploy_week", config)
        trace = record_trace(config, seed=1, windows=schedule.windows)
        loaded = loads_trace(dumps_trace(trace))
        assert loaded.windows == schedule.windows
        recorded = FleetSimulator(config, seed=1,
                                  windows=schedule.windows)
        replayed = FleetSimulator.from_trace(loaded)
        first = recorded.run(PlacementPolicy.OCS)
        second = replayed.run(PlacementPolicy.OCS)
        assert first.drain_fraction == second.drain_fraction > 0
        assert _summary_json(first) == _summary_json(second)

    def test_replay_composes_with_strategy_sweep(self):
        trace = loads_trace(dumps_trace(
            record_trace(preset_config("tiny"), seed=2)))
        simulator = FleetSimulator.from_trace(trace)
        reports = {s: simulator.run(PlacementPolicy.OCS, s)
                   for s in PlacementStrategy}
        submitted = {r.summary["jobs_submitted"]
                     for r in reports.values()}
        failures = {r.summary["block_failures"] for r in reports.values()}
        assert len(submitted) == 1 and len(failures) == 1

    def test_trace_workload_is_interchangeable(self):
        # TraceWorkload slots into the generate_jobs seam: a simulator
        # fed the recorded jobs explicitly equals a full trace replay.
        config = preset_config("tiny")
        original = FleetSimulator(config, seed=3)
        via_workload = FleetSimulator(
            config, seed=3, workload=TraceWorkload(tuple(original.jobs)))
        assert via_workload.jobs == original.jobs
        assert _summary_json(original.run(PlacementPolicy.OCS)) == \
            _summary_json(via_workload.run(PlacementPolicy.OCS))

    def test_trace_workload_ignores_rngs(self):
        jobs = tuple(FleetSimulator(preset_config("tiny"), seed=4).jobs)
        workload = TraceWorkload(jobs)
        assert workload(preset_config("tiny")) == list(jobs)
        assert len(workload) == len(jobs)

    def test_from_trace_config_override_keeps_inputs(self):
        # Replay-under-different-knobs: the config changes, the dice
        # do not.
        trace = record_trace(preset_config("tiny"), seed=5)
        harsher = trace.config.with_overrides(
            reconfig_base_seconds=300.0)
        replayed = FleetSimulator.from_trace(trace, config=harsher)
        assert replayed.jobs == list(trace.jobs)
        assert replayed.trace == list(trace.outages)
        assert replayed.config.reconfig_base_seconds == 300.0


class TestHeaderValidation:
    def test_wrong_version_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["version"] = 99
        with pytest.raises(TraceError, match="unsupported trace version"):
            loads_trace(_mutated(tiny_text, 0, header))

    def test_version_one_header_rejected_on_its_version(self, tiny_text):
        # A version-1 header still carries the retired `determinism`
        # config key; the loader must reject it by version, before any
        # ConfigurationError from deep inside FleetConfig.from_dict.
        header = _line(tiny_text, 0)
        header["version"] = 1
        header["config"]["determinism"] = "strict"
        with pytest.raises(TraceError,
                           match="unsupported trace version 1 "):
            loads_trace(_mutated(tiny_text, 0, header))

    def test_version_two_header_rejected_on_its_version(self, tiny_text):
        # A version-2 header still carries the retired `observability`
        # config key; the loader must reject it by version, before any
        # ConfigurationError from deep inside FleetConfig.from_dict.
        header = _line(tiny_text, 0)
        header["version"] = 2
        header["config"]["observability"] = True
        with pytest.raises(TraceError,
                           match="unsupported trace version 2 "):
            loads_trace(_mutated(tiny_text, 0, header))

    def test_wrong_schema_tag_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["schema"] = "some.other.jsonl"
        with pytest.raises(TraceError, match="not a fleet trace"):
            loads_trace(_mutated(tiny_text, 0, header))

    def test_missing_header_rejected(self, tiny_text):
        body = "\n".join(tiny_text.splitlines()[1:]) + "\n"
        with pytest.raises(TraceError,
                           match="first record must be the header"):
            loads_trace(body)

    def test_duplicate_header_rejected(self, tiny_text):
        first = tiny_text.splitlines()[0]
        with pytest.raises(TraceError, match="duplicate header"):
            loads_trace(first + "\n" + tiny_text)

    def test_empty_text_rejected(self):
        with pytest.raises(TraceError, match="no header"):
            loads_trace("")

    def test_negative_seed_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["seed"] = -1
        with pytest.raises(TraceError, match="seed must be >= 0"):
            loads_trace(_mutated(tiny_text, 0, header))

    def test_invalid_config_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["config"]["num_pods"] = 0
        with pytest.raises(TraceError, match="invalid config"):
            loads_trace(_mutated(tiny_text, 0, header))

    def test_unknown_serve_scenario_rejected(self, tiny_text):
        # The replay resolves the name, so an unknown one must fail
        # here, at load, as an unknown serve_autoscaler does.
        header = _line(tiny_text, 0)
        header["config"]["serve_scenario"] = "steady"
        assert loads_trace(_mutated(tiny_text, 0, header)) \
            .config.serve_scenario == "steady"
        header["config"]["serve_scenario"] = "bogus"
        with pytest.raises(TraceError, match="trace line 1: invalid "
                           "config: unknown serve scenario 'bogus'"):
            loads_trace(_mutated(tiny_text, 0, header))

    def test_unknown_config_field_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["config"]["flux_capacitor"] = 1.21
        # Unknown keys route through FleetConfig.from_dict, which
        # names the offender instead of a bare TypeError.
        with pytest.raises(TraceError, match="flux_capacitor"):
            loads_trace(_mutated(tiny_text, 0, header))

    def test_non_object_config_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["config"] = "tiny"
        with pytest.raises(TraceError, match="config must be an object"):
            loads_trace(_mutated(tiny_text, 0, header))


class TestRecordValidation:
    def test_truncated_json_line_rejected(self, tiny_text):
        broken = _mutated(tiny_text, 1,
                          raw=tiny_text.splitlines()[1][:-10])
        with pytest.raises(TraceError, match="line 2: not valid JSON"):
            loads_trace(broken)

    def test_non_object_line_rejected(self, tiny_text):
        with pytest.raises(TraceError, match="expected an object"):
            loads_trace(_mutated(tiny_text, 1, raw="[1, 2, 3]"))

    def test_unknown_record_type_rejected(self, tiny_text):
        with pytest.raises(TraceError, match="unknown record type"):
            loads_trace(_mutated(tiny_text, 1, {"type": "snack"}))

    def test_unknown_key_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["tpu_generation"] = 4
        with pytest.raises(TraceError, match="unknown keys"):
            loads_trace(_mutated(tiny_text, 1, job))

    def test_missing_key_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        del job["work_seconds"]
        with pytest.raises(TraceError, match="missing required key"):
            loads_trace(_mutated(tiny_text, 1, job))

    def test_bad_kind_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["kind"] = "mine"
        with pytest.raises(TraceError, match="kind must be"):
            loads_trace(_mutated(tiny_text, 1, job))

    @pytest.mark.parametrize("shape", [
        [4, 4], [4, 4, 4, 4], [4, 4, 0], [4, 4, -4], [4, 4, 4.0],
        "4x4x4", [4, 4, True]])
    def test_bad_shape_rejected(self, tiny_text, shape):
        job = _line(tiny_text, 1)
        job["shape"] = shape
        with pytest.raises(TraceError, match="shape must be three"):
            loads_trace(_mutated(tiny_text, 1, job))

    def test_illegal_slice_shape_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["shape"] = [3, 5, 7]  # not a legal TPU v4 slice
        with pytest.raises(TraceError, match="illegal slice shape"):
            loads_trace(_mutated(tiny_text, 1, job))

    def test_oversized_shape_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["shape"] = [16, 16, 32]  # 128 blocks > tiny's 64
        with pytest.raises(TraceError, match="needs 128 blocks"):
            loads_trace(_mutated(tiny_text, 1, job))

    def test_negative_arrival_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["arrival"] = -1.0
        with pytest.raises(TraceError, match="arrival must be >= 0"):
            loads_trace(_mutated(tiny_text, 1, job))

    def test_arrival_past_horizon_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["arrival"] = 10 * 86400.0
        with pytest.raises(TraceError, match="past the horizon"):
            loads_trace(_mutated(tiny_text, 1, job))

    def test_non_finite_float_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        raw = json.dumps(job).replace(
            json.dumps(job["work_seconds"]), "NaN", 1)
        with pytest.raises(TraceError, match="must be finite"):
            loads_trace(_mutated(tiny_text, 1, raw=raw))

    def test_zero_work_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["work_seconds"] = 0.0
        with pytest.raises(TraceError, match="work_seconds must be > 0"):
            loads_trace(_mutated(tiny_text, 1, job))

    def test_boolean_int_field_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["priority"] = True  # bools are ints in Python; not here
        with pytest.raises(TraceError, match="must be an integer"):
            loads_trace(_mutated(tiny_text, 1, job))


class TestIntervalValidation:
    @pytest.fixture()
    def outage_index(self, tiny_text):
        lines = tiny_text.splitlines()
        return next(i for i, line in enumerate(lines)
                    if json.loads(line)["type"] == "outage")

    def test_outage_end_before_start_rejected(self, tiny_text,
                                              outage_index):
        outage = _line(tiny_text, outage_index)
        outage["end"] = outage["start"]
        with pytest.raises(TraceError, match="must be after start"):
            loads_trace(_mutated(tiny_text, outage_index, outage))

    def test_outage_pod_out_of_range_rejected(self, tiny_text,
                                              outage_index):
        outage = _line(tiny_text, outage_index)
        outage["pod_id"] = 7  # tiny has one pod
        with pytest.raises(TraceError, match="pod_id 7 out of range"):
            loads_trace(_mutated(tiny_text, outage_index, outage))

    def test_outage_block_out_of_range_rejected(self, tiny_text,
                                                outage_index):
        outage = _line(tiny_text, outage_index)
        outage["block_id"] = 64
        with pytest.raises(TraceError, match="block_id 64 out of range"):
            loads_trace(_mutated(tiny_text, outage_index, outage))

    def test_outage_past_horizon_rejected(self, tiny_text, outage_index):
        outage = _line(tiny_text, outage_index)
        outage["end"] = 10 * 86400.0
        with pytest.raises(TraceError, match="past the horizon"):
            loads_trace(_mutated(tiny_text, outage_index, outage))

    def test_non_boolean_via_spare_rejected(self, tiny_text,
                                            outage_index):
        outage = _line(tiny_text, outage_index)
        outage["via_spare"] = "no"
        with pytest.raises(TraceError, match="via_spare must be"):
            loads_trace(_mutated(tiny_text, outage_index, outage))

    def test_drain_validation_shares_interval_rules(self, tiny_text):
        drain = {"type": "drain", "pod_id": 0, "block_id": 0,
                 "start": 100.0, "end": 50.0}
        with pytest.raises(TraceError, match="must be after start"):
            loads_trace(tiny_text + json.dumps(drain) + "\n")


class TestOrderingValidation:
    def test_unsorted_jobs_rejected(self, tiny_text):
        first, second = _line(tiny_text, 1), _line(tiny_text, 2)
        assert second["type"] == "job"
        swapped = _mutated(_mutated(tiny_text, 1, second), 2, first)
        with pytest.raises(TraceError, match="sorted\\s+by arrival"):
            loads_trace(swapped)

    def test_duplicate_job_id_rejected(self, tiny_text):
        second = _line(tiny_text, 2)
        second["job_id"] = _line(tiny_text, 1)["job_id"]
        second["arrival"] = _line(tiny_text, 1)["arrival"]
        with pytest.raises(TraceError, match="duplicate job_id"):
            loads_trace(_mutated(tiny_text, 2, second))

    def test_overlapping_same_block_outages_rejected(self, tiny_text):
        # A block already down cannot fail again: overlapping outages
        # would fire an up event mid-outage on replay and revive a
        # dead block, so validation must reject them.
        trace = loads_trace(tiny_text)
        first = trace.outages[0]
        shadow = BlockOutage(pod_id=first.pod_id, block_id=first.block_id,
                             start=(first.start + first.end) / 2,
                             end=first.end + 1.0)
        overlapped = tuple(sorted(
            trace.outages + (shadow,),
            key=lambda o: (o.start, o.pod_id, o.block_id)))
        with pytest.raises(TraceError, match="overlap"):
            validate_trace(dataclasses.replace(trace,
                                               outages=overlapped))

    def test_overlapping_outage_lines_rejected_on_load(self, tiny_text):
        trace = loads_trace(tiny_text)
        first = trace.outages[0]
        shadow = BlockOutage(pod_id=first.pod_id, block_id=first.block_id,
                             start=(first.start + first.end) / 2,
                             end=min(first.end + 1.0,
                                     trace.config.horizon_seconds))
        overlapped = dataclasses.replace(trace, outages=tuple(sorted(
            trace.outages + (shadow,),
            key=lambda o: (o.start, o.pod_id, o.block_id))))
        with pytest.raises(TraceError, match="overlap"):
            loads_trace(dumps_trace(overlapped))

    def test_unsorted_outages_rejected(self, tiny_text):
        trace = loads_trace(tiny_text)
        assert len(trace.outages) >= 2
        shuffled = FleetTrace(
            seed=trace.seed, config=trace.config, jobs=trace.jobs,
            outages=tuple(reversed(trace.outages)),
            windows=trace.windows)
        with pytest.raises(TraceError, match="must be sorted"):
            validate_trace(shuffled)

    def test_validate_trace_passes_recorded(self, tiny_text):
        validate_trace(loads_trace(tiny_text))  # no raise


class TestFileHandling:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            load_trace(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("binary", [False, True],
                             ids=["directory", "non-utf8"])
    def test_unreadable_file_rejected(self, tmp_path, binary):
        path = tmp_path
        if binary:
            path = tmp_path / "binary.jsonl"
            path.write_bytes(b"\xff\xfe")
        with pytest.raises(TraceError, match=f"cannot read trace file "
                                             f"{re.escape(str(path))}"):
            load_trace(path)

    def test_blank_lines_tolerated(self, tiny_text):
        padded = tiny_text.replace("\n", "\n\n", 3)
        assert loads_trace(padded) == loads_trace(tiny_text)

    def test_save_load_file_round_trip(self, tmp_path, tiny_text):
        trace = loads_trace(tiny_text)
        path = save_trace(trace, tmp_path / "t.jsonl")
        assert path.read_text() == tiny_text
        assert load_trace(path) == trace

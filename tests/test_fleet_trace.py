"""Trace record/replay round-trips and JSONL schema validation.

Two contracts: (1) replaying a recorded trace reproduces the recorded
run's telemetry byte for byte — through in-memory serialization and
through an actual file on disk; (2) the loader rejects malformed,
wrong-version, and out-of-contract traces loudly, line by line, before
a single event fires.  The writer and the loader are also held to the
reference codec below: the same text, and the same trace or the same
error message.
"""

import dataclasses
import functools
import hashlib
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import PlacementPolicy, PlacementStrategy
from repro.core.slicing import blocks_needed
from repro.errors import ConfigurationError, SchedulingError, TraceError
from repro.fleet import (BlockOutage, DrainWindow, FleetConfig, FleetJob,
                         FleetSimulator, FleetTrace, TRACE_VERSION,
                         TraceWorkload, dumps_trace, load_trace,
                         loads_trace, preset_config, record_trace,
                         save_trace, schedule_for, trace_of,
                         validate_trace)
from repro.fleet.serve.scenarios import scenario_for
from repro.fleet.trace import TRACE_SCHEMA


def _summary_json(report):
    return json.dumps(report.summary, sort_keys=True)


# -- the reference codec ------------------------------------------------------
#
# The writer and reader as they stood before the writer's key-sorted line
# templates and the reader's per-type tests, kept to require equal text, an
# equal trace, or the same exception with the same message.


def _reference_dumps_trace(trace):
    lines = [json.dumps({
        "type": "header", "schema": TRACE_SCHEMA, "version": trace.version,
        "seed": trace.seed, "config": trace.config.to_dict(),
    }, sort_keys=True)]
    for job in trace.jobs:
        lines.append(json.dumps({
            "type": "job", "job_id": job.job_id, "kind": job.kind,
            "model_type": job.model_type, "shape": list(job.shape),
            "arrival": job.arrival, "work_seconds": job.work_seconds,
            "priority": job.priority,
        }, sort_keys=True))
    for outage in trace.outages:
        lines.append(json.dumps({
            "type": "outage", "pod_id": outage.pod_id,
            "block_id": outage.block_id, "start": outage.start,
            "end": outage.end, "via_spare": outage.via_spare,
        }, sort_keys=True))
    for window in trace.windows:
        lines.append(json.dumps({
            "type": "drain", "pod_id": window.pod_id,
            "block_id": window.block_id, "start": window.start,
            "end": window.end,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


_REFERENCE_JOB_KEYS = {"type", "job_id", "kind", "model_type", "shape",
                       "arrival", "work_seconds", "priority"}
_REFERENCE_OUTAGE_KEYS = {"type", "pod_id", "block_id", "start", "end",
                          "via_spare"}
_REFERENCE_DRAIN_KEYS = {"type", "pod_id", "block_id", "start", "end"}
_REFERENCE_HEADER_KEYS = {"type", "schema", "version", "seed", "config"}


def _reference_fail(line_no, message):
    return TraceError(f"trace line {line_no}: {message}")


def _reference_field(record, key, line_no):
    if key not in record:
        raise _reference_fail(line_no, f"missing required key {key!r}")
    return record[key]


def _reference_int_field(record, key, line_no, *, minimum=None):
    value = _reference_field(record, key, line_no)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _reference_fail(line_no, f"{key} must be an integer, "
                                       f"got {value!r}")
    if minimum is not None and value < minimum:
        raise _reference_fail(line_no, f"{key} must be >= {minimum}, "
                                       f"got {value}")
    return value


def _reference_float_field(record, key, line_no, *, minimum=None):
    value = _reference_field(record, key, line_no)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _reference_fail(line_no, f"{key} must be a number, "
                                       f"got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise _reference_fail(line_no, f"{key} must be finite, "
                                       f"got {value!r}")
    if minimum is not None and value < minimum:
        raise _reference_fail(line_no, f"{key} must be >= {minimum}, "
                                       f"got {value}")
    return value


def _reference_check_keys(record, allowed, line_no):
    unknown = set(record) - allowed
    if unknown:
        raise _reference_fail(line_no, f"unknown keys {sorted(unknown)}; "
                                       f"schema version {TRACE_VERSION} "
                                       f"allows {sorted(allowed)}")


def _reference_parse_header(record, line_no):
    _reference_check_keys(record, _REFERENCE_HEADER_KEYS, line_no)
    schema = _reference_field(record, "schema", line_no)
    if schema != TRACE_SCHEMA:
        raise _reference_fail(line_no, f"not a fleet trace (schema "
                                       f"{schema!r}, expected "
                                       f"{TRACE_SCHEMA!r})")
    version = _reference_int_field(record, "version", line_no)
    if version != TRACE_VERSION:
        raise _reference_fail(line_no, f"unsupported trace version "
                                       f"{version} (this library reads "
                                       f"version {TRACE_VERSION})")
    seed = _reference_int_field(record, "seed", line_no, minimum=0)
    payload = _reference_field(record, "config", line_no)
    if not isinstance(payload, dict):
        raise _reference_fail(line_no, "config must be an object")
    try:
        config = FleetConfig.from_dict(payload)
        if config.serve_scenario:
            scenario_for(config.serve_scenario, config)
    except TypeError as exc:
        raise _reference_fail(line_no, f"bad config: {exc}") from exc
    except ConfigurationError as exc:
        raise _reference_fail(line_no, f"invalid config: {exc}") from exc
    return seed, config


def _reference_parse_job(record, config, line_no):
    _reference_check_keys(record, _REFERENCE_JOB_KEYS, line_no)
    kind = _reference_field(record, "kind", line_no)
    if kind not in ("train", "serve"):
        raise _reference_fail(line_no, f"kind must be 'train' or 'serve', "
                                       f"got {kind!r}")
    model = _reference_field(record, "model_type", line_no)
    if not isinstance(model, str):
        raise _reference_fail(line_no, f"model_type must be a string, "
                                       f"got {model!r}")
    raw_shape = _reference_field(record, "shape", line_no)
    if not (isinstance(raw_shape, list) and len(raw_shape) == 3 and
            all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                for d in raw_shape)):
        raise _reference_fail(line_no, f"shape must be three positive "
                                       f"integers, got {raw_shape!r}")
    shape = tuple(raw_shape)
    try:
        blocks = blocks_needed(shape)
    except SchedulingError as exc:
        raise _reference_fail(line_no, f"illegal slice shape {shape}: "
                                       f"{exc}") from exc
    if blocks > config.total_blocks:
        raise _reference_fail(line_no, f"shape {shape} needs {blocks} "
                                       f"blocks but the fleet has "
                                       f"{config.total_blocks}")
    arrival = _reference_float_field(record, "arrival", line_no,
                                     minimum=0.0)
    if arrival > config.horizon_seconds:
        raise _reference_fail(line_no, f"arrival {arrival} is past the "
                                       f"horizon {config.horizon_seconds}")
    work = _reference_float_field(record, "work_seconds", line_no)
    if work <= 0:
        raise _reference_fail(line_no, f"work_seconds must be > 0, "
                                       f"got {work}")
    return FleetJob(
        job_id=_reference_int_field(record, "job_id", line_no, minimum=0),
        kind=kind, model_type=model, shape=shape, arrival=arrival,
        work_seconds=work,
        priority=_reference_int_field(record, "priority", line_no,
                                      minimum=0))


def _reference_parse_block_interval(record, config, line_no):
    pod_id = _reference_int_field(record, "pod_id", line_no, minimum=0)
    if pod_id >= config.num_pods:
        raise _reference_fail(line_no, f"pod_id {pod_id} out of range "
                                       f"[0, {config.num_pods})")
    block_id = _reference_int_field(record, "block_id", line_no, minimum=0)
    if block_id >= config.blocks_per_pod:
        raise _reference_fail(line_no, f"block_id {block_id} out of range "
                                       f"[0, {config.blocks_per_pod})")
    start = _reference_float_field(record, "start", line_no, minimum=0.0)
    end = _reference_float_field(record, "end", line_no)
    if end <= start:
        raise _reference_fail(line_no, f"end {end} must be after start "
                                       f"{start}")
    if end > config.horizon_seconds:
        raise _reference_fail(line_no, f"end {end} is past the horizon "
                                       f"{config.horizon_seconds}")
    return pod_id, block_id, start, end


def _reference_parse_outage(record, config, line_no):
    _reference_check_keys(record, _REFERENCE_OUTAGE_KEYS, line_no)
    pod_id, block_id, start, end = _reference_parse_block_interval(
        record, config, line_no)
    via_spare = _reference_field(record, "via_spare", line_no)
    if not isinstance(via_spare, bool):
        raise _reference_fail(line_no, f"via_spare must be a boolean, "
                                       f"got {via_spare!r}")
    return BlockOutage(pod_id=pod_id, block_id=block_id, start=start,
                       end=end, via_spare=via_spare)


def _reference_parse_drain(record, config, line_no):
    _reference_check_keys(record, _REFERENCE_DRAIN_KEYS, line_no)
    pod_id, block_id, start, end = _reference_parse_block_interval(
        record, config, line_no)
    return DrainWindow(pod_id=pod_id, block_id=block_id, start=start,
                       end=end)


def _reference_loads_trace(text):
    jobs, outages, windows = [], [], []
    seed = config = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _reference_fail(line_no, f"not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise _reference_fail(line_no, f"expected an object, got "
                                           f"{type(record).__name__}")
        kind = record.get("type")
        if config is None:
            if kind != "header":
                raise _reference_fail(line_no,
                                      "first record must be the header")
            seed, config = _reference_parse_header(record, line_no)
            continue
        if kind == "header":
            raise _reference_fail(line_no, "duplicate header")
        if kind == "job":
            jobs.append(_reference_parse_job(record, config, line_no))
        elif kind == "outage":
            outages.append(_reference_parse_outage(record, config, line_no))
        elif kind == "drain":
            windows.append(_reference_parse_drain(record, config, line_no))
        else:
            raise _reference_fail(line_no, f"unknown record type {kind!r}")
    if config is None or seed is None:
        raise TraceError("empty trace: no header record")
    trace = FleetTrace(seed=seed, config=config, jobs=tuple(jobs),
                       outages=tuple(outages), windows=tuple(windows))
    validate_trace(trace)
    return trace


def _outcome(read, text):
    """What `read(text)` returns, or the type and text it raises."""
    try:
        return read(text)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


def _assert_reads_as_reference(text):
    """loads_trace returns a trace equal to the reference reader's, that
    writes the same text, or raises the same exception type with the
    same message; returns that outcome."""
    got = _outcome(loads_trace, text)
    expected = _outcome(_reference_loads_trace, text)
    assert got == expected
    if isinstance(expected, FleetTrace):
        assert dumps_trace(got) == _reference_dumps_trace(expected)
    return got


def _rejects(text, match):
    """loads_trace rejects `text` with a TraceError matching `match`, in
    the reference reader's exact words."""
    outcome = _assert_reads_as_reference(text)
    assert isinstance(outcome, tuple), "the trace loaded"
    kind, message = outcome
    assert kind is TraceError and re.search(match, message), message




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


#: sha256 of the trace `fleet record --preset P --seed 0` writes, as the
#: json.dumps writer above writes it (the CI determinism job checks the
#: same three files).
_PINNED = {
    "replay":
        "c7594818d6abc7f9b0f7973e8a59d4b502f90c4b932e502931a1a03b44029429",
    "edge":
        "73f902f69abbd788f553d097f37346b4199bdacb296e4155faf9b3e09ddb399c",
    "hyperscale":
        "2e4a5947baf75e0335087a073d364a0a5bf61f192f513ccad5a58874401ceaae",
}


def _hand_built_trace(**job_overrides):
    """A trace of values the recorder never draws: non-ASCII and empty
    model types, a numpy.float64 arrival, -0.0, both via_spare bools."""
    jobs = (
        FleetJob(job_id=0, kind="train",
                 model_type='q"uo\\te caf\u00e9 \u2028 \U0001f600',
                 shape=(4, 4, 4), arrival=np.float64(12.5),
                 work_seconds=3600.0, priority=1),
        dataclasses.replace(FleetJob(
            job_id=1, kind="serve", model_type="", shape=(1, 2, 2),
            arrival=-0.0, work_seconds=1e300, priority=0),
            **job_overrides))
    return FleetTrace(
        seed=3, config=preset_config("tiny"), jobs=jobs,
        outages=(BlockOutage(0, 7, 100.0, 900.0, via_spare=True),
                 BlockOutage(0, 8, 100.0, 900.5, via_spare=False)),
        windows=(DrainWindow(0, 3, 86400.0, 90000.0),))


class TestWriterBytes:
    """dumps_trace writes exactly the json.dumps(sort_keys=True) lines
    of the reference writer, pinned and side by side."""

    @pytest.mark.parametrize("preset", sorted(_PINNED))
    def test_pinned_digests(self, preset):
        text = dumps_trace(record_trace(preset_config(preset), seed=0))
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED[preset]

    @pytest.mark.parametrize("preset", ["tiny", "edge", "hyperscale"])
    def test_matches_reference_on_presets(self, preset):
        trace = record_trace(preset_config(preset), seed=0)
        assert dumps_trace(trace) == _reference_dumps_trace(trace)

    def test_matches_reference_with_drain_windows(self):
        config = preset_config("small")
        trace = record_trace(config, seed=1, windows=schedule_for(
            "deploy_week", config).windows)
        assert trace.windows
        assert dumps_trace(trace) == _reference_dumps_trace(trace)

    def test_matches_reference_on_hand_built_values(self):
        trace = _hand_built_trace()
        text = dumps_trace(trace)
        assert text == _reference_dumps_trace(trace)
        assert "\\u00e9" in text and '"arrival": -0.0' in text

    def test_unencodable_value_is_the_same_type_error(self):
        trace = _hand_built_trace(priority=np.int64(2))
        with pytest.raises(TypeError) as expected:
            _reference_dumps_trace(trace)
        with pytest.raises(TypeError) as got:
            dumps_trace(trace)
        assert str(got.value) == str(expected.value)


class TestHeaderValidation:
    def test_wrong_version_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["version"] = 99
        _rejects(_mutated(tiny_text, 0, header), "unsupported trace version")

    def test_version_one_header_rejected_on_its_version(self, tiny_text):
        # A version-1 header still carries the retired `determinism`
        # config key; the loader must reject it by version, before any
        # ConfigurationError from deep inside FleetConfig.from_dict.
        header = _line(tiny_text, 0)
        header["version"] = 1
        header["config"]["determinism"] = "strict"
        _rejects(_mutated(tiny_text, 0, header),
                 "unsupported trace version 1 ")

    def test_version_two_header_rejected_on_its_version(self, tiny_text):
        # A version-2 header still carries the retired `observability`
        # config key; the loader must reject it by version, before any
        # ConfigurationError from deep inside FleetConfig.from_dict.
        header = _line(tiny_text, 0)
        header["version"] = 2
        header["config"]["observability"] = True
        _rejects(_mutated(tiny_text, 0, header),
                 "unsupported trace version 2 ")

    def test_wrong_schema_tag_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["schema"] = "some.other.jsonl"
        _rejects(_mutated(tiny_text, 0, header), "not a fleet trace")

    def test_missing_header_rejected(self, tiny_text):
        body = "\n".join(tiny_text.splitlines()[1:]) + "\n"
        _rejects(body, "first record must be the header")

    def test_duplicate_header_rejected(self, tiny_text):
        first = tiny_text.splitlines()[0]
        _rejects(first + "\n" + tiny_text, "duplicate header")

    def test_empty_text_rejected(self):
        _rejects("", "no header")

    def test_negative_seed_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["seed"] = -1
        _rejects(_mutated(tiny_text, 0, header), "seed must be >= 0")

    def test_invalid_config_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["config"]["num_pods"] = 0
        _rejects(_mutated(tiny_text, 0, header), "invalid config")

    def test_unknown_serve_scenario_rejected(self, tiny_text):
        # The replay resolves the name, so an unknown one must fail
        # here, at load, as an unknown serve_autoscaler does.
        header = _line(tiny_text, 0)
        header["config"]["serve_scenario"] = "steady"
        assert loads_trace(_mutated(tiny_text, 0, header)) \
            .config.serve_scenario == "steady"
        header["config"]["serve_scenario"] = "bogus"
        _rejects(_mutated(tiny_text, 0, header),
                 "trace line 1: invalid config: unknown serve scenario "
                 "'bogus'")

    def test_unknown_config_field_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["config"]["flux_capacitor"] = 1.21
        # Unknown keys route through FleetConfig.from_dict, which
        # names the offender instead of a bare TypeError.
        _rejects(_mutated(tiny_text, 0, header), "flux_capacitor")

    @pytest.mark.parametrize(
        "name", [spec.name for spec in dataclasses.fields(FleetConfig)])
    def test_missing_config_field_rejected(self, tiny_text, name):
        # FleetConfig.from_dict fills a missing field with its default,
        # so a header without num_pods used to load as the default fleet.
        header = _line(tiny_text, 0)
        del header["config"][name]
        with pytest.raises(TraceError) as caught:
            loads_trace(_mutated(tiny_text, 0, header))
        assert str(caught.value) == (
            f"trace line 1: config is missing FleetConfig field(s) "
            f"{[name]}")

    def test_negative_blocks_per_pod_is_a_bad_config(self, tiny_text):
        # FleetConfig checks the sign before it takes the cube root (a
        # negative number's is complex), so this is a typed config
        # error, not round()'s TypeError.
        header = _line(tiny_text, 0)
        header["config"]["blocks_per_pod"] = -1
        _rejects(_mutated(tiny_text, 0, header),
                 "^trace line 1: invalid config: blocks_per_pod must be a "
                 "positive perfect cube, got -1$")

    @pytest.mark.parametrize("field", ["num_pods", "horizon_seconds",
                                       "trunk_ports"])
    def test_config_int_past_float_range_is_invalid(self, tiny_text, field):
        header = _line(tiny_text, 0)
        header["config"][field] = 10**400
        _rejects(_mutated(tiny_text, 0, header),
                 f"^trace line 1: invalid config: {field} must be ")

    def test_non_object_config_rejected(self, tiny_text):
        header = _line(tiny_text, 0)
        header["config"] = "tiny"
        _rejects(_mutated(tiny_text, 0, header), "config must be an object")


class TestRecordValidation:
    def test_truncated_json_line_rejected(self, tiny_text):
        broken = _mutated(tiny_text, 1,
                          raw=tiny_text.splitlines()[1][:-10])
        _rejects(broken, "line 2: not valid JSON")

    def test_non_object_line_rejected(self, tiny_text):
        _rejects(_mutated(tiny_text, 1, raw="[1, 2, 3]"), "expected an object")

    def test_unknown_record_type_rejected(self, tiny_text):
        _rejects(_mutated(tiny_text, 1, {"type": "snack"}),
                 "unknown record type")

    def test_unknown_key_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["tpu_generation"] = 4
        _rejects(_mutated(tiny_text, 1, job), "unknown keys")

    def test_missing_key_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        del job["work_seconds"]
        _rejects(_mutated(tiny_text, 1, job), "missing required key")

    def test_bad_kind_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["kind"] = "mine"
        _rejects(_mutated(tiny_text, 1, job), "kind must be")

    @pytest.mark.parametrize("shape", [
        [4, 4], [4, 4, 4, 4], [4, 4, 0], [4, 4, -4], [4, 4, 4.0],
        "4x4x4", [4, 4, True]])
    def test_bad_shape_rejected(self, tiny_text, shape):
        job = _line(tiny_text, 1)
        job["shape"] = shape
        _rejects(_mutated(tiny_text, 1, job), "shape must be three")

    def test_illegal_slice_shape_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["shape"] = [3, 5, 7]  # not a legal TPU v4 slice
        _rejects(_mutated(tiny_text, 1, job), "illegal slice shape")

    def test_oversized_shape_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["shape"] = [16, 16, 32]  # 128 blocks > tiny's 64
        _rejects(_mutated(tiny_text, 1, job), "needs 128 blocks")

    def test_negative_arrival_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["arrival"] = -1.0
        _rejects(_mutated(tiny_text, 1, job), "arrival must be >= 0")

    def test_arrival_past_horizon_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["arrival"] = 10 * 86400.0
        _rejects(_mutated(tiny_text, 1, job), "past the horizon")

    def test_non_finite_float_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        raw = json.dumps(job).replace(
            json.dumps(job["work_seconds"]), "NaN", 1)
        _rejects(_mutated(tiny_text, 1, raw=raw), "must be finite")

    def test_zero_work_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["work_seconds"] = 0.0
        _rejects(_mutated(tiny_text, 1, job), "work_seconds must be > 0")

    def test_boolean_int_field_rejected(self, tiny_text):
        job = _line(tiny_text, 1)
        job["priority"] = True  # bools are ints in Python; not here
        _rejects(_mutated(tiny_text, 1, job), "must be an integer")


def _first_line_of(text, kind):
    """The index of the first line of record type `kind`."""
    return next(index for index, line in enumerate(text.splitlines())
                if json.loads(line)["type"] == kind)


#: An integer literal longer than `int()` reads by default.
_OVERLONG = "1" + "0" * 4300


class TestHostileNumbers:
    """A number that fits JSON but not the reader ends in a TraceError
    naming its line and key: an integer past float range in a float
    field, or an integer literal longer than int()'s digit limit."""

    @pytest.mark.parametrize("kind,key", [
        ("job", "arrival"), ("job", "work_seconds"),
        ("outage", "start"), ("outage", "end")])
    def test_integer_past_float_range(self, tiny_text, kind, key):
        index = _first_line_of(tiny_text, kind)
        record = _line(tiny_text, index)
        record[key] = 10**400
        with pytest.raises(TraceError) as caught:
            loads_trace(_mutated(tiny_text, index, record))
        assert str(caught.value) == (
            f"trace line {index + 1}: {key} must be finite, got an "
            f"integer past float range")

    @pytest.mark.parametrize("kind,key,named", [
        ("header", "seed", "seed"),
        ("header", "num_pods", "config.num_pods"),
        ("job", "arrival", "arrival"), ("job", "job_id", "job_id"),
        ("job", "shape", "shape[0]"), ("outage", "pod_id", "pod_id")])
    def test_overlong_integer_literal(self, tiny_text, kind, key, named):
        index = _first_line_of(tiny_text, kind)
        line = tiny_text.splitlines()[index]
        raw = re.sub(rf'"{key}": \[?', lambda found: found[0] + _OVERLONG +
                     ("," if found[0].endswith("[") else ", \"x\": "),
                     line, count=1)
        assert raw != line
        with pytest.raises(TraceError) as caught:
            loads_trace(_mutated(tiny_text, index, raw=raw))
        assert str(caught.value) == (
            f"trace line {index + 1}: {named} is an integer of more than "
            f"{sys.get_int_max_str_digits():,} digits")


class TestDeepNesting:
    """A line nested past the recursion limit, on which `json.loads`
    raises `RecursionError` (as the reference reader does), ends in a
    TraceError naming the line."""

    def test_job_line(self, tiny_text):
        index = _first_line_of(tiny_text, "job")
        line = tiny_text.splitlines()[index]
        nested = "[" * 100_000 + "]" * 100_000
        with pytest.raises(TraceError) as caught:
            loads_trace(_mutated(tiny_text, index,
                                 raw=line[:-1] + f', "x": {nested}}}'))
        assert str(caught.value) == (
            f"trace line {index + 1}: nested too deeply to read")


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
        _rejects(_mutated(tiny_text, outage_index, outage),
                 "must be after start")

    def test_outage_pod_out_of_range_rejected(self, tiny_text,
                                              outage_index):
        outage = _line(tiny_text, outage_index)
        outage["pod_id"] = 7  # tiny has one pod
        _rejects(_mutated(tiny_text, outage_index, outage),
                 "pod_id 7 out of range")

    def test_outage_block_out_of_range_rejected(self, tiny_text,
                                                outage_index):
        outage = _line(tiny_text, outage_index)
        outage["block_id"] = 64
        _rejects(_mutated(tiny_text, outage_index, outage),
                 "block_id 64 out of range")

    def test_outage_past_horizon_rejected(self, tiny_text, outage_index):
        outage = _line(tiny_text, outage_index)
        outage["end"] = 10 * 86400.0
        _rejects(_mutated(tiny_text, outage_index, outage), "past the horizon")

    def test_non_boolean_via_spare_rejected(self, tiny_text,
                                            outage_index):
        outage = _line(tiny_text, outage_index)
        outage["via_spare"] = "no"
        _rejects(_mutated(tiny_text, outage_index, outage),
                 "via_spare must be")

    def test_drain_validation_shares_interval_rules(self, tiny_text):
        drain = {"type": "drain", "pod_id": 0, "block_id": 0,
                 "start": 100.0, "end": 50.0}
        _rejects(tiny_text + json.dumps(drain) + "\n", "must be after start")


class TestOrderingValidation:
    def test_unsorted_jobs_rejected(self, tiny_text):
        first, second = _line(tiny_text, 1), _line(tiny_text, 2)
        assert second["type"] == "job"
        swapped = _mutated(_mutated(tiny_text, 1, second), 2, first)
        _rejects(swapped, "sorted\\s+by arrival")

    def test_duplicate_job_id_rejected(self, tiny_text):
        second = _line(tiny_text, 2)
        second["job_id"] = _line(tiny_text, 1)["job_id"]
        second["arrival"] = _line(tiny_text, 1)["arrival"]
        _rejects(_mutated(tiny_text, 2, second), "duplicate job_id")

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
        _rejects(dumps_trace(overlapped), "overlap")

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


#: What a hostile edit writes into a field: every JSON type, the float
#: edge cases, an integer past float range, and strings and shapes the
#: reader compares against.
_HOSTILE_VALUES = (0, 3, -1, 10**400, 2.5, 1e300, -0.0, math.nan,
                   math.inf, -math.inf, True, False, None, "", "train",
                   "serve", [], [4, 4, 8], {}, {"num_pods": 1})

#: Keys an edit may add: every record type's, and one that none has.
_ADDED_KEYS = sorted(_REFERENCE_JOB_KEYS | _REFERENCE_OUTAGE_KEYS |
                     _REFERENCE_HEADER_KEYS | {"extra"})

#: The lines a pad or blank edit leaves around or instead of a line.
_SPACES = ("", " ", "\t", "\u00a0")


def _every_edit(line):
    """Each one-field edit of `line`: every key set to every hostile
    value, dropped, or added, and every nested item set."""
    record = json.loads(line)
    for key in sorted(record):
        yield json.dumps({name: value for name, value in record.items()
                          if name != key})
        inner = record[key]
        places = range(len(inner)) if isinstance(inner, list) else \
            sorted(inner) + ["extra"] if isinstance(inner, dict) else ()
        for value in _HOSTILE_VALUES:
            yield json.dumps({**record, key: value})
            for place in places:
                edited = json.loads(line)
                edited[key][place] = value
                yield json.dumps(edited)
    for key in _ADDED_KEYS:
        if key not in record:
            for value in _HOSTILE_VALUES:
                yield json.dumps({**record, key: value})
    for space in _SPACES:
        yield space
        yield space + line + space


@st.composite
def _hostile_edit(draw, line):
    """`line`, one JSONL record, after one hostile edit."""
    try:
        record = json.loads(line)
    except ValueError:  # an earlier edit blanked or padded it
        return draw(st.sampled_from(_SPACES)) + line
    nested = [key for key in sorted(record)
              if isinstance(record[key], (list, dict)) and record[key]]
    edit = draw(st.sampled_from(("set", "add", "drop", "type", "pad",
                                 "blank") + (("nested",) if nested else ())))
    if edit == "pad":
        return draw(st.sampled_from(_SPACES)) + line + \
            draw(st.sampled_from(_SPACES))
    if edit == "blank":
        return draw(st.sampled_from(_SPACES))
    value = draw(st.sampled_from(_HOSTILE_VALUES))
    if edit == "set":
        record[draw(st.sampled_from(sorted(record)))] = value
    elif edit == "add":
        record[draw(st.sampled_from(_ADDED_KEYS))] = value
    elif edit == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif edit == "type":
        record["type"] = draw(st.sampled_from(
            ("header", "job", "outage", "drain", "span", "")))
    else:
        inner = record[draw(st.sampled_from(nested))]
        if isinstance(inner, list):
            inner[draw(st.integers(0, len(inner) - 1))] = value
        else:
            inner[draw(st.sampled_from(sorted(inner) + ["extra"]))] = value
    return json.dumps(record)


@functools.lru_cache(maxsize=None)
def _edge_lines():
    """A short valid edge trace with every record type, as lines."""
    config = preset_config("edge")
    trace = record_trace(config, seed=0, windows=schedule_for(
        "deploy_week", config).windows)
    short = dataclasses.replace(trace, jobs=trace.jobs[:8],
                                outages=trace.outages[:3],
                                windows=trace.windows[:3])
    return tuple(_reference_dumps_trace(short).splitlines())


def _assert_edited_reads_as_reference(lines):
    """The edited trace reads as the reference reader reads it, but for
    two planned differences: a header config that lacks a field, which
    the reference reader fills with its default, and an integer past
    float range in a float field, on which it raises OverflowError."""
    text = "\n".join(lines) + "\n"
    got = _outcome(loads_trace, text)
    if isinstance(got, tuple) and "past float range" in got[1]:
        assert _outcome(_reference_loads_trace, text) == \
            (OverflowError, "int too large to convert to float")
        number, key = re.fullmatch(
            r"trace line (\d+): (\w+) must be finite, got an integer "
            r"past float range", got[1]).groups()
        value = json.loads(lines[int(number) - 1])[key]
        assert got[0] is TraceError
        assert type(value) is int and abs(value) > sys.float_info.max
    elif isinstance(got, tuple) and "config is missing" in got[1]:
        number = int(got[1].split(":")[0].removeprefix("trace line "))
        config = json.loads(lines[number - 1])["config"]
        missing = [spec.name for spec in dataclasses.fields(FleetConfig)
                   if spec.name not in config]
        assert got == (TraceError, f"trace line {number}: config is "
                                   f"missing FleetConfig field(s) "
                                   f"{missing}")
    else:
        _assert_reads_as_reference(text)


class TestReaderMatchesReference:
    """Every hostile edit of valid lines reads as the reference reader
    reads it: an equal trace, or the same exception and message."""

    def test_short_trace_has_every_record_type(self):
        assert {json.loads(line)["type"] for line in _edge_lines()} == \
            {"header", "job", "outage", "drain"}

    def test_every_one_field_edit_reads_as_reference(self):
        lines = _edge_lines()
        types = [json.loads(line)["type"] for line in lines]
        for index in sorted({types.index(kind) for kind in types}):
            for edited in _every_edit(lines[index]):
                _assert_edited_reads_as_reference(
                    lines[:index] + (edited,) + lines[index + 1:])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_hostile_edits_read_as_reference(self, data):
        lines = list(_edge_lines())
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            index = data.draw(st.integers(0, len(lines) - 1), label="line")
            lines[index] = data.draw(_hostile_edit(lines[index]),
                                     label="edit")
        _assert_edited_reads_as_reference(lines)


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

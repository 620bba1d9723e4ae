"""Tests for the fleet observability layer (repro.fleet.obs).

The load-bearing contracts: recording never perturbs the run it
observes, double runs export byte-identical traces, exported spans
reconcile exactly with the telemetry identity's buckets, and both
export formats validate strictly and round-trip.
"""

import functools
import hashlib
import json
import math
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.core.scheduler import PlacementPolicy
from repro.errors import ConfigurationError, TraceError
from repro.fleet import FleetSimulator, preset_config
from repro.fleet.scheduler import ActiveJob
from repro.sim.events import Simulator
from repro.fleet.obs import (Decision, DispatchProfiler, Instant,
                             MetricsSampler, NULL_RECORDER, OBS_SCHEMA,
                             OBS_VERSION, ObsRecorder, PLACED_CAUSES,
                             REJECTED_CAUSES, Span, dumps_chrome_trace,
                             dumps_obs, load_obs, loads_obs, render_report,
                             save_obs, validate_chrome_trace)
from repro.fleet.obs.export import PID_FLEET, PID_JOBS


def _run_with_obs(preset: str, seed: int = 0, **overrides):
    config = preset_config(preset).with_overrides(**overrides)
    return FleetSimulator(config, seed=seed).run(PlacementPolicy.OCS,
                                                 recorder=ObsRecorder())


@functools.lru_cache(maxsize=None)
def _recorded(preset: str, seed: int) -> ObsRecorder:
    """One observed OCS run's log, shared by tests that only read it."""
    return _run_with_obs(preset, seed=seed).obs


# -- the reference writers: one dict per record, then json.dumps ------------


def _reference_job_classes(recorder):
    classes = set()
    for span in recorder.spans:
        classes.add((span.args.get("kind", "job"),
                     span.args.get("blocks", 0)))
    for instant in recorder.instants:
        if "job_id" in instant.args:
            classes.add((instant.args.get("kind", "job"),
                         instant.args.get("blocks", 0)))
    for decision in recorder.decisions:
        classes.add((decision.kind, decision.blocks))
    ordered = sorted(classes, key=lambda c: (c[0], c[1]))
    return {f"{kind}-{blocks}b": tid
            for tid, (kind, blocks) in enumerate(ordered)}


def _reference_chrome_trace(recorder):
    meta = recorder.meta
    num_pods = int(meta.get("num_pods", 0))
    classes = _reference_job_classes(recorder)
    events = []

    def metadata(pid, tid, name, label):
        events.append({"ph": "M", "pid": pid, "tid": tid, "name": name,
                       "args": {"name": label}})

    metadata(PID_FLEET, 0, "process_name", "fleet")
    for pod_id in range(num_pods):
        metadata(PID_FLEET, pod_id, "thread_name", f"pod {pod_id}")
    metadata(PID_JOBS, 0, "process_name", "jobs")
    for label, tid in classes.items():
        metadata(PID_JOBS, tid, "thread_name", label)

    def class_tid(args):
        return classes.get(f"{args.get('kind', 'job')}-"
                           f"{args.get('blocks', 0)}b", 0)

    for span in recorder.spans:
        events.append({
            "ph": "X", "pid": PID_JOBS, "tid": class_tid(span.args),
            "ts": span.start * 1e6, "dur": span.duration * 1e6,
            "name": span.name,
            "args": {"job_id": span.job_id, **span.args}})
    for instant in recorder.instants:
        if "job_id" in instant.args:
            pid, tid = PID_JOBS, class_tid(instant.args)
        else:
            pid, tid = PID_FLEET, int(instant.args.get("pod_id", 0))
        events.append({
            "ph": "i", "s": "t", "pid": pid, "tid": tid,
            "ts": instant.time * 1e6, "name": instant.name,
            "args": dict(instant.args)})
    for decision in recorder.decisions:
        events.append({
            "ph": "i", "s": "t", "pid": PID_JOBS,
            "tid": classes.get(f"{decision.kind}-{decision.blocks}b", 0),
            "ts": decision.time * 1e6,
            "name": f"decision:{decision.cause}",
            "args": {"job_id": decision.job_id, "kind": decision.kind,
                     "blocks": decision.blocks,
                     "priority": decision.priority,
                     "outcome": decision.outcome,
                     "cause": decision.cause}})
    samples = recorder.samples
    for index, time_ in enumerate(samples.times):
        ts = time_ * 1e6
        events.append({"ph": "C", "pid": PID_FLEET, "tid": 0, "ts": ts,
                       "name": "queue_depth",
                       "args": {"value": samples.queue_depth[index]}})
        events.append({"ph": "C", "pid": PID_FLEET, "tid": 0, "ts": ts,
                       "name": "running_jobs",
                       "args": {"value": samples.running_jobs[index]}})
        events.append({"ph": "C", "pid": PID_FLEET, "tid": 0, "ts": ts,
                       "name": "trunk_ports_in_use",
                       "args": {"value":
                                samples.trunk_ports_in_use[index]}})
        for pod_id, column in enumerate(samples.free_blocks):
            events.append({"ph": "C", "pid": PID_FLEET, "tid": 0,
                           "ts": ts, "name": f"free_blocks_pod{pod_id}",
                           "args": {"value": column[index]}})
    trace = {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": {"schema": OBS_SCHEMA, "version": OBS_VERSION,
                           **meta}}
    return json.dumps(trace, sort_keys=True, separators=(",", ":")) + "\n"


def _reference_dumps_obs(recorder):
    lines = [json.dumps({"type": "header", "schema": OBS_SCHEMA,
                         "version": OBS_VERSION, "meta": recorder.meta},
                        sort_keys=True)]
    for span in recorder.spans:
        lines.append(json.dumps({
            "type": "span", "name": span.name, "job_id": span.job_id,
            "start": span.start, "end": span.end, "args": span.args,
        }, sort_keys=True))
    for instant in recorder.instants:
        lines.append(json.dumps({
            "type": "instant", "name": instant.name,
            "time": instant.time, "args": instant.args,
        }, sort_keys=True))
    for decision in recorder.decisions:
        lines.append(json.dumps({
            "type": "decision", "time": decision.time,
            "job_id": decision.job_id, "kind": decision.kind,
            "blocks": decision.blocks, "priority": decision.priority,
            "outcome": decision.outcome, "cause": decision.cause,
        }, sort_keys=True))
    samples = recorder.samples
    for index, time_ in enumerate(samples.times):
        lines.append(json.dumps({
            "type": "sample", "time": time_,
            "queue_depth": samples.queue_depth[index],
            "running_jobs": samples.running_jobs[index],
            "trunk_ports_in_use": samples.trunk_ports_in_use[index],
            "free_blocks": [column[index]
                            for column in samples.free_blocks],
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


# -- the reference readers: the per-field checks before one parser per type --
#
# The readers as they stood before each record type got its own parser,
# kept to require equal logs, or the same exception with the same
# message, from the readers under test.


_REFERENCE_OUTCOMES = ("placed", "rejected")
_REFERENCE_CAUSES = set(PLACED_CAUSES) | set(REJECTED_CAUSES)


def _reference_validate_chrome_trace(payload):
    if not isinstance(payload, dict):
        raise TraceError("chrome trace must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise TraceError("chrome trace needs a traceEvents array")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise TraceError(f"{where}: events must be objects")
        phase = event.get("ph")
        if phase not in ("M", "X", "i", "C"):
            raise TraceError(f"{where}: unknown phase {phase!r}")
        for key in ("pid", "tid"):
            value = event.get(key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TraceError(f"{where}: {key} must be an integer, "
                                 f"got {value!r}")
        if not isinstance(event.get("name"), str):
            raise TraceError(f"{where}: name must be a string")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or \
                    isinstance(ts, bool) or not math.isfinite(ts):
                raise TraceError(f"{where}: ts must be a finite number, "
                                 f"got {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or \
                    isinstance(dur, bool) or not math.isfinite(dur) or \
                    dur < 0:
                raise TraceError(f"{where}: dur must be a finite "
                                 f"non-negative number, got {dur!r}")


def _reference_fail(where, message):
    return TraceError(f"{where}: {message}")


def _reference_number(record, key, where):
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _reference_fail(where, f"{key} must be a number, "
                                     f"got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise _reference_fail(where, f"{key} must be finite")
    return value


def _reference_integer(record, key, where):
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _reference_fail(where, f"{key} must be an integer, "
                                     f"got {value!r}")
    return value


def _reference_string(record, key, where):
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise _reference_fail(where, f"{key} must be a non-empty string, "
                                     f"got {value!r}")
    return value


def _reference_args(record, where):
    value = record.get("args", {})
    if not isinstance(value, dict):
        raise _reference_fail(where, f"args must be an object, "
                                     f"got {value!r}")
    for key in ("job_id", "blocks", "pod_id"):
        item = value.get(key, 0)
        if isinstance(item, bool) or not isinstance(item, int):
            raise _reference_fail(where, f"args.{key} must be an integer, "
                                         f"got {item!r}")
    if not isinstance(value.get("kind", ""), str):
        raise _reference_fail(where, f"args.kind must be a string, "
                                     f"got {value['kind']!r}")
    return value


def _reference_check_version(version, where):
    if version != OBS_VERSION:
        raise _reference_fail(where, f"unsupported version {version!r} "
                                     f"(this library reads version "
                                     f"{OBS_VERSION})")


def _reference_parse_record(recorder, record, where):
    kind = record.get("type")
    if kind == "span":
        start = _reference_number(record, "start", where)
        end = _reference_number(record, "end", where)
        if end < start:
            raise _reference_fail(where, f"span ends at {end} before its "
                                         f"start {start}")
        recorder.spans.append(Span(
            _reference_string(record, "name", where),
            _reference_integer(record, "job_id", where),
            start, end, _reference_args(record, where)))
    elif kind == "instant":
        recorder.instants.append(Instant(
            _reference_string(record, "name", where),
            _reference_number(record, "time", where),
            _reference_args(record, where)))
    elif kind == "decision":
        outcome = _reference_string(record, "outcome", where)
        if outcome not in _REFERENCE_OUTCOMES:
            raise _reference_fail(where, f"outcome must be one of "
                                         f"{_REFERENCE_OUTCOMES}, "
                                         f"got {outcome!r}")
        cause = _reference_string(record, "cause", where)
        if cause not in _REFERENCE_CAUSES:
            raise _reference_fail(where, f"unknown decision cause "
                                         f"{cause!r}; have "
                                         f"{sorted(_REFERENCE_CAUSES)}")
        recorder.decisions.append(Decision(
            _reference_number(record, "time", where),
            _reference_integer(record, "job_id", where),
            _reference_string(record, "kind", where),
            _reference_integer(record, "blocks", where),
            _reference_integer(record, "priority", where),
            outcome, cause))
    elif kind == "sample":
        free = record.get("free_blocks")
        if not (isinstance(free, list) and
                all(isinstance(f, int) and not isinstance(f, bool)
                    for f in free)):
            raise _reference_fail(where, f"free_blocks must be a list of "
                                         f"integers, got {free!r}")
        columns = recorder.samples.free_blocks
        if len(recorder.samples) and len(free) != len(columns):
            raise _reference_fail(where, f"free_blocks has {len(free)} "
                                         f"entries, but the first sample "
                                         f"row has {len(columns)}")
        recorder.sample(
            time=_reference_number(record, "time", where),
            queue_depth=_reference_integer(record, "queue_depth", where),
            running_jobs=_reference_integer(record, "running_jobs", where),
            trunk_ports_in_use=_reference_integer(
                record, "trunk_ports_in_use", where),
            free_by_pod=list(free))
    else:
        raise _reference_fail(where, f"unknown record type {kind!r}")


def _reference_loads_obs(text):
    recorder = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"observability line {line_no}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _reference_fail(where, f"not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise _reference_fail(where, "expected an object")
        if recorder is None:
            if record.get("type") != "header":
                raise _reference_fail(where,
                                      "first record must be the header")
            if record.get("schema") != OBS_SCHEMA:
                raise _reference_fail(where,
                                      f"not an observability log (schema "
                                      f"{record.get('schema')!r}, expected "
                                      f"{OBS_SCHEMA!r})")
            _reference_check_version(record.get("version"), where)
            meta = record.get("meta", {})
            if not isinstance(meta, dict):
                raise _reference_fail(where, "meta must be an object")
            recorder = ObsRecorder(meta=meta)
        elif record.get("type") == "header":
            raise _reference_fail(where, "duplicate header")
        else:
            _reference_parse_record(recorder, record, where)
    if recorder is None:
        raise TraceError("empty observability log: no header record")
    return recorder


def _reference_from_chrome_trace(payload):
    _reference_validate_chrome_trace(payload)
    other = payload.get("otherData", {})
    if not isinstance(other, dict) or other.get("schema") != OBS_SCHEMA:
        raise TraceError("chrome trace was not exported by this library "
                         "(otherData.schema missing); fleet report needs "
                         "the JSONL export for foreign traces")
    _reference_check_version(other.get("version"), "chrome trace otherData")
    meta = {key: value for key, value in other.items()
            if key not in ("schema", "version")}
    recorder = ObsRecorder(meta=meta)
    for index, event in enumerate(payload["traceEvents"]):
        if event["ph"] not in ("X", "i"):
            continue
        where = f"traceEvents[{index}]"
        args = _reference_args(event, where)
        time_ = event["ts"] / 1e6
        if event["ph"] == "X":
            record = {"type": "span", "name": event["name"],
                      "job_id": args.get("job_id"), "start": time_,
                      "end": (event["ts"] + event["dur"]) / 1e6,
                      "args": {key: value for key, value in args.items()
                               if key != "job_id"}}
        elif "outcome" in args:
            record = {**args, "type": "decision", "time": time_}
        else:
            record = {"type": "instant", "name": event["name"],
                      "time": time_, "args": dict(args)}
        _reference_parse_record(recorder, record, where)
    return recorder


def _outcome(read, source):
    """What `read(source)` returns, or the type and text it raises."""
    try:
        return read(source)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


def _assert_same_outcome(got, expected):
    """Two read outcomes agree: logs that are equal and export equal
    text, or the same exception type with the same message."""
    if isinstance(expected, ObsRecorder):
        assert isinstance(got, ObsRecorder), got
        assert (got.meta, got.spans, got.instants, got.decisions,
                got.samples) == (expected.meta, expected.spans,
                                 expected.instants, expected.decisions,
                                 expected.samples)
        assert dumps_obs(got) == dumps_obs(expected)
    else:
        assert got == expected


def _assert_reads_as_reference(text):
    """loads_obs reads `text` as the reference reader does; returns
    what it read or raised.

    One planned difference: on an integer past float range in a
    number field the reference reader raises OverflowError, and
    loads_obs a TraceError naming the line and key."""
    got = _outcome(loads_obs, text)
    expected = _outcome(_reference_loads_obs, text)
    if expected == (OverflowError, "int too large to convert to float"):
        number, key = re.fullmatch(
            r"observability line (\d+): (\w+) must be finite",
            got[1]).groups()
        value = json.loads(text.splitlines()[int(number) - 1])[key]
        assert got[0] is TraceError
        assert type(value) is int and abs(value) > sys.float_info.max
    else:
        _assert_same_outcome(got, expected)
    return got


#: Every string kind the escaper meets: quotes, backslashes, non-ASCII,
#: a line separator, control characters, an astral-plane character and
#: a lone surrogate.
_HOSTILE = 'q"uo\\te caf\u00e9 \u2028 \x00\x1f\x7f \U0001f600 \ud800'


def _hostile_recorder() -> ObsRecorder:
    """A log of every value type the writers format or hand on."""
    recorder = ObsRecorder(meta={"num_pods": 2, "note": _HOSTILE,
                                 "nested": [True, None, [1.5, "x"]]})
    recorder.span(_HOSTILE, 1, 0.0, 1.5, kind=_HOSTILE, blocks=3,
                  nested=[[1, 2], {"a": None, "b": [False]}])
    recorder.span("running", 2, np.float64(2.5), 3.0, kind="train",
                  blocks=1, ok=True, none=None)
    # True equals 1 as a class key but labels as "train-Trueb".
    recorder.span("running", 3, -math.inf, math.inf, kind="train",
                  blocks=True)
    recorder.spans.append(Span("queued", 4, math.nan, 7, {
        "kind": "serve", "blocks": 2.0, "job_id": "shadows the field"}))
    recorder.instant(_HOSTILE, math.nan, job_id=1, kind=_HOSTILE,
                     blocks=3)
    recorder.instant("block_down", 5.0, pod_id=True, block_id=None)
    recorder.instant("drain", -0.0, pod_id=1.9, reason=_HOSTILE)
    recorder.instant("odd", np.float64(1e300), job_id=None)
    recorder.decision(math.inf, 1, _HOSTILE, 3, -1, "rejected", _HOSTILE)
    recorder.decision(np.float64(0.1), True, "train", 1, None, "placed",
                      "pod_local")
    recorder.decision(-math.inf, 5, "serve", 2, 1, "placed", "defrag")
    recorder.sample(0.0, 1, 2, 3, [4, 5])
    recorder.sample(math.nan, True, None, 1.5, [np.float64(6.0), -0.0])
    recorder.sample(np.float64(7.25), 0, 0, 0, [[1], "x"])
    return recorder


#: sha256 of (JSONL, Chrome) for each preset's OCS run at seed 0, as
#: the json.dumps writers above produce them.
_PINNED = {
    "tiny": (
        "eb56a094c92c96863c47564742cc66383d649c0beb2b79703fb8875ce122908b",
        "8fa7ad483238018123e8151e4c417f32e8c7b272799394e78e52b1614934dae2"),
    "small": (
        "f5c6ce76f7c45de732173b8f18c8be75070fd176e0f899b87e79b8b84631c2d3",
        "826ce9534ff3cb7fdab581f9470cce77ad2416d728baa9f20489da0968aac22f"),
    "edge": (
        "e0554838a8a3b75d6aa4741408f9eb9e5b48b866dca8d46e74c97a0a1cb4b1c8",
        "700411600abcc491c9af5b3afef52d433ee638da9d332473b3b43ee94acb8ef2"),
    "serving": (
        "ab97f950db8dc7d63842bed086e6a9dd729c285d8d4f9ad990efacb2e5bb8c25",
        "946acee7aa3aed3e8e0b0c17c5ec254e4a95d90bee453167cfd6749e3a3085d3"),
    "replay": (
        "9734c9dfd3ad1c14ec9e736d6070684c6d73266c2ffda8c9ed5e977338d46d3b",
        "901ac6bd190ffa91b2e576e2426d8c03e464e87723f206bb1256c9f98bcc3a9e"),
}


class TestRecorderBasics:
    def test_disabled_by_default(self):
        report = FleetSimulator(preset_config("tiny"), seed=0).run(
            PlacementPolicy.OCS)
        assert report.obs is None

    def test_null_recorder_is_inert(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.span("running", 1, 0.0, 1.0) is None
        assert NULL_RECORDER.instant("completed", 1.0) is None
        assert NULL_RECORDER.decision(0.0, 1, "train", 2, 1,
                                      "placed", "pod_local") is None
        assert NULL_RECORDER.sample(0.0, 0, 0, 0, [1, 2]) is None

    def test_enabled_run_attaches_recorder(self):
        report = _run_with_obs("tiny")
        assert isinstance(report.obs, ObsRecorder)
        assert report.obs.enabled is True
        assert report.obs.num_records == (
            len(report.obs.spans) + len(report.obs.instants) +
            len(report.obs.decisions) + len(report.obs.samples))
        assert report.obs.meta["policy"] == "ocs"
        assert report.obs.meta["seed"] == 0
        assert report.obs.meta["num_pods"] == 1

    def test_recording_does_not_perturb_results(self):
        # The whole design rests on observers being read-only: the
        # summary must be byte-identical with recording on and off
        # (events_fired legitimately grows — sampler ticks).
        for preset in ("tiny", "edge"):
            config = preset_config(preset)
            off = FleetSimulator(config, seed=0).run(PlacementPolicy.OCS)
            on = _run_with_obs(preset)
            assert json.dumps(off.summary, sort_keys=True) == \
                json.dumps(on.summary, sort_keys=True)
            assert on.events_fired > off.events_fired

    @pytest.mark.parametrize("first, later", [([1, 2], [3]),
                                              ([1, 2], [3, 4, 5]),
                                              ([], [1])])
    def test_ragged_sample_row_rejected(self, first, later):
        # One column per pod: a row of another length would leave the
        # columns ragged, and the export could not be written.
        recorder = ObsRecorder()
        recorder.sample(0.0, 0, 0, 0, first)
        with pytest.raises(TraceError, match=f"{len(later)} pod counts.*"
                                             f"first row has {len(first)}"):
            recorder.sample(1.0, 0, 0, 0, later)
        samples = recorder.samples
        assert (samples.times, samples.free_blocks) == (
            [0.0], [[count] for count in first])
        assert dumps_obs(recorder)

    def test_rejection_counts_descend(self):
        counts = _run_with_obs("tiny").obs.rejection_counts()
        assert list(counts.values()) == \
            sorted(counts.values(), reverse=True)


class TestDoubleRunByteIdentity:
    @pytest.mark.parametrize("preset", ["small", "edge"])
    def test_exports_are_byte_identical(self, preset):
        first = _run_with_obs(preset).obs
        second = _run_with_obs(preset).obs
        assert dumps_chrome_trace(first) == dumps_chrome_trace(second)
        assert dumps_obs(first) == dumps_obs(second)

    def test_different_seeds_differ(self):
        assert dumps_obs(_run_with_obs("tiny", seed=0).obs) != \
            dumps_obs(_run_with_obs("tiny", seed=1).obs)


class TestSpanProperties:
    @pytest.mark.parametrize("preset,seed",
                             [("tiny", 0), ("tiny", 3),
                              ("edge", 0), ("edge", 2)])
    def test_spans_reconcile_with_identity(self, preset, seed):
        report = _run_with_obs(preset, seed=seed)
        obs, summary = report.obs, report.summary
        config = report.config
        capacity = config.total_blocks * config.horizon_seconds

        # Per-job spans never overlap (queued / reconfig / restore /
        # running partition the job's history).
        per_job: dict[int, list] = {}
        for span in obs.spans:
            assert span.end >= span.start
            per_job.setdefault(span.job_id, []).append(span)
        for spans in per_job.values():
            spans.sort(key=lambda span: (span.start, span.end))
            for earlier, later in zip(spans, spans[1:]):
                assert later.start >= earlier.end - 1e-6

        # Each running span's args split its own duration exactly:
        # useful + replay + checkpoint writes + trunk stall = run wall.
        for span in obs.spans:
            if span.name == "running":
                parts = span.args["useful"] + span.args["replay"] + \
                    span.args["checkpoint"] + span.args["trunk_stall"]
                assert parts == pytest.approx(span.duration, abs=1e-6)

        # Block-weighted span sums reconcile with the telemetry
        # identity utilization = goodput + replay + restore +
        # checkpoint + reconfig: busy time is every non-queued span,
        # goodput is useful + trunk stall, and each tax bucket matches
        # its span phase (or running-span arg) exactly.
        def blockweight(name, value=None):
            return sum(
                (span.duration if value is None else span.args[value]) *
                span.args["blocks"]
                for span in obs.spans if span.name == name)

        busy = sum(span.duration * span.args["blocks"]
                   for span in obs.spans if span.name != "queued")
        goodput = sum(
            (span.args["useful"] + span.args["trunk_stall"]) *
            span.args["blocks"]
            for span in obs.spans if span.name == "running")
        rel = dict(rel=1e-9, abs=1e-3)
        assert busy == pytest.approx(
            summary["utilization"] * capacity, **rel)
        assert goodput == pytest.approx(
            summary["goodput"] * capacity, **rel)
        assert blockweight("running", "replay") == pytest.approx(
            summary["replay_fraction"] * capacity, **rel)
        assert blockweight("running", "checkpoint") == pytest.approx(
            summary["checkpoint_fraction"] * capacity, **rel)
        assert blockweight("restore") == pytest.approx(
            summary["restore_fraction"] * capacity, **rel)
        assert blockweight("reconfig") == pytest.approx(
            summary["reconfig_fraction"] * capacity, **rel)

    def test_sim_time_only(self):
        # No span or instant may carry a wall-clock-scale timestamp:
        # everything lives inside [0, horizon] (completions can land
        # exactly at the horizon; drain windows may outlive it).
        report = _run_with_obs("tiny")
        horizon = report.config.horizon_seconds
        for span in report.obs.spans:
            assert 0.0 <= span.start <= span.end <= horizon
        for decision in report.obs.decisions:
            assert 0.0 <= decision.time <= horizon


class TestDecisionLog:
    def test_edge_records_rejections(self):
        # The hostile contention preset must show real rejections with
        # classified causes — the audit trail the tentpole promises.
        obs = _run_with_obs("edge").obs
        placed = [d for d in obs.decisions if d.placed]
        rejected = [d for d in obs.decisions if not d.placed]
        assert placed and rejected
        assert {d.cause for d in placed} <= set(PLACED_CAUSES)
        assert {d.cause for d in rejected} <= set(REJECTED_CAUSES)
        # Contention machinery fired and is attributed as such.
        assert any(d.cause == "preemption_declined" for d in rejected)

    def test_placed_decisions_match_starts(self):
        # Every placed decision corresponds to a queued span closing
        # at the same time (the job left the queue right there).
        obs = _run_with_obs("tiny").obs
        placed = [d for d in obs.decisions if d.placed]
        queue_ends = {(span.job_id, span.end)
                      for span in obs.spans if span.name == "queued"}
        assert placed
        for decision in placed:
            assert (decision.job_id, decision.time) in queue_ends

    def test_insufficient_trunk_ports_cause(self):
        # Nobody may preempt and the trunk bank is starved: machine-
        # wide jobs that fit in aggregate blocks must be classified as
        # trunk-port rejections, not block rejections.
        obs = _run_with_obs("edge", preempt_priority=99,
                            trunk_ports=1).obs
        causes = obs.rejection_counts()
        assert causes.get("insufficient_trunk_ports", 0) > 0


class _RungLog:
    """A profiler that logs scheduler work instead of timing it.

    Implements the `install(scheduler, sim)` / `run_seconds` protocol
    of `FleetSimulator.run(profiler=...)` and records every pass start
    (`_queue_in_order`) and placement-rung call as (sim time, method,
    job id).
    """

    RUNGS = ("_find_anywhere", "_defrag_for", "_find_cross_pod",
             "_preempt_for")

    def __init__(self):
        self.calls = []
        self.run_seconds = 0.0

    def install(self, scheduler, sim):
        in_order = scheduler._queue_in_order

        def logged_order():
            self.calls.append((sim.now, "_queue_in_order", None))
            return in_order()

        scheduler._queue_in_order = logged_order
        for name in self.RUNGS:
            setattr(scheduler, name,
                    self._logged(sim, name, getattr(scheduler, name)))

    def _logged(self, sim, name, rung):
        def logged(target):  # an ActiveJob or its FleetJob
            job = target.job if isinstance(target, ActiveJob) else target
            self.calls.append((sim.now, name, job.job_id))
            return rung(target)
        return logged


class TestObservingChangesNoWork:
    @pytest.mark.parametrize("preset,seed", [
        ("edge", 0), ("edge", 1), ("edge", 2), ("serve_surge", 0)])
    def test_recorder_adds_no_rung_call(self, preset, seed):
        # The scheduler runs one dispatch path with or without a
        # recorder, and the decision log holds exactly one record per
        # (pass, job) on which some rung ran, in that order; a pass
        # starts at each `_queue_in_order` call.
        simulator = FleetSimulator(preset_config(preset), seed=seed)
        plain, observed = _RungLog(), _RungLog()
        simulator.run(PlacementPolicy.OCS, profiler=plain)
        recorder = ObsRecorder()
        simulator.run(PlacementPolicy.OCS, recorder=recorder,
                      profiler=observed)
        assert observed.calls == plain.calls
        attempts, seen, passes = [], set(), 0
        for now, method, job_id in observed.calls:
            if method == "_queue_in_order":
                passes += 1
            elif (passes, job_id) not in seen:
                seen.add((passes, job_id))
                attempts.append((now, job_id))
        assert attempts
        assert [(decision.time, decision.job_id)
                for decision in recorder.decisions] == attempts


class TestMetricsSampler:
    def test_cadence_and_columns(self):
        report = _run_with_obs("tiny", obs_sample_every_seconds=3600.0)
        samples = report.obs.samples
        horizon = report.config.horizon_seconds
        assert len(samples) == int(horizon // 3600.0) + 1
        assert samples.times == sorted(samples.times)
        assert len(samples.free_blocks) == report.config.num_pods
        for column in (samples.queue_depth, samples.running_jobs,
                       samples.trunk_ports_in_use):
            assert len(column) == len(samples)
            assert all(value >= 0 for value in column)
        for column in samples.free_blocks:
            assert len(column) == len(samples)
            assert all(0 <= value <= report.config.blocks_per_pod
                       for value in column)

    def test_bad_cadence_rejected(self):
        with pytest.raises(ConfigurationError):
            preset_config("tiny").with_overrides(
                obs_sample_every_seconds=0.0)
        with pytest.raises(ConfigurationError):
            MetricsSampler(ObsRecorder(), None, None, -1.0)

    def test_over_cap_cadence_rejected_before_scheduling(self):
        # A millisecond cadence over a day would eagerly materialize
        # ~86M tick events; install must refuse up front instead of
        # flooding the kernel (chunking would change the event
        # population and with it the same-time tie-break contract).
        sampler = MetricsSampler(ObsRecorder(), None, None, 0.001)
        sim = Simulator()
        with pytest.raises(ConfigurationError, match="cadence"):
            sampler.install(sim, 86400.0)
        assert len(sim.queue) == 0

    def test_cap_boundary_still_schedules_eagerly(self):
        # Just under the cap installs the full tick population up
        # front, preserving the fixed-population tie-break guarantee.
        sampler = MetricsSampler(ObsRecorder(), None, None, 1.0)
        sim = Simulator()
        horizon = float(MetricsSampler.MAX_TICKS - 2)
        ticks = sampler.install(sim, horizon)
        assert ticks == MetricsSampler.MAX_TICKS - 1
        assert len(sim.queue) == ticks


class TestJsonlExport:
    def test_round_trip(self):
        for preset in ("tiny", "edge"):
            obs = _recorded(preset, 0)
            text = dumps_obs(obs)
            loaded = loads_obs(text)
            assert dumps_obs(loaded) == text
            assert loaded.meta == obs.meta
            assert loaded.spans == obs.spans
            assert loaded.instants == obs.instants
            assert loaded.decisions == obs.decisions
            assert len(loaded.samples) == len(obs.samples)

    def test_header_first_line(self):
        header = json.loads(dumps_obs(ObsRecorder()).splitlines()[0])
        assert header["type"] == "header"
        assert header["schema"] == "repro.fleet.obs"
        assert header["version"] == OBS_VERSION

    @pytest.mark.parametrize("mutate,needle", [
        (lambda lines: lines[1:], "header"),
        (lambda lines: [lines[0].replace("repro.fleet.obs", "bogus")] +
         lines[1:], "not an observability log"),
        (lambda lines: [lines[0].replace(f'"version": {OBS_VERSION}',
                                         '"version": 99')]
         + lines[1:], "version"),
        (lambda lines: lines + [lines[0]], "duplicate header"),
        (lambda lines: lines + ['{"type": "mystery"}'], "unknown record"),
        (lambda lines: lines + ["{not json"], "not valid JSON"),
        (lambda lines: lines + ['{"type": "span", "name": "running", '
                                '"job_id": 1, "start": 5.0, "end": 1.0, '
                                '"args": {}}'], "before its start"),
        (lambda lines: lines + ['{"type": "decision", "time": 0.0, '
                                '"job_id": 1, "kind": "train", '
                                '"blocks": 2, "priority": 1, '
                                '"outcome": "maybe", "cause": '
                                '"pod_local"}'], "outcome"),
        (lambda lines: lines + ['{"type": "decision", "time": 0.0, '
                                '"job_id": 1, "kind": "train", '
                                '"blocks": 2, "priority": 1, '
                                '"outcome": "rejected", "cause": '
                                '"gremlins"}'], "cause"),
        (lambda lines: lines + ['{"type": "sample", "time": 0.0, '
                                '"queue_depth": 1, "running_jobs": 0, '
                                '"trunk_ports_in_use": 0, '
                                '"free_blocks": [1.5]}'], "free_blocks"),
        (lambda lines: lines + [
            '{"type": "sample", "time": 0.0, "queue_depth": 1, '
            '"running_jobs": 0, "trunk_ports_in_use": 0, '
            f'"free_blocks": {free}}}' for free in ([1, 2], [3], [4, 5, 6])],
         "line 3: free_blocks has 1 entries, but the first sample row "
         "has 2"),
    ])
    def test_validation_fails_loudly(self, mutate, needle):
        lines = dumps_obs(_run_with_obs("tiny").obs).splitlines()[:1]
        kind, message = _assert_reads_as_reference("\n".join(mutate(lines)))
        assert kind is TraceError and re.search(needle, message), message

    def test_empty_text_rejected(self):
        kind, message = _assert_reads_as_reference("")
        assert kind is TraceError and "empty" in message


class TestChromeExport:
    def test_validates_and_has_tracks(self):
        report = _run_with_obs("edge")
        payload = json.loads(dumps_chrome_trace(report.obs))
        validate_chrome_trace(payload)
        events = payload["traceEvents"]
        names = {event["name"] for event in events
                 if event["ph"] == "M" and
                 event["name"] == "thread_name"}
        labels = {event["args"]["name"] for event in events
                  if event["ph"] == "M"}
        assert names == {"thread_name"}
        # One track per pod and one per job class, as promised.
        for pod_id in range(report.config.num_pods):
            assert f"pod {pod_id}" in labels
        assert any(label.endswith("b") for label in labels)
        # Counter series for the sampler columns.
        counters = {event["name"] for event in events
                    if event["ph"] == "C"}
        assert {"queue_depth", "running_jobs",
                "trunk_ports_in_use"} <= counters
        assert "free_blocks_pod0" in counters
        # Lifecycle spans and decision instants made it across.
        assert any(event["ph"] == "X" and event["name"] == "running"
                   for event in events)
        assert any(event["ph"] == "i" and
                   event["name"].startswith("decision:")
                   for event in events)

    @pytest.mark.parametrize("corrupt,needle", [
        ([], "JSON object"),
        ({}, "traceEvents"),
        ({"traceEvents": [{"ph": "Z", "pid": 1, "tid": 0,
                           "name": "x"}]}, "phase"),
        ({"traceEvents": [{"ph": "i", "pid": True, "tid": 0,
                           "name": "x", "ts": 0}]}, "pid"),
        ({"traceEvents": [{"ph": "i", "pid": 1, "tid": 0,
                           "name": 7, "ts": 0}]}, "name"),
        ({"traceEvents": [{"ph": "i", "pid": 1, "tid": 0,
                           "name": "x"}]}, "ts"),
        ({"traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "name": "x",
                           "ts": 0, "dur": -1}]}, "dur"),
    ])
    def test_validator_rejects_corruption(self, corrupt, needle):
        with pytest.raises(TraceError, match=needle):
            validate_chrome_trace(corrupt)


class TestExportBytes:
    """Both writers emit exactly the bytes json.dumps(sort_keys=True)
    emits for the record dicts, pinned and against the reference."""

    @pytest.mark.parametrize("preset", sorted(_PINNED))
    def test_pinned_digests(self, preset):
        obs = _recorded(preset, 0)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                        for text in (dumps_obs(obs), dumps_chrome_trace(obs)))
        assert digests == _PINNED[preset]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_edge(self, seed):
        obs = _recorded("edge", seed)
        assert dumps_obs(obs) == _reference_dumps_obs(obs)
        assert dumps_chrome_trace(obs) == _reference_chrome_trace(obs)

    def test_matches_reference_on_hostile_records(self):
        recorder = _hostile_recorder()
        assert dumps_obs(recorder) == _reference_dumps_obs(recorder)
        assert dumps_chrome_trace(recorder) == \
            _reference_chrome_trace(recorder)

    def test_unencodable_arg_is_the_same_type_error(self):
        recorder = ObsRecorder()
        recorder.span("running", 1, 0.0, 1.0, kind="train", blocks=1,
                      tags={"a"})
        for writer, reference in ((dumps_obs, _reference_dumps_obs),
                                  (dumps_chrome_trace,
                                   _reference_chrome_trace)):
            with pytest.raises(TypeError) as expected:
                reference(recorder)
            with pytest.raises(TypeError) as got:
                writer(recorder)
            assert str(got.value) == str(expected.value)


class TestFileRoundTrip:
    def test_save_load_both_formats(self, tmp_path):
        obs = _run_with_obs("tiny").obs
        chrome = save_obs(obs, tmp_path / "trace.json")
        jsonl = save_obs(obs, tmp_path / "trace.jsonl")
        from_chrome = load_obs(chrome)
        from_jsonl = load_obs(jsonl)
        # JSONL is lossless; Chrome rebuilds spans/instants/decisions
        # (samples stay in counter form).
        assert from_jsonl.spans == obs.spans
        assert from_jsonl.decisions == obs.decisions
        assert len(from_chrome.spans) == len(obs.spans)
        assert len(from_chrome.decisions) == len(obs.decisions)
        assert from_chrome.meta["seed"] == obs.meta["seed"]

    def test_load_missing_and_foreign(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            load_obs(tmp_path / "nope.json")
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"hello": "world"}')
        with pytest.raises(TraceError, match="neither"):
            load_obs(foreign)
        alien_chrome = tmp_path / "alien.json"
        alien_chrome.write_text('{"traceEvents": []}')
        with pytest.raises(TraceError, match="not exported"):
            load_obs(alien_chrome)

    @pytest.mark.parametrize("binary", [False, True],
                             ids=["directory", "non-utf8"])
    def test_load_unreadable(self, tmp_path, binary):
        path = tmp_path
        if binary:
            path = tmp_path / "binary.json"
            path.write_bytes(b"\xff\xfe")
        with pytest.raises(TraceError,
                           match=f"cannot read observability file "
                                 f"{re.escape(str(path))}"):
            load_obs(path)


def _event(payload, phase, key, *, decision=False):
    """The first Chrome event of `phase` whose args hold `key`; a
    decision instant exactly when `decision`."""
    return next(event for event in payload["traceEvents"]
                if event["ph"] == phase and key in event["args"] and
                ("outcome" in event["args"]) == decision)


def _job_instant(records):
    """The first JSONL instant record that names a job."""
    return next(record for record in records
                if record["type"] == "instant" and
                "job_id" in record["args"])


class TestHostileFiles:
    """A malformed export ends in TraceError from either reader, and
    `fleet report` turns it into exit 2 with one stderr line."""

    @pytest.fixture(scope="class")
    def tiny_obs(self):
        return _run_with_obs("tiny").obs

    @pytest.mark.parametrize("suffix,mutate,needle", [
        (".json", lambda p: p["otherData"].update(version=99),
         "unsupported version 99"),
        (".json", lambda p: _event(p, "i", "outcome", decision=True)
         ["args"].update(outcome="maybe"), "outcome"),
        (".json", lambda p: _event(p, "i", "cause", decision=True)
         ["args"].update(cause="nope"), "cause"),
        (".json", lambda p: _event(p, "X", "job_id").update(
            args=["useful"]), "args must be an object"),
        (".json", lambda p: _event(p, "i", "job_id")["args"].update(
            job_id={"id": 1}), "args.job_id"),
        (".json", lambda p: _event(p, "i", "blocks", decision=True)
         ["args"].update(blocks="two"), "blocks"),
        (".jsonl", lambda records: _job_instant(records)["args"].update(
            job_id=[1]), "args.job_id"),
    ], ids=["chrome-version", "chrome-outcome", "chrome-cause",
            "chrome-args-list", "chrome-job-id-object",
            "chrome-blocks-word", "jsonl-job-id-list"])
    def test_typed_error_and_exit_two(self, tiny_obs, tmp_path, capsys,
                                      suffix, mutate, needle):
        path = tmp_path / f"obs{suffix}"
        if suffix == ".json":
            payload = json.loads(dumps_chrome_trace(tiny_obs))
            mutate(payload)
            path.write_text(json.dumps(payload))
            expected = _outcome(_reference_from_chrome_trace, payload)
        else:
            records = [json.loads(line)
                       for line in dumps_obs(tiny_obs).splitlines()]
            mutate(records)
            path.write_text("".join(json.dumps(record) + "\n"
                                    for record in records))
            expected = _outcome(_reference_loads_obs, path.read_text())
        began = time.perf_counter()
        with pytest.raises(TraceError, match=needle):
            load_obs(path)
        _assert_same_outcome(_outcome(load_obs, path), expected)
        assert main(["fleet", "report", "--trace", str(path)]) == 2
        assert time.perf_counter() - began < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fleet report: ")
        assert captured.err.count("\n") == 1


#: An integer literal longer than `int()` reads by default.
_OVERLONG = "1" + "0" * 4300


class TestHostileNumbers:
    """A number that fits JSON but not the reader ends in a TraceError
    naming its line (or event) and key, and `fleet report` in exit 2
    with one stderr line: an integer past float range in a number
    field, or an integer literal longer than int()'s digit limit."""

    @staticmethod
    def _assert_report_exits_two(path, capsys):
        assert main(["fleet", "report", "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fleet report: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("kind,key", [
        ("span", "start"), ("span", "end"), ("instant", "time"),
        ("decision", "time"), ("sample", "time")])
    def test_integer_past_float_range(self, tmp_path, capsys, kind, key):
        lines = dumps_obs(_recorded("tiny", 0)).splitlines()
        index = next(i for i, line in enumerate(lines)
                     if json.loads(line)["type"] == kind)
        record = json.loads(lines[index])
        record[key] = 10**400
        lines[index] = json.dumps(record)
        path = tmp_path / "obs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        message = f"observability line {index + 1}: {key} must be finite"
        with pytest.raises(TraceError, match=f"^{message}$"):
            load_obs(path)
        self._assert_report_exits_two(path, capsys)

    @pytest.mark.parametrize("kind,key,named", [
        ("header", "version", "version"), ("span", "job_id", "job_id"),
        ("span", "blocks", "args.blocks"), ("decision", "time", "time"),
        ("sample", "free_blocks", "free_blocks[0]")])
    def test_overlong_integer_literal(self, tmp_path, capsys, kind, key,
                                      named):
        lines = dumps_obs(_recorded("tiny", 0)).splitlines()
        index = next(i for i, line in enumerate(lines)
                     if json.loads(line)["type"] == kind)
        raw = re.sub(rf'"{key}": \[?', lambda found: found[0] + _OVERLONG +
                     ("," if found[0].endswith("[") else ", \"x\": "),
                     lines[index], count=1)
        assert raw != lines[index]
        lines[index] = raw
        path = tmp_path / "obs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError) as caught:
            load_obs(path)
        assert str(caught.value) == (
            f"observability line {index + 1}: {named} is an integer of "
            f"more than {sys.get_int_max_str_digits():,} digits")
        self._assert_report_exits_two(path, capsys)

    @pytest.mark.parametrize("ts,dur,key", [
        (10**400, 0, "ts"), (0, 10**400, "dur"),
        # Each in float range, their sum (the span's end) past it.
        (2**1023, 2**1023, "end")])
    def test_chrome_integer_past_float_range(self, tmp_path, capsys, ts,
                                             dur, key):
        payload = json.loads(dumps_chrome_trace(_recorded("tiny", 0)))
        index = next(i for i, event in enumerate(payload["traceEvents"])
                     if event["ph"] == "X")
        payload["traceEvents"][index].update(ts=ts, dur=dur)
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TraceError,
                           match=rf"^traceEvents\[{index}\]: {key} must "):
            load_obs(path)
        self._assert_report_exits_two(path, capsys)

    def test_chrome_overlong_integer_literal(self, tmp_path, capsys):
        text = dumps_chrome_trace(_recorded("tiny", 0))
        index = next(i for i, event in
                     enumerate(json.loads(text)["traceEvents"])
                     if event["ph"] == "X")
        raw = text.replace('"dur":', f'"dur":{_OVERLONG},"x":', 1)
        path = tmp_path / "obs.json"
        path.write_text(raw)
        with pytest.raises(TraceError) as caught:
            load_obs(path)
        assert str(caught.value) == (
            f"observability line 1: traceEvents[{index}].dur is an integer "
            f"of more than {sys.get_int_max_str_digits():,} digits")
        self._assert_report_exits_two(path, capsys)


#: A value nested past the recursion limit: `json.loads` raises
#: `RecursionError` on it, where the reference reader stops.
_DEEP_NESTING = "[" * 100_000 + "]" * 100_000


class TestDeepNesting:
    """A line nested past the recursion limit ends in a TraceError that
    names the line, from both readers, and `fleet report` in exit 2
    with one stderr line."""

    def test_jsonl_line(self, tmp_path, capsys):
        lines = dumps_obs(_recorded("tiny", 0)).splitlines()
        index = next(i for i, line in enumerate(lines)
                     if json.loads(line)["type"] == "span")
        lines[index] = lines[index][:-1] + f', "x": {_DEEP_NESTING}}}'
        text = "\n".join(lines) + "\n"
        message = f"observability line {index + 1}: nested too deeply to read"
        with pytest.raises(TraceError, match=f"^{message}$"):
            loads_obs(text)
        path = tmp_path / "obs.jsonl"
        path.write_text(text)
        TestHostileNumbers._assert_report_exits_two(path, capsys)

    def test_chrome_export(self, tmp_path, capsys):
        text = dumps_chrome_trace(_recorded("tiny", 0))
        path = tmp_path / "obs.json"
        path.write_text(text.replace('"dur":', f'"x":{_DEEP_NESTING},"dur":',
                                     1))
        with pytest.raises(TraceError, match="^observability line 1: "
                                             "nested too deeply to read$"):
            load_obs(path)
        TestHostileNumbers._assert_report_exits_two(path, capsys)


#: What a hostile edit writes into a field: every JSON type, the float
#: edge cases, an integer past float range, and the strings the reader
#: compares against.
_HOSTILE_VALUES = (0, 3, -1, 10**400, 2.5, 1e300, -0.0, math.nan,
                   math.inf, -math.inf, True, False, None, "", "running",
                   "placed", "rejected", "pod_local", [], [1, 2], {},
                   {"job_id": 1})

#: Keys an edit may add: every record type's, the typed args keys, and
#: one that nothing reads.
_ADDED_KEYS = ("args", "blocks", "cause", "end", "extra", "free_blocks",
               "job_id", "kind", "meta", "name", "outcome", "pod_id",
               "priority", "queue_depth", "running_jobs", "schema",
               "start", "time", "trunk_ports_in_use", "type", "version")

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
            sorted(inner) + ["blocks", "extra", "job_id", "kind",
                             "pod_id"] if isinstance(inner, dict) else ()
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
            ("header", "span", "instant", "decision", "sample", "job", "")))
    else:
        inner = record[draw(st.sampled_from(nested))]
        if isinstance(inner, list):
            inner[draw(st.integers(0, len(inner) - 1))] = value
        else:
            inner[draw(st.sampled_from(sorted(inner) + ["extra"]))] = value
    return json.dumps(record)


@functools.lru_cache(maxsize=None)
def _edge_lines():
    """A short valid edge log with every record type, as lines."""
    obs = _recorded("edge", 0)
    short = ObsRecorder(meta=obs.meta, spans=obs.spans[:5],
                        instants=obs.instants[:5],
                        decisions=obs.decisions[:5])
    samples = obs.samples
    for index in range(5):
        short.sample(samples.times[index], samples.queue_depth[index],
                     samples.running_jobs[index],
                     samples.trunk_ports_in_use[index],
                     [column[index] for column in samples.free_blocks])
    return tuple(_reference_dumps_obs(short).splitlines())


class TestReaderMatchesReference:
    """Every hostile edit of valid lines reads as the reference reader
    reads it: an equal log, or the same exception and message."""

    def test_short_log_has_every_record_type(self):
        assert {json.loads(line)["type"] for line in _edge_lines()} == \
            {"header", "span", "instant", "decision", "sample"}

    def test_every_one_field_edit_reads_as_reference(self):
        # The first line of each type, and the second sample row, which
        # a first row's width constrains.
        lines = _edge_lines()
        types = [json.loads(line)["type"] for line in lines]
        for index in sorted({types.index(kind) for kind in types} |
                            {types.index("sample") + 1}):
            for edited in _every_edit(lines[index]):
                _assert_reads_as_reference("\n".join(
                    lines[:index] + (edited,) + lines[index + 1:]))

    def test_chrome_export_reads_as_reference(self, tmp_path):
        path = save_obs(_recorded("edge", 0), tmp_path / "edge.json")
        _assert_same_outcome(
            _outcome(load_obs, path),
            _outcome(_reference_from_chrome_trace,
                     json.loads(path.read_text())))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_hostile_edits_read_as_reference(self, data):
        lines = list(_edge_lines())
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            index = data.draw(st.integers(0, len(lines) - 1), label="line")
            lines[index] = data.draw(_hostile_edit(lines[index]),
                                     label="edit")
        _assert_reads_as_reference("\n".join(lines) + "\n")


class TestReportRendering:
    def test_report_renders_causes_and_timeline(self):
        obs = _run_with_obs("edge").obs
        text = render_report(obs, limit=5)
        assert "placement attempts" in text
        assert "top rejection causes" in text
        assert "per-job timeline" in text
        # At least one non-placed cause shows under the hostile mix.
        assert any(cause in text for cause in REJECTED_CAUSES)


class TestProfiler:
    def test_profile_counts_and_render(self):
        simulator = FleetSimulator(preset_config("tiny"), seed=0)
        profiler = DispatchProfiler()
        plain = FleetSimulator(preset_config("tiny"), seed=0).run(
            PlacementPolicy.OCS)
        profiled = simulator.run(PlacementPolicy.OCS, profiler=profiler)
        # Instrumentation measures, never changes, the run.
        assert json.dumps(profiled.summary, sort_keys=True) == \
            json.dumps(plain.summary, sort_keys=True)
        assert profiler.run_seconds > 0
        report = profiler.report()
        assert report["phases"]["event_apply"]["calls"] > 0
        assert report["phases"]["dispatch_total"]["calls"] > 0
        assert report["phases"]["placement_scoring"]["calls"] > 0
        assert all(phase["seconds"] >= 0
                   for phase in report["phases"].values())
        text = profiler.render()
        assert "dispatch-loop profile" in text
        assert "placement_scoring" in text

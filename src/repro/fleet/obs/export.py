"""Observability-log exporters: Chrome trace-event JSON and JSONL.

Two on-disk shapes for one :class:`~repro.fleet.obs.tracer.ObsRecorder`
log, chosen by file extension at the CLI:

* **Chrome trace-event JSON** (``.json``) — the ``traceEvents`` object
  format Perfetto and ``chrome://tracing`` load directly.  Tracks: the
  ``fleet`` process holds one thread per pod (outage/drain/trunk
  instants) plus counter series (queue depth, running jobs, trunk
  ports, free blocks per pod); the ``jobs`` process holds one thread
  per *job class* (kind + block count) carrying every job's lifecycle
  spans, job instants, and decision-log instants.  Each event's
  ``args`` embeds the full source record, so the export is lossless
  for spans/instants/decisions and ``fleet report`` can read either
  format.
* **versioned JSONL** (``.jsonl``) — one validated record per line
  under the same header-first discipline as workload traces
  (:mod:`repro.fleet.trace`): schema tag, exact-version match, typed
  per-line validation, loud :class:`~repro.errors.TraceError` on any
  violation.

Determinism contract: both serializers emit records in recording order
with sorted keys and no wall-clock anywhere, so double runs of the same
scenario export byte-identical files — CI diffs them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.errors import TraceError
from repro.fleet.obs.tracer import (Decision, Instant, ObsRecorder,
                                    PLACED_CAUSES, REJECTED_CAUSES, Span)
from repro.units import HOUR

#: Bump on any schema change; loaders accept exactly this version.
#: The decision causes (PLACED_CAUSES, REJECTED_CAUSES) are part of it.
OBS_VERSION = 2

#: The JSONL header's schema tag — guards against feeding a workload
#: trace (schema repro.fleet.trace) or a bench artifact to the loader.
OBS_SCHEMA = "repro.fleet.obs"

#: Chrome trace-event process ids: fleet-level tracks vs per-job-class
#: tracks.  Constants, not config — the layout IS the format.
PID_FLEET = 1
PID_JOBS = 2

_MICROS = 1e6  # trace-event timestamps are microseconds

_OUTCOMES = ("placed", "rejected")
_CAUSES = set(PLACED_CAUSES) | set(REJECTED_CAUSES)


def _job_class(kind: str, blocks: int) -> str:
    """The display class one job belongs to (one track per class)."""
    return f"{kind}-{blocks}b"


def _job_classes(recorder: ObsRecorder) -> dict[str, int]:
    """Deterministic class -> thread id map over every job record."""
    classes: set[tuple[str, int]] = set()
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
    return {_job_class(kind, blocks): tid
            for tid, (kind, blocks) in enumerate(ordered)}


# -- Chrome trace-event export ---------------------------------------------------


def to_chrome_trace(recorder: ObsRecorder) -> dict[str, Any]:
    """The log as a Chrome trace-event object (Perfetto-loadable)."""
    meta = recorder.meta
    num_pods = int(meta.get("num_pods", 0))
    classes = _job_classes(recorder)
    events: list[dict[str, Any]] = []

    def metadata(pid: int, tid: int, name: str, label: str) -> None:
        events.append({"ph": "M", "pid": pid, "tid": tid, "name": name,
                       "args": {"name": label}})

    metadata(PID_FLEET, 0, "process_name", "fleet")
    for pod_id in range(num_pods):
        metadata(PID_FLEET, pod_id, "thread_name", f"pod {pod_id}")
    metadata(PID_JOBS, 0, "process_name", "jobs")
    for label, tid in classes.items():
        metadata(PID_JOBS, tid, "thread_name", label)

    def class_tid(args: dict[str, Any]) -> int:
        return classes.get(_job_class(args.get("kind", "job"),
                                      args.get("blocks", 0)), 0)

    for span in recorder.spans:
        events.append({
            "ph": "X", "pid": PID_JOBS, "tid": class_tid(span.args),
            "ts": span.start * _MICROS, "dur": span.duration * _MICROS,
            "name": span.name,
            "args": {"job_id": span.job_id, **span.args}})
    for instant in recorder.instants:
        if "job_id" in instant.args:
            pid, tid = PID_JOBS, class_tid(instant.args)
        else:
            pid, tid = PID_FLEET, int(instant.args.get("pod_id", 0))
        events.append({
            "ph": "i", "s": "t", "pid": pid, "tid": tid,
            "ts": instant.time * _MICROS, "name": instant.name,
            "args": dict(instant.args)})
    for decision in recorder.decisions:
        events.append({
            "ph": "i", "s": "t", "pid": PID_JOBS,
            "tid": classes.get(_job_class(decision.kind, decision.blocks),
                               0),
            "ts": decision.time * _MICROS,
            "name": f"decision:{decision.cause}",
            "args": {"job_id": decision.job_id, "kind": decision.kind,
                     "blocks": decision.blocks,
                     "priority": decision.priority,
                     "outcome": decision.outcome,
                     "cause": decision.cause}})
    samples = recorder.samples
    for index, time in enumerate(samples.times):
        ts = time * _MICROS
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
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": OBS_SCHEMA, "version": OBS_VERSION,
                      **meta},
    }


def dumps_chrome_trace(recorder: ObsRecorder) -> str:
    """Chrome trace-event JSON text (deterministic key order)."""
    return json.dumps(to_chrome_trace(recorder), sort_keys=True,
                      separators=(",", ":")) + "\n"


def validate_chrome_trace(payload: Any) -> None:
    """Check trace-event structural validity; TraceError on violation.

    Validates the subset of the Chrome trace-event format this library
    emits and Perfetto requires: a ``traceEvents`` list whose members
    carry a known phase, integer pid/tid, a string name, and — for
    duration/instant/counter phases — finite microsecond timestamps.
    """
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


# -- JSONL export ----------------------------------------------------------------


def dumps_obs(recorder: ObsRecorder) -> str:
    """The log as versioned JSONL text (trailing newline included)."""
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
    for index, time in enumerate(samples.times):
        lines.append(json.dumps({
            "type": "sample", "time": time,
            "queue_depth": samples.queue_depth[index],
            "running_jobs": samples.running_jobs[index],
            "trunk_ports_in_use": samples.trunk_ports_in_use[index],
            "free_blocks": [column[index]
                            for column in samples.free_blocks],
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def _fail(where: str, message: str) -> TraceError:
    return TraceError(f"{where}: {message}")


def _number(record: dict, key: str, where: str) -> float:
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(where, f"{key} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise _fail(where, f"{key} must be finite")
    return value


def _integer(record: dict, key: str, where: str) -> int:
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(where, f"{key} must be an integer, got {value!r}")
    return value


def _string(record: dict, key: str, where: str) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise _fail(where, f"{key} must be a non-empty string, "
                           f"got {value!r}")
    return value


def _args(record: dict, where: str) -> dict:
    """A record's args, with the keys the exporters and report read typed."""
    value = record.get("args", {})
    if not isinstance(value, dict):
        raise _fail(where, f"args must be an object, got {value!r}")
    for key in ("job_id", "blocks", "pod_id"):
        item = value.get(key, 0)
        if isinstance(item, bool) or not isinstance(item, int):
            raise _fail(where, f"args.{key} must be an integer, "
                               f"got {item!r}")
    if not isinstance(value.get("kind", ""), str):
        raise _fail(where, f"args.kind must be a string, "
                           f"got {value['kind']!r}")
    return value


def _check_version(version: Any, where: str) -> None:
    if version != OBS_VERSION:
        raise _fail(where, f"unsupported version {version!r} (this "
                           f"library reads version {OBS_VERSION})")


def _parse_record(recorder: ObsRecorder, record: dict, where: str) -> None:
    """Validate one body record (JSONL shape) and append it to the log.

    The one record parser: the JSONL reader feeds it each line after
    the header, and the Chrome reader each event it rebuilds.
    """
    kind = record.get("type")
    if kind == "span":
        start = _number(record, "start", where)
        end = _number(record, "end", where)
        if end < start:
            raise _fail(where, f"span ends at {end} before its start "
                               f"{start}")
        recorder.spans.append(Span(
            name=_string(record, "name", where),
            job_id=_integer(record, "job_id", where),
            start=start, end=end, args=_args(record, where)))
    elif kind == "instant":
        recorder.instants.append(Instant(
            name=_string(record, "name", where),
            time=_number(record, "time", where),
            args=_args(record, where)))
    elif kind == "decision":
        outcome = _string(record, "outcome", where)
        if outcome not in _OUTCOMES:
            raise _fail(where, f"outcome must be one of {_OUTCOMES}, "
                               f"got {outcome!r}")
        cause = _string(record, "cause", where)
        if cause not in _CAUSES:
            raise _fail(where, f"unknown decision cause {cause!r}; have "
                               f"{sorted(_CAUSES)}")
        recorder.decisions.append(Decision(
            time=_number(record, "time", where),
            job_id=_integer(record, "job_id", where),
            kind=_string(record, "kind", where),
            blocks=_integer(record, "blocks", where),
            priority=_integer(record, "priority", where),
            outcome=outcome, cause=cause))
    elif kind == "sample":
        free = record.get("free_blocks")
        if not (isinstance(free, list) and
                all(isinstance(f, int) and not isinstance(f, bool)
                    for f in free)):
            raise _fail(where, f"free_blocks must be a list of integers, "
                               f"got {free!r}")
        recorder.sample(
            time=_number(record, "time", where),
            queue_depth=_integer(record, "queue_depth", where),
            running_jobs=_integer(record, "running_jobs", where),
            trunk_ports_in_use=_integer(record, "trunk_ports_in_use",
                                        where),
            free_by_pod=list(free))
    else:
        raise _fail(where, f"unknown record type {kind!r}")


def loads_obs(text: str) -> ObsRecorder:
    """Parse and validate JSONL observability text into a recorder."""
    recorder: ObsRecorder | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"observability line {line_no}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _fail(where, f"not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise _fail(where, "expected an object")
        if recorder is None:
            if record.get("type") != "header":
                raise _fail(where, "first record must be the header")
            if record.get("schema") != OBS_SCHEMA:
                raise _fail(where,
                            f"not an observability log (schema "
                            f"{record.get('schema')!r}, expected "
                            f"{OBS_SCHEMA!r})")
            _check_version(record.get("version"), where)
            meta = record.get("meta", {})
            if not isinstance(meta, dict):
                raise _fail(where, "meta must be an object")
            recorder = ObsRecorder(meta=meta)
        elif record.get("type") == "header":
            raise _fail(where, "duplicate header")
        else:
            _parse_record(recorder, record, where)
    if recorder is None:
        raise TraceError("empty observability log: no header record")
    return recorder


# -- file round-trip -------------------------------------------------------------


def save_obs(recorder: ObsRecorder, path: str | Path) -> Path:
    """Write the log to `path`: Chrome JSON unless it ends in .jsonl."""
    target = Path(path)
    if target.suffix == ".jsonl":
        target.write_text(dumps_obs(recorder))
    else:
        target.write_text(dumps_chrome_trace(recorder))
    return target


def _from_chrome_trace(payload: dict) -> ObsRecorder:
    """Rebuild a recorder from an exported Chrome trace object.

    Lossless for spans, instants, and decisions (their args embed the
    source records): each one is turned back into its JSONL record and
    validated by the same parser as the JSONL reader.  Counter samples
    stay in counter form and are not rebuilt — the report only
    summarizes them.
    """
    validate_chrome_trace(payload)
    other = payload.get("otherData", {})
    if not isinstance(other, dict) or other.get("schema") != OBS_SCHEMA:
        raise TraceError("chrome trace was not exported by this library "
                         "(otherData.schema missing); fleet report needs "
                         "the JSONL export for foreign traces")
    _check_version(other.get("version"), "chrome trace otherData")
    meta = {key: value for key, value in other.items()
            if key not in ("schema", "version")}
    recorder = ObsRecorder(meta=meta)
    for index, event in enumerate(payload["traceEvents"]):
        if event["ph"] not in ("X", "i"):
            continue  # track metadata and counter samples
        where = f"traceEvents[{index}]"
        args = _args(event, where)
        time = event["ts"] / _MICROS
        if event["ph"] == "X":
            record = {"type": "span", "name": event["name"],
                      "job_id": args.get("job_id"), "start": time,
                      "end": (event["ts"] + event["dur"]) / _MICROS,
                      "args": {key: value for key, value in args.items()
                               if key != "job_id"}}
        elif "outcome" in args:
            record = {**args, "type": "decision", "time": time}
        else:
            record = {"type": "instant", "name": event["name"],
                      "time": time, "args": dict(args)}
        _parse_record(recorder, record, where)
    return recorder


def load_obs(path: str | Path) -> ObsRecorder:
    """Load either export format back into a recorder.

    A Chrome export parses as one JSON object with ``traceEvents``; a
    JSONL export parses line by line.  Everything else fails loudly.
    """
    source = Path(path)
    if not source.exists():
        raise TraceError(f"observability file {source} does not exist")
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(
            f"cannot read observability file {source}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return loads_obs(text)
    if isinstance(payload, dict) and "traceEvents" in payload:
        return _from_chrome_trace(payload)
    if isinstance(payload, dict) and payload.get("type") == "header":
        return loads_obs(text)  # a one-line (empty) JSONL log
    raise TraceError(f"{source} is neither a Chrome trace export nor a "
                     f"JSONL observability log")


# -- the `fleet report` renderer -------------------------------------------------


def render_report(recorder: ObsRecorder, *, limit: int = 30) -> str:
    """Human-readable digest: run identity, decisions, job timelines."""
    meta = recorder.meta
    lines = [
        f"observability report: policy={meta.get('policy', '?')} "
        f"strategy={meta.get('strategy', '?')} "
        f"seed={meta.get('seed', '?')} "
        f"pods={meta.get('num_pods', '?')}x"
        f"{meta.get('blocks_per_pod', '?')} blocks",
        f"  records: {len(recorder.spans)} spans, "
        f"{len(recorder.instants)} instants, "
        f"{len(recorder.decisions)} decisions, "
        f"{len(recorder.samples)} samples",
    ]
    placed = [d for d in recorder.decisions if d.placed]
    rejected = [d for d in recorder.decisions if not d.placed]
    lines.append(f"  placement attempts: {len(recorder.decisions)} "
                 f"({len(placed)} placed, {len(rejected)} rejected)")
    via: dict[str, int] = {}
    for decision in placed:
        via[decision.cause] = via.get(decision.cause, 0) + 1
    if via:
        lines.append("  placed via: " + "  ".join(
            f"{cause} {count}" for cause, count in
            sorted(via.items(), key=lambda item: (-item[1], item[0]))))
    causes = recorder.rejection_counts()
    if causes:
        lines.append("  top rejection causes:")
        for cause, count in causes.items():
            lines.append(f"    {cause:<26} {count}")
    per_job: dict[int, dict[str, float]] = {}
    segments: dict[int, int] = {}
    classes: dict[int, str] = {}
    for span in recorder.spans:
        buckets = per_job.setdefault(span.job_id,
                                     {"queued": 0.0, "reconfig": 0.0,
                                      "restore": 0.0, "running": 0.0})
        buckets[span.name] = buckets.get(span.name, 0.0) + span.duration
        if span.name == "running":
            segments[span.job_id] = segments.get(span.job_id, 0) + 1
        if span.job_id not in classes and "kind" in span.args:
            classes[span.job_id] = _job_class(span.args["kind"],
                                              span.args.get("blocks", 0))
    completed = {instant.args["job_id"]
                 for instant in recorder.instants
                 if instant.name == "completed"
                 and "job_id" in instant.args}
    if per_job:
        shown = sorted(per_job)[:limit]
        lines.append(f"  per-job timeline (hours; first {len(shown)} of "
                     f"{len(per_job)} jobs that ran):")
        lines.append(f"    {'job':>6} {'class':<12} {'queued':>8} "
                     f"{'reconfig':>8} {'restore':>8} {'running':>8} "
                     f"{'segs':>4}  done")
        for job_id in shown:
            buckets = per_job[job_id]
            lines.append(
                f"    {job_id:>6} {classes.get(job_id, '?'):<12} "
                f"{buckets['queued'] / HOUR:>8.2f} "
                f"{buckets['reconfig'] / HOUR:>8.2f} "
                f"{buckets['restore'] / HOUR:>8.2f} "
                f"{buckets['running'] / HOUR:>8.2f} "
                f"{segments.get(job_id, 0):>4}  "
                f"{'yes' if job_id in completed else 'no'}")
    if len(recorder.samples):
        samples = recorder.samples
        lines.append(
            f"  samples: {len(samples)} at "
            f"{meta.get('sample_every_seconds', '?')}s cadence; "
            f"queue depth max {max(samples.queue_depth)}, "
            f"running jobs max {max(samples.running_jobs)}, "
            f"trunk ports max {max(samples.trunk_ports_in_use)}")
    return "\n".join(lines)

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
  ``args`` embeds the full source record, so ``fleet report`` can read
  either format.  Reloading a Chrome export rebuilds every span,
  instant and decision exactly except their times: those pass through
  microseconds (``ts``, ``dur``) and can come back one ulp off.
* **versioned JSONL** (``.jsonl``) — the bit-exact format: one
  validated record per line under the same header-first discipline as
  workload traces (:mod:`repro.fleet.trace`): schema tag, exact-version
  match, typed per-line validation, loud
  :class:`~repro.errors.TraceError` on any violation.

Determinism contract: both serializers emit records in recording order
with sorted keys and no wall-clock anywhere, so double runs of the same
scenario export byte-identical files — CI diffs them.  Every record's
text equals ``json.dumps(record, sort_keys=True)`` byte for byte
(``tests/test_fleet_obs.py`` keeps those writers as the reference).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

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

#: A record's location in an error, formatted with its line number (the
#: JSONL reader) or its event index (the Chrome reader) only on failure.
_LINE = "observability line %d"
_EVENT = "traceEvents[%d]"


def _fail(where: str, message: str) -> TraceError:
    return TraceError(f"{where}: {message}")


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


# -- record templates ------------------------------------------------------------
#
# One format string per record type, its keys in the order
# ``sort_keys=True`` emits them and with the format's separators.  An
# exact str, int or finite float is written as json's C encoder writes
# it; every other value, and the free-form dicts (args, meta,
# otherData), goes through the format's encoder.  So the bytes equal
# ``json.dumps(record, sort_keys=True)`` for every input, and an
# unencodable value raises the same TypeError.

_JSONL = json.JSONEncoder(sort_keys=True)
_CHROME = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

_SPAN_LINE = ('{"args": %s, "end": %s, "job_id": %s, "name": %s, '
              '"start": %s, "type": "span"}')
_INSTANT_LINE = '{"args": %s, "name": %s, "time": %s, "type": "instant"}'
_DECISION_LINE = ('{"blocks": %s, "cause": %s, "job_id": %s, "kind": %s, '
                  '"outcome": %s, "priority": %s, "time": %s, '
                  '"type": "decision"}')
_SAMPLE_LINE = ('{"free_blocks": [%s], "queue_depth": %s, '
                '"running_jobs": %s, "time": %s, "trunk_ports_in_use": %s, '
                '"type": "sample"}')

_METADATA_EVENT = ('{"args":{"name":%s},"name":%s,"ph":"M","pid":%d,'
                   '"tid":%d}')
_SPAN_EVENT = ('{"args":%s,"dur":%s,"name":%s,"ph":"X","pid":%d,"tid":%d,'
               '"ts":%s}')
_INSTANT_EVENT = ('{"args":%s,"name":%s,"ph":"i","pid":%d,"s":"t","tid":%d,'
                  '"ts":%s}')
_DECISION_EVENT = ('{"args":{"blocks":%s,"cause":%s,"job_id":%s,"kind":%s,'
                   '"outcome":%s,"priority":%s},"name":%s,"ph":"i","pid":%d,'
                   '"s":"t","tid":%d,"ts":%s}')
_COUNTER_EVENT = ('{"args":{"value":%s},"name":%s,"ph":"C","pid":%d,"tid":0,'
                  '"ts":%s}')
_CHROME_DOCUMENT = ('{"displayTimeUnit":"ms","otherData":%s,'
                    '"traceEvents":[%s]}\n')

_escape = json.encoder.encode_basestring_ascii  # the ensure_ascii escaper
_float_repr = float.__repr__
_int_repr = int.__repr__


def _scalar_writer(encoder: json.JSONEncoder) -> Callable[[Any], str]:
    """A function writing one value as `encoder` would, by exact type."""
    fallback = encoder.encode

    def scalar(value: Any) -> str:
        kind = type(value)
        if kind is str:
            return _escape(value)
        if kind is float and -math.inf < value < math.inf:
            return _float_repr(value)
        if kind is int:
            return _int_repr(value)
        return fallback(value)

    return scalar


_jsonl_scalar = _scalar_writer(_JSONL)
_chrome_scalar = _scalar_writer(_CHROME)


# -- Chrome trace-event export ---------------------------------------------------


def dumps_chrome_trace(recorder: ObsRecorder) -> str:
    """The log as Chrome trace-event JSON text (Perfetto-loadable).

    The text equals ``json.dumps(trace, sort_keys=True,
    separators=(",", ":")) + "\\n"`` of the trace-event object.
    """
    scalar = _chrome_scalar
    encode = _CHROME.encode
    meta = recorder.meta
    classes = _job_classes(recorder)
    events = [_METADATA_EVENT % (scalar("fleet"), scalar("process_name"),
                                 PID_FLEET, 0)]
    events += [_METADATA_EVENT % (scalar(f"pod {pod_id}"),
                                  scalar("thread_name"), PID_FLEET, pod_id)
               for pod_id in range(int(meta.get("num_pods", 0)))]
    events.append(_METADATA_EVENT % (scalar("jobs"), scalar("process_name"),
                                     PID_JOBS, 0))
    events += [_METADATA_EVENT % (scalar(label), scalar("thread_name"),
                                  PID_JOBS, tid)
               for label, tid in classes.items()]
    for name, job_id, start, end, args in recorder.spans:
        tid = classes.get(_job_class(args.get("kind", "job"),
                                     args.get("blocks", 0)), 0)
        events.append(_SPAN_EVENT % (
            encode({"job_id": job_id, **args}),
            scalar((end - start) * _MICROS), scalar(name), PID_JOBS, tid,
            scalar(start * _MICROS)))
    for name, time, args in recorder.instants:
        if "job_id" in args:
            pid = PID_JOBS
            tid = classes.get(_job_class(args.get("kind", "job"),
                                         args.get("blocks", 0)), 0)
        else:
            pid, tid = PID_FLEET, int(args.get("pod_id", 0))
        events.append(_INSTANT_EVENT % (encode(args), scalar(name), pid, tid,
                                        scalar(time * _MICROS)))
    for time, job_id, kind, blocks, priority, outcome, cause in \
            recorder.decisions:
        events.append(_DECISION_EVENT % (
            scalar(blocks), scalar(cause), scalar(job_id), scalar(kind),
            scalar(outcome), scalar(priority), scalar(f"decision:{cause}"),
            PID_JOBS, classes.get(_job_class(kind, blocks), 0),
            scalar(time * _MICROS)))
    samples = recorder.samples
    names = ["queue_depth", "running_jobs", "trunk_ports_in_use"]
    names += [f"free_blocks_pod{pod_id}"
              for pod_id in range(len(samples.free_blocks))]
    counters = list(zip(
        [scalar(name) for name in names],
        [samples.queue_depth, samples.running_jobs,
         samples.trunk_ports_in_use, *samples.free_blocks]))
    for index, time in enumerate(samples.times):
        ts = scalar(time * _MICROS)
        events += [_COUNTER_EVENT % (scalar(column[index]), name, PID_FLEET,
                                     ts)
                   for name, column in counters]
    other = encode({"schema": OBS_SCHEMA, "version": OBS_VERSION, **meta})
    return _CHROME_DOCUMENT % (other, ",".join(events))


def _finite(value: Any) -> bool:
    """An int or float, not a bool, that is a finite float: an int past
    float range is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
        if not isinstance(event, dict):
            raise _fail(_EVENT % index, "events must be objects")
        phase = event.get("ph")
        if phase not in ("M", "X", "i", "C"):
            raise _fail(_EVENT % index, f"unknown phase {phase!r}")
        for key in ("pid", "tid"):
            value = event.get(key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise _fail(_EVENT % index, f"{key} must be an integer, "
                                            f"got {value!r}")
        if not isinstance(event.get("name"), str):
            raise _fail(_EVENT % index, "name must be a string")
        if phase != "M":
            ts = event.get("ts")
            if not _finite(ts):
                raise _fail(_EVENT % index, f"ts must be a finite number, "
                                            f"got {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not _finite(dur) or dur < 0:
                raise _fail(_EVENT % index, f"dur must be a finite "
                                            f"non-negative number, "
                                            f"got {dur!r}")


# -- JSONL export ----------------------------------------------------------------


def dumps_obs(recorder: ObsRecorder) -> str:
    """The log as versioned JSONL text (trailing newline included).

    Each line equals ``json.dumps(record, sort_keys=True)``.
    """
    scalar = _jsonl_scalar
    encode = _JSONL.encode
    lines = [encode({"type": "header", "schema": OBS_SCHEMA,
                     "version": OBS_VERSION, "meta": recorder.meta})]
    lines += [_SPAN_LINE % (encode(args), scalar(end), scalar(job_id),
                            scalar(name), scalar(start))
              for name, job_id, start, end, args in recorder.spans]
    lines += [_INSTANT_LINE % (encode(args), scalar(name), scalar(time))
              for name, time, args in recorder.instants]
    lines += [_DECISION_LINE % (scalar(blocks), scalar(cause),
                                scalar(job_id), scalar(kind),
                                scalar(outcome), scalar(priority),
                                scalar(time))
              for time, job_id, kind, blocks, priority, outcome, cause
              in recorder.decisions]
    samples = recorder.samples
    for index, time in enumerate(samples.times):
        lines.append(_SAMPLE_LINE % (
            ", ".join([scalar(column[index])
                       for column in samples.free_blocks]),
            scalar(samples.queue_depth[index]),
            scalar(samples.running_jobs[index]), scalar(time),
            scalar(samples.trunk_ports_in_use[index])))
    return "\n".join(lines) + "\n"


# -- JSONL import ----------------------------------------------------------------
#
# One parser per record type.  Each first tests the values for the
# types its writer emits: an exact int, a finite float, a non-empty str
# or a known outcome or cause, and args whose typed keys are exact.  A
# record that passes is appended as it stands.  Any other value falls
# through to the checks below, in their order, which coerce (an int
# time becomes a float) or raise.  So an accepted record is built as
# the checks alone would build it, a rejected one raises the same
# TraceError, and nothing is appended before a record passes every
# check.


def _number(record: dict, key: str, where: str) -> float:
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(where, f"{key} must be a number, got {value!r}")
    if not _finite(value):
        raise _fail(where, f"{key} must be finite")
    return float(value)


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


def _plain_args(value: Any) -> bool:
    """True when `value` is args that `_args` accepts, of exact types."""
    return (type(value) is dict and type(value.get("job_id", 0)) is int
            and type(value.get("blocks", 0)) is int
            and type(value.get("pod_id", 0)) is int
            and type(value.get("kind", "")) is str)


def _check_version(version: Any, where: str) -> None:
    if version != OBS_VERSION:
        raise _fail(where, f"unsupported version {version!r} (this "
                           f"library reads version {OBS_VERSION})")


def _parse_span(recorder: ObsRecorder, record: dict, place: str,
                at: int) -> None:
    name, job_id = record.get("name"), record.get("job_id")
    start, end = record.get("start"), record.get("end")
    args = record.get("args")
    if type(start) is float and type(end) is float and \
            -math.inf < start <= end < math.inf and \
            type(name) is str and name and type(job_id) is int and \
            _plain_args(args):
        recorder.spans.append(Span(name, job_id, start, end, args))
        return
    where = place % at
    start = _number(record, "start", where)
    end = _number(record, "end", where)
    if end < start:
        raise _fail(where, f"span ends at {end} before its start "
                           f"{start}")
    recorder.spans.append(Span(
        _string(record, "name", where),
        _integer(record, "job_id", where),
        start, end, _args(record, where)))


def _parse_instant(recorder: ObsRecorder, record: dict, place: str,
                   at: int) -> None:
    name, time = record.get("name"), record.get("time")
    args = record.get("args")
    if type(name) is str and name and type(time) is float and \
            -math.inf < time < math.inf and _plain_args(args):
        recorder.instants.append(Instant(name, time, args))
        return
    where = place % at
    recorder.instants.append(Instant(
        _string(record, "name", where),
        _number(record, "time", where),
        _args(record, where)))


def _parse_decision(recorder: ObsRecorder, record: dict, place: str,
                    at: int) -> None:
    outcome, cause = record.get("outcome"), record.get("cause")
    time, job_id = record.get("time"), record.get("job_id")
    kind, blocks = record.get("kind"), record.get("blocks")
    priority = record.get("priority")
    if type(outcome) is str and outcome in _OUTCOMES and \
            type(cause) is str and cause in _CAUSES and \
            type(time) is float and -math.inf < time < math.inf and \
            type(job_id) is int and type(kind) is str and kind and \
            type(blocks) is int and type(priority) is int:
        recorder.decisions.append(Decision(time, job_id, kind, blocks,
                                           priority, outcome, cause))
        return
    where = place % at
    outcome = _string(record, "outcome", where)
    if outcome not in _OUTCOMES:
        raise _fail(where, f"outcome must be one of {_OUTCOMES}, "
                           f"got {outcome!r}")
    cause = _string(record, "cause", where)
    if cause not in _CAUSES:
        raise _fail(where, f"unknown decision cause {cause!r}; have "
                           f"{sorted(_CAUSES)}")
    recorder.decisions.append(Decision(
        _number(record, "time", where),
        _integer(record, "job_id", where),
        _string(record, "kind", where),
        _integer(record, "blocks", where),
        _integer(record, "priority", where),
        outcome, cause))


def _parse_sample(recorder: ObsRecorder, record: dict, place: str,
                  at: int) -> None:
    free, time = record.get("free_blocks"), record.get("time")
    queue, running = record.get("queue_depth"), record.get("running_jobs")
    trunk = record.get("trunk_ports_in_use")
    columns = recorder.samples.free_blocks
    if type(free) is list and all(type(count) is int for count in free) \
            and (not recorder.samples.times or len(free) == len(columns)) \
            and type(time) is float and -math.inf < time < math.inf and \
            type(queue) is int and type(running) is int and \
            type(trunk) is int:
        recorder.sample(time, queue, running, trunk, free)
        return
    where = place % at
    if not (isinstance(free, list) and
            all(isinstance(f, int) and not isinstance(f, bool)
                for f in free)):
        raise _fail(where, f"free_blocks must be a list of integers, "
                           f"got {free!r}")
    if len(recorder.samples) and len(free) != len(columns):
        # One column per pod: a row of another length would leave
        # the columns ragged (or drop its extra entries).
        raise _fail(where, f"free_blocks has {len(free)} entries, but "
                           f"the first sample row has {len(columns)}")
    recorder.sample(
        time=_number(record, "time", where),
        queue_depth=_integer(record, "queue_depth", where),
        running_jobs=_integer(record, "running_jobs", where),
        trunk_ports_in_use=_integer(record, "trunk_ports_in_use", where),
        free_by_pod=list(free))


_PARSERS = {"span": _parse_span, "instant": _parse_instant,
            "decision": _parse_decision, "sample": _parse_sample}


def _parse_record(recorder: ObsRecorder, record: dict, place: str,
                  at: int) -> None:
    """Validate one body record (JSONL shape) and append it to the log.

    The one record parser: the JSONL reader feeds it each line after
    the header, and the Chrome reader each event it rebuilds.  An error
    names the record as ``place % at``.
    """
    kind = record.get("type")
    parser = _PARSERS.get(kind) if isinstance(kind, str) else None
    if parser is None:
        raise _fail(place % at, f"unknown record type {kind!r}")
    parser(recorder, record, place, at)


def _parse_header(record: dict, line_no: int) -> ObsRecorder:
    """The empty log a JSONL header record opens."""
    meta = record.get("meta", {})
    if record.get("type") == "header" and \
            record.get("schema") == OBS_SCHEMA and \
            record.get("version") == OBS_VERSION and isinstance(meta, dict):
        return ObsRecorder(meta=meta)
    where = _LINE % line_no
    if record.get("type") != "header":
        raise _fail(where, "first record must be the header")
    if record.get("schema") != OBS_SCHEMA:
        raise _fail(where, f"not an observability log (schema "
                           f"{record.get('schema')!r}, expected "
                           f"{OBS_SCHEMA!r})")
    _check_version(record.get("version"), where)
    raise _fail(where, "meta must be an object")  # the one test left


#: Stands in for an integer literal too long for `int()` to read.
_OVERLONG = object()

#: Why a line nested past the interpreter's recursion limit is refused:
#: `json.loads` raises `RecursionError` on it.
_TOO_DEEP = "nested too deeply to read"


def _overlong_integer(line: str) -> str:
    """Name the key of the first integer literal in `line` that is too
    long to read, as an error message.

    `json.loads` reads each integer literal with `int()`, which refuses
    one of more than `sys.get_int_max_str_digits()` digits with a plain
    `ValueError` that names no key.  So the line is read again with
    such literals marked, and the first marked key is named: ``arrival``,
    ``args.blocks`` or ``traceEvents[3].ts``.
    """
    def parse_int(literal: str) -> Any:
        try:
            return int(literal)
        except ValueError:
            return _OVERLONG

    def find(node: Any, path: str) -> str | None:
        if node is _OVERLONG:
            return path
        if isinstance(node, dict):
            children = [(f"{path}.{key}" if path else key, child)
                        for key, child in node.items()]
        elif isinstance(node, list):
            children = [(f"{path}[{index}]", child)
                        for index, child in enumerate(node)]
        else:
            children = []
        return next(filter(None, (find(child, where)
                                  for where, child in children)), None)

    try:
        record = json.loads(line, parse_int=parse_int)
        where = find(record, "")
    except json.JSONDecodeError as exc:  # broken past the literal too
        return f"not valid JSON: {exc}"
    except RecursionError:  # nested too deeply past the literal
        return _TOO_DEEP
    return (f"{where or 'the value'} is an integer of more than "
            f"{sys.get_int_max_str_digits():,} digits")


def loads_obs(text: str) -> ObsRecorder:
    """Parse and validate JSONL observability text into a recorder."""
    recorder: ObsRecorder | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if not line.strip():
                continue  # blank lines tolerated
            raise _fail(_LINE % line_no, f"not valid JSON: {exc}") from exc
        except ValueError as exc:  # an integer literal too long to read
            raise _fail(_LINE % line_no, _overlong_integer(line)) from exc
        except RecursionError as exc:
            raise _fail(_LINE % line_no, _TOO_DEEP) from exc
        if not isinstance(record, dict):
            raise _fail(_LINE % line_no, "expected an object")
        if recorder is None:
            recorder = _parse_header(record, line_no)
        elif record.get("type") == "header":
            raise _fail(_LINE % line_no, "duplicate header")
        else:
            _parse_record(recorder, record, _LINE, line_no)
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

    Spans, instants, and decisions come back from their args, which
    embed the source records: each one is turned back into its JSONL
    record and validated by the same parser as the JSONL reader.  Their
    times pass through microseconds and can come back one ulp off; the
    JSONL export is the bit-exact one.  Counter samples
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
        args = event.get("args", {})
        if not _plain_args(args):
            args = _args(event, _EVENT % index)
        time = event["ts"] / _MICROS
        if event["ph"] == "X":
            try:
                end = (event["ts"] + event["dur"]) / _MICROS
            except OverflowError as exc:  # two ints summing past float range
                raise _fail(_EVENT % index, "end must be finite") from exc
            record = {"type": "span", "name": event["name"],
                      "job_id": args.get("job_id"), "start": time,
                      "end": end,
                      "args": {key: value for key, value in args.items()
                               if key != "job_id"}}
        elif "outcome" in args:
            record = {**args, "type": "decision", "time": time}
        else:
            record = {"type": "instant", "name": event["name"],
                      "time": time, "args": dict(args)}
        _parse_record(recorder, record, _EVENT, index)
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
    except (ValueError, RecursionError):
        # Not one JSON document, an integer literal too long to read,
        # or nesting too deep: the line reader names the line (a Chrome
        # export is one line) and the key.
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

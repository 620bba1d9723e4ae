"""Versioned JSONL workload traces: record, load, validate, replay.

A trace freezes every input of one fleet run — the config, the seed,
the job arrivals (shape/type/priority/duration), the block-outage
trace, and any planned deployment drain windows — into a line-oriented
JSON file, so the run can be replayed later, bit for bit, without ever
touching an RNG.  This is how the TPU-generations retrospective
evaluates fleet resilience: against replayed production-shaped load,
not fresh draws.  Scenario work then becomes "ship a trace and a
schedule" instead of "write a generator".

Schema (one JSON object per line):

    {"type": "header", "schema": "repro.fleet.trace", "version": 3,
     "seed": 0, "config": {...FleetConfig fields...}}
    {"type": "job", "job_id": 0, "kind": "train", "model_type": "...",
     "shape": [4, 4, 8], "arrival": 12.5, "work_seconds": 3600.0,
     "priority": 1}
    {"type": "outage", "pod_id": 0, "block_id": 7, "start": 100.0,
     "end": 900.0, "via_spare": false}
    {"type": "drain", "pod_id": 1, "block_id": 3, "start": 86400.0,
     "end": 172800.0}

The header must be the first line and its version must match
:data:`TRACE_VERSION` exactly; jobs must arrive in nondecreasing
arrival order with strictly increasing ids; outages and drains must be
sorted by (start, pod, block) — event insertion order is part of the
determinism contract, so the file order IS the replay order.  Every
record is validated on load (:class:`repro.errors.TraceError` on any
violation), so a malformed or hand-edited trace fails loudly before a
single event fires.  Floats round-trip exactly through JSON (shortest
repr), which is what makes replayed telemetry byte-identical to the
recorded run's.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.slicing import blocks_needed
from repro.errors import ConfigurationError, SchedulingError, TraceError
from repro.fleet.config import FleetConfig
from repro.fleet.failures import BlockOutage, DrainWindow
from repro.fleet.obs.export import (_TOO_DEEP, _jsonl_scalar,
                                    _overlong_integer)
from repro.fleet.serve.scenarios import scenario_for
from repro.fleet.simulator import FleetSimulator
from repro.fleet.workload import FleetJob

#: Bump on any schema change; loaders accept exactly this version.
#: The header embeds every FleetConfig field, so adding or removing a
#: field is a schema change.
TRACE_VERSION = 3

#: The header's schema tag — guards against feeding some other JSONL
#: file (a telemetry dump, a bench artifact) to the replayer.
TRACE_SCHEMA = "repro.fleet.trace"

_JOB_KEYS = {"type", "job_id", "kind", "model_type", "shape", "arrival",
             "work_seconds", "priority"}
_OUTAGE_KEYS = {"type", "pod_id", "block_id", "start", "end", "via_spare"}
_DRAIN_KEYS = {"type", "pod_id", "block_id", "start", "end"}
_HEADER_KEYS = {"type", "schema", "version", "seed", "config"}

#: The config fields a header must embed, in declaration order.
_CONFIG_FIELDS = tuple(spec.name for spec in dataclasses.fields(FleetConfig))


@dataclass(frozen=True)
class FleetTrace:
    """One recorded fleet run's inputs, ready to save or replay."""

    seed: int
    config: FleetConfig
    jobs: tuple[FleetJob, ...]
    outages: tuple[BlockOutage, ...]
    windows: tuple[DrainWindow, ...] = ()
    version: int = TRACE_VERSION

    @property
    def num_records(self) -> int:
        """Body lines the trace serializes to (header excluded)."""
        return len(self.jobs) + len(self.outages) + len(self.windows)


def trace_of(simulator: FleetSimulator) -> FleetTrace:
    """Freeze a built simulator's inputs into a trace.

    Works on any simulator — synthetic, replayed, or scenario-overlaid
    — because by construction the simulator's `jobs`/`trace`/`windows`
    are exactly the policy-independent inputs a trace must capture.
    """
    return FleetTrace(seed=simulator.seed, config=simulator.config,
                      jobs=tuple(simulator.jobs),
                      outages=tuple(simulator.trace),
                      windows=tuple(simulator.windows))


def record_trace(config: FleetConfig, *, seed: int = 0,
                 windows: Sequence[DrainWindow] = ()) -> FleetTrace:
    """Draw one run's inputs from `config`/`seed` and freeze them."""
    return trace_of(FleetSimulator(config, seed=seed, windows=windows))


# -- serialization ---------------------------------------------------------------


def _config_payload(config: FleetConfig) -> dict[str, Any]:
    return config.to_dict()


# One template per body record type, its keys in the order
# ``sort_keys=True`` emits them, filled by the observability JSONL
# writer's exact-type scalar writer: so every line equals
# ``json.dumps(record, sort_keys=True)`` byte for byte
# (``tests/test_fleet_trace.py`` keeps that writer as the reference).
_JOB_LINE = ('{"arrival": %s, "job_id": %s, "kind": %s, "model_type": %s, '
             '"priority": %s, "shape": [%s], "type": "job", '
             '"work_seconds": %s}')
_OUTAGE_LINE = ('{"block_id": %s, "end": %s, "pod_id": %s, "start": %s, '
                '"type": "outage", "via_spare": %s}')
_DRAIN_LINE = ('{"block_id": %s, "end": %s, "pod_id": %s, "start": %s, '
               '"type": "drain"}')


def dumps_trace(trace: FleetTrace) -> str:
    """The trace as JSONL text (trailing newline included).

    Each line equals ``json.dumps(record, sort_keys=True)``.
    """
    scalar = _jsonl_scalar
    lines = [json.dumps({
        "type": "header", "schema": TRACE_SCHEMA, "version": trace.version,
        "seed": trace.seed, "config": _config_payload(trace.config),
    }, sort_keys=True)]
    lines += [_JOB_LINE % (scalar(job.arrival), scalar(job.job_id),
                           scalar(job.kind), scalar(job.model_type),
                           scalar(job.priority),
                           ", ".join([scalar(d) for d in job.shape]),
                           scalar(job.work_seconds))
              for job in trace.jobs]
    lines += [_OUTAGE_LINE % (scalar(outage.block_id), scalar(outage.end),
                              scalar(outage.pod_id), scalar(outage.start),
                              scalar(outage.via_spare))
              for outage in trace.outages]
    lines += [_DRAIN_LINE % (scalar(window.block_id), scalar(window.end),
                             scalar(window.pod_id), scalar(window.start))
              for window in trace.windows]
    return "\n".join(lines) + "\n"


def save_trace(trace: FleetTrace, path: str | Path) -> Path:
    """Write the trace to a JSONL file; returns the path written."""
    target = Path(path)
    target.write_text(dumps_trace(trace))
    return target


# -- parsing + validation --------------------------------------------------------
#
# One parser per record type.  Each body parser first tests a record for
# the keys and exact types its writer emits, every value in range, and
# builds it from them.  Any other record falls through to the
# field-by-field checks, in their order, so it is built, or rejected
# with its message, exactly as those checks alone would.


def _fail(line_no: int, message: str) -> TraceError:
    return TraceError(f"trace line {line_no}: {message}")


def _field(record: dict, key: str, line_no: int) -> Any:
    if key not in record:
        raise _fail(line_no, f"missing required key {key!r}")
    return record[key]


def _int_field(record: dict, key: str, line_no: int, *,
               minimum: int | None = None) -> int:
    value = _field(record, key, line_no)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(line_no, f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(line_no, f"{key} must be >= {minimum}, got {value}")
    return value


def _float_field(record: dict, key: str, line_no: int, *,
                 minimum: float | None = None) -> float:
    value = _field(record, key, line_no)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(line_no, f"{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError as exc:
        raise _fail(line_no, f"{key} must be finite, got an integer past "
                             f"float range") from exc
    if not math.isfinite(value):
        raise _fail(line_no, f"{key} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(line_no, f"{key} must be >= {minimum}, got {value}")
    return value


def _check_keys(record: dict, allowed: set[str], line_no: int) -> None:
    unknown = set(record) - allowed
    if unknown:
        raise _fail(line_no, f"unknown keys {sorted(unknown)}; schema "
                             f"version {TRACE_VERSION} allows "
                             f"{sorted(allowed)}")


def _parse_header(record: dict, line_no: int) -> tuple[int, FleetConfig]:
    _check_keys(record, _HEADER_KEYS, line_no)
    schema = _field(record, "schema", line_no)
    if schema != TRACE_SCHEMA:
        raise _fail(line_no, f"not a fleet trace (schema {schema!r}, "
                             f"expected {TRACE_SCHEMA!r})")
    version = _int_field(record, "version", line_no)
    if version != TRACE_VERSION:
        raise _fail(line_no, f"unsupported trace version {version} "
                             f"(this library reads version "
                             f"{TRACE_VERSION})")
    seed = _int_field(record, "seed", line_no, minimum=0)
    payload = _field(record, "config", line_no)
    if not isinstance(payload, dict):
        raise _fail(line_no, "config must be an object")
    missing = [name for name in _CONFIG_FIELDS if name not in payload]
    if missing:  # FleetConfig.from_dict would fill them with defaults
        raise _fail(line_no, f"config is missing FleetConfig field(s) "
                             f"{missing}")
    try:
        config = FleetConfig.from_dict(payload)
        if config.serve_scenario:  # resolved by name when replayed
            scenario_for(config.serve_scenario, config)
    except TypeError as exc:
        # No config check is known to raise one since FleetConfig tests
        # the sign of blocks_per_pod before its cube root; a header is
        # untrusted input, so a future check that does still ends here.
        raise _fail(line_no, f"bad config: {exc}") from exc
    except ConfigurationError as exc:
        raise _fail(line_no, f"invalid config: {exc}") from exc
    return seed, config


def _check_blocks(shape: tuple[int, ...], config: FleetConfig,
                  line_no: int) -> None:
    try:
        blocks = blocks_needed(shape)
    except SchedulingError as exc:
        raise _fail(line_no, f"illegal slice shape {shape}: {exc}") from exc
    if blocks > config.total_blocks:
        raise _fail(line_no, f"shape {shape} needs {blocks} blocks but "
                             f"the fleet has {config.total_blocks}")


def _parse_job(record: dict, config: FleetConfig,
               line_no: int) -> FleetJob:
    kind, model = record.get("kind"), record.get("model_type")
    shape, arrival = record.get("shape"), record.get("arrival")
    work, job_id = record.get("work_seconds"), record.get("job_id")
    priority = record.get("priority")
    if record.keys() == _JOB_KEYS and kind in ("train", "serve") and \
            type(model) is str and type(shape) is list and \
            len(shape) == 3 and all(type(d) is int and d >= 1
                                    for d in shape) and \
            type(arrival) is float and \
            0.0 <= arrival <= config.horizon_seconds and \
            type(work) is float and 0.0 < work < math.inf and \
            type(job_id) is int and job_id >= 0 and \
            type(priority) is int and priority >= 0:
        # Every check but the shape's legality has passed, so it is the
        # one left to fail, with the message it fails with below.
        shape = tuple(shape)
        _check_blocks(shape, config, line_no)
        return FleetJob(job_id=job_id, kind=kind, model_type=model,
                        shape=shape, arrival=arrival, work_seconds=work,
                        priority=priority)
    _check_keys(record, _JOB_KEYS, line_no)
    kind = _field(record, "kind", line_no)
    if kind not in ("train", "serve"):
        raise _fail(line_no, f"kind must be 'train' or 'serve', "
                             f"got {kind!r}")
    model = _field(record, "model_type", line_no)
    if not isinstance(model, str):
        raise _fail(line_no, f"model_type must be a string, got {model!r}")
    raw_shape = _field(record, "shape", line_no)
    if not (isinstance(raw_shape, list) and len(raw_shape) == 3 and
            all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                for d in raw_shape)):
        raise _fail(line_no, f"shape must be three positive integers, "
                             f"got {raw_shape!r}")
    shape = tuple(raw_shape)
    _check_blocks(shape, config, line_no)
    arrival = _float_field(record, "arrival", line_no, minimum=0.0)
    if arrival > config.horizon_seconds:
        raise _fail(line_no, f"arrival {arrival} is past the horizon "
                             f"{config.horizon_seconds}")
    work = _float_field(record, "work_seconds", line_no)
    if work <= 0:
        raise _fail(line_no, f"work_seconds must be > 0, got {work}")
    return FleetJob(
        job_id=_int_field(record, "job_id", line_no, minimum=0),
        kind=kind, model_type=model, shape=shape, arrival=arrival,
        work_seconds=work,
        priority=_int_field(record, "priority", line_no, minimum=0))


def _plain_interval(record: dict, config: FleetConfig) -> bool:
    """True when `_parse_block_interval` accepts `record` as it stands."""
    pod_id, block_id = record.get("pod_id"), record.get("block_id")
    start, end = record.get("start"), record.get("end")
    return type(pod_id) is int and 0 <= pod_id < config.num_pods and \
        type(block_id) is int and 0 <= block_id < config.blocks_per_pod and \
        type(start) is float and type(end) is float and \
        0.0 <= start < end <= config.horizon_seconds


def _parse_block_interval(record: dict, config: FleetConfig,
                          line_no: int) -> tuple[int, int, float, float]:
    pod_id = _int_field(record, "pod_id", line_no, minimum=0)
    if pod_id >= config.num_pods:
        raise _fail(line_no, f"pod_id {pod_id} out of range "
                             f"[0, {config.num_pods})")
    block_id = _int_field(record, "block_id", line_no, minimum=0)
    if block_id >= config.blocks_per_pod:
        raise _fail(line_no, f"block_id {block_id} out of range "
                             f"[0, {config.blocks_per_pod})")
    start = _float_field(record, "start", line_no, minimum=0.0)
    end = _float_field(record, "end", line_no)
    if end <= start:
        raise _fail(line_no, f"end {end} must be after start {start}")
    if end > config.horizon_seconds:
        raise _fail(line_no, f"end {end} is past the horizon "
                             f"{config.horizon_seconds}")
    return pod_id, block_id, start, end


def _parse_outage(record: dict, config: FleetConfig,
                  line_no: int) -> BlockOutage:
    if record.keys() == _OUTAGE_KEYS and \
            type(record["via_spare"]) is bool and \
            _plain_interval(record, config):
        return BlockOutage(pod_id=record["pod_id"],
                           block_id=record["block_id"],
                           start=record["start"], end=record["end"],
                           via_spare=record["via_spare"])
    _check_keys(record, _OUTAGE_KEYS, line_no)
    pod_id, block_id, start, end = _parse_block_interval(record, config,
                                                         line_no)
    via_spare = _field(record, "via_spare", line_no)
    if not isinstance(via_spare, bool):
        raise _fail(line_no, f"via_spare must be a boolean, "
                             f"got {via_spare!r}")
    return BlockOutage(pod_id=pod_id, block_id=block_id, start=start,
                       end=end, via_spare=via_spare)


def _parse_drain(record: dict, config: FleetConfig,
                 line_no: int) -> DrainWindow:
    if record.keys() == _DRAIN_KEYS and _plain_interval(record, config):
        return DrainWindow(pod_id=record["pod_id"],
                           block_id=record["block_id"],
                           start=record["start"], end=record["end"])
    _check_keys(record, _DRAIN_KEYS, line_no)
    pod_id, block_id, start, end = _parse_block_interval(record, config,
                                                         line_no)
    return DrainWindow(pod_id=pod_id, block_id=block_id, start=start,
                       end=end)


def loads_trace(text: str) -> FleetTrace:
    """Parse and validate JSONL trace text into a :class:`FleetTrace`."""
    jobs: list[FleetJob] = []
    outages: list[BlockOutage] = []
    windows: list[DrainWindow] = []
    seed: int | None = None
    config: FleetConfig | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if not line.strip():
                continue  # blank lines tolerated (trailing newline, edits)
            raise _fail(line_no, f"not valid JSON: {exc}") from exc
        except ValueError as exc:  # an integer literal too long to read
            raise _fail(line_no, _overlong_integer(line)) from exc
        except RecursionError as exc:
            raise _fail(line_no, _TOO_DEEP) from exc
        if not isinstance(record, dict):
            raise _fail(line_no, f"expected an object, got "
                                 f"{type(record).__name__}")
        kind = record.get("type")
        if config is None:
            if kind != "header":
                raise _fail(line_no, "first record must be the header")
            seed, config = _parse_header(record, line_no)
            continue
        if kind == "header":
            raise _fail(line_no, "duplicate header")
        if kind == "job":
            jobs.append(_parse_job(record, config, line_no))
        elif kind == "outage":
            outages.append(_parse_outage(record, config, line_no))
        elif kind == "drain":
            windows.append(_parse_drain(record, config, line_no))
        else:
            raise _fail(line_no, f"unknown record type {kind!r}")
    if config is None or seed is None:
        raise TraceError("empty trace: no header record")
    trace = FleetTrace(seed=seed, config=config, jobs=tuple(jobs),
                       outages=tuple(outages), windows=tuple(windows))
    validate_trace(trace)
    return trace


def load_trace(path: str | Path) -> FleetTrace:
    """Load and validate a trace file written by :func:`save_trace`."""
    source = Path(path)
    if not source.exists():
        raise TraceError(f"trace file {source} does not exist")
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace file {source}: {exc}") from exc
    return loads_trace(text)


def validate_trace(trace: FleetTrace) -> None:
    """Cross-record invariants: ordering that the replay relies on.

    Per-record field validation happens at parse time; this checks the
    properties that only hold across records — and is also the entry
    point for hand-built :class:`FleetTrace` objects that never went
    through JSONL.  Event insertion order is part of the determinism
    contract (same-time events fire in schedule order), so ordering is
    a schema requirement, not a style preference.
    """
    if trace.version != TRACE_VERSION:
        raise TraceError(f"unsupported trace version {trace.version}")
    seen_ids: set[int] = set()
    last_arrival = 0.0
    for job in trace.jobs:
        if job.job_id in seen_ids:
            raise TraceError(f"duplicate job_id {job.job_id}")
        seen_ids.add(job.job_id)
        if job.arrival < last_arrival:
            raise TraceError(
                f"job {job.job_id} arrives at {job.arrival}, before the "
                f"previous arrival {last_arrival}; jobs must be sorted "
                f"by arrival")
        last_arrival = job.arrival
    _check_sorted("outage", trace.outages)
    _check_sorted("drain", trace.windows)
    # Overlapping same-block outages would emit interleaved up events
    # that revive a block mid-outage on replay (a block already down
    # cannot fail again); recorded traces never overlap by
    # construction, so a hand-edited one must be rejected here.  Drain
    # windows are exempt: they pass through the overlay's interval
    # union, which coalesces any overlap before events are scheduled.
    last_end: dict[tuple[int, int], float] = {}
    for outage in trace.outages:
        key = (outage.pod_id, outage.block_id)
        if outage.start < last_end.get(key, 0.0):
            raise TraceError(
                f"outages of pod {outage.pod_id} block {outage.block_id} "
                f"overlap: one starts at {outage.start} before the "
                f"previous ends at {last_end[key]}")
        last_end[key] = outage.end


def _check_sorted(label: str,
                  intervals: Iterable[BlockOutage | DrainWindow]) -> None:
    last: tuple[float, int, int] | None = None
    for interval in intervals:
        key = (interval.start, interval.pod_id, interval.block_id)
        if last is not None and key < last:
            raise TraceError(
                f"{label} records must be sorted by (start, pod, block); "
                f"{key} follows {last}")
        last = key

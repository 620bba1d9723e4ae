"""Deterministic observability for fleet runs.

Span tracing, the scheduler decision log, time-series sampling,
Perfetto/JSONL export, and dispatch-loop profiling — see the module
docstrings under this package and the README's Observability section.
"""

from repro.fleet.obs.export import (OBS_SCHEMA, OBS_VERSION,
                                    dumps_chrome_trace, dumps_obs,
                                    load_obs, loads_obs, render_report,
                                    save_obs, validate_chrome_trace)
from repro.fleet.obs.metrics import MetricsSampler
from repro.fleet.obs.profiler import DispatchProfiler
from repro.fleet.obs.tracer import (Decision, Instant, NULL_RECORDER,
                                    NullRecorder, ObsRecorder,
                                    PLACED_CAUSES, REJECTED_CAUSES,
                                    SampleColumns, Span)

__all__ = [
    "OBS_SCHEMA",
    "OBS_VERSION",
    "Decision",
    "DispatchProfiler",
    "Instant",
    "MetricsSampler",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsRecorder",
    "PLACED_CAUSES",
    "REJECTED_CAUSES",
    "SampleColumns",
    "Span",
    "dumps_chrome_trace",
    "dumps_obs",
    "load_obs",
    "loads_obs",
    "render_report",
    "save_obs",
    "validate_chrome_trace",
]

"""Runtime observability: metrics, tracing, and consistency checking.

Buravlev et al. (PAPERS.md) show that the *submission path* — ordering
plus marshalling — dominates tuple-space cost.  To optimize that path we
must first measure it, identically, on every backend.  This package holds
the one metrics implementation all runtimes share
(:mod:`repro.obs.metrics`), the flight recorder + Chrome-trace exporter
that makes the replication pipeline visible span by span
(:mod:`repro.obs.tracing`), and the trace-driven replica-consistency
checker built on top of the recorded apply streams
(:mod:`repro.obs.check`), and the live state-introspection layer — waiter
registry, hot-template profiler, stall detector, Prometheus exporter —
behind ``python -m repro.cli top`` (:mod:`repro.obs.inspect`).

On top of those sits the *networked telemetry plane*: every instrument
serves a trailing 10s/60s/5m view beside its cumulative one (one write
per sample, two views — :mod:`repro.obs.metrics`), a declarative SLO
alert engine reads the trailing view (:mod:`repro.obs.slo`), a
structured event log records transitions (:mod:`repro.obs.events`), and
an HTTP endpoint serves all of it (:mod:`repro.obs.server` —
``rt.serve_telemetry()``).  Stage attribution (:mod:`repro.obs.stages`)
is always on, sampled one batch in 64.
"""

from repro.obs.check import ConsistencyReport, check_consistency
from repro.obs.envflags import EnvFlag, telemetry_port
from repro.obs.events import EventLog, emit, get_log
from repro.obs.inspect import (
    detect_stalls,
    disable_introspection,
    enable_introspection,
    introspection_enabled,
    render_top,
    to_prometheus,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, format_snapshot
from repro.obs.server import TelemetryServer, serve_telemetry
from repro.obs.slo import AlertEngine, AlertRule, default_rules
from repro.obs.profile import (
    SamplingProfiler,
    merge_folded,
    register_thread,
    to_collapsed,
    to_speedscope,
)
from repro.obs.stages import render_budget, stage_budget
from repro.obs.tracing import FlightRecorder, SpanEvent, render_events, to_chrome_trace

__all__ = [
    "AlertEngine",
    "AlertRule",
    "ConsistencyReport",
    "Counter",
    "EnvFlag",
    "EventLog",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "SamplingProfiler",
    "SpanEvent",
    "TelemetryServer",
    "check_consistency",
    "default_rules",
    "detect_stalls",
    "disable_introspection",
    "emit",
    "enable_introspection",
    "format_snapshot",
    "get_log",
    "introspection_enabled",
    "merge_folded",
    "register_thread",
    "render_budget",
    "render_events",
    "render_top",
    "serve_telemetry",
    "stage_budget",
    "telemetry_port",
    "to_chrome_trace",
    "to_collapsed",
    "to_prometheus",
    "to_speedscope",
]

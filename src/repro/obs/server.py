"""The HTTP telemetry endpoint: the plane's first network surface.

Everything observable so far — metrics, windows, introspection, stalls,
alerts, events, traces, profiles — is reachable only from inside the
process.  A deployable tuple-space *server* (ROADMAP item 1) needs all
of it scrapable from outside, and this module is that boundary: a
stdlib :class:`~http.server.ThreadingHTTPServer` bound to a runtime,
started with ``rt.serve_telemetry(port=0)`` on either parallel backend
(or ``REPRO_TELEMETRY=<port>`` in the environment, or
``python -m repro.cli serve``).

Routes (all ``GET``):

==============================  ==========================================
``/metrics``                    Prometheus text exposition — introspection
                                gauges + cumulative histograms + windowed
                                quantiles/rates + alert states
``/health``                     readiness: 200 when every replica is live,
                                no shard group has failed, and no critical
                                alert fires; 503 otherwise (JSON body says
                                why) — a load balancer check, not a page
``/snapshot``                   the full observability image as JSON (what
                                ``cli top --url`` renders remotely)
``/events``                     the structured event ring (``?since=SEQ``
                                for incremental drains)
``/debug/trace``                drains the flight recorder as a Chrome
                                trace (``chrome://tracing`` format)
``/debug/profile?seconds=N``    on-demand speedscope capture: starts the
                                sampling profiler, sleeps N (≤30) seconds
                                in the handler thread, returns the profile
==============================  ==========================================

The server holds only a weak contract with the runtime — every surface
is reached via ``getattr`` with a graceful 404 when the backend lacks it
(e.g. no tracer configured, or a runtime without a profiler) — so the
same module serves any current or future runtime unchanged.  Requests
run on daemon threads (``ThreadingHTTPServer``), and the profile route
serializes captures with a lock (409 on overlap) because one sampler
owns the process's thread list.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, is_dataclass
from enum import Enum
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from .envflags import telemetry_port
from .events import get_log
from .inspect import detect_stalls, to_prometheus
from .slo import AlertEngine, default_rules, runtime_context
from .stages import stage_budget

__all__ = [
    "TelemetryServer",
    "jsonable",
    "maybe_serve_from_env",
    "serve_telemetry",
]

#: Upper bound on one /debug/profile capture — the handler thread sleeps
#: for the requested duration, so a runaway value would pin it for hours.
MAX_PROFILE_SECONDS = 30.0


def jsonable(value: Any) -> Any:
    """Coerce observability payloads (dataclasses, enums, tuples) to JSON.

    Introspection snapshots key hot-template counters by template tuples;
    JSON needs string keys, so non-string keys become their ``repr`` — as
    does any leaf JSON has no type for.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, dict):
        return {
            (k if isinstance(k, str) else repr(k)): jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class TelemetryServer:
    """One runtime's HTTP observability endpoint (see module docstring)."""

    def __init__(
        self,
        rt: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        stall_threshold: float = 5.0,
    ):
        self.rt = rt
        self.stall_threshold = stall_threshold
        self.engine = AlertEngine(
            runtime_context(rt, stall_threshold=stall_threshold),
            default_rules(),
            metrics=getattr(rt, "metrics", None),
        )
        self.engine.thread.start()
        self._profile_lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            daemon_threads = True

            def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
                pass  # scrapes every second would flood stderr

            def do_GET(self):  # noqa: N802 - stdlib name
                try:
                    server._route(self)
                except BrokenPipeError:
                    pass  # client went away mid-response
                except Exception as exc:  # surface, never kill the thread
                    try:
                        server._send(
                            self, 500, {"error": repr(exc)}, content="json"
                        )
                    except Exception:
                        pass

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self.port = self.httpd.server_address[1]
        self.host = self.httpd.server_address[0]
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name=f"telemetry-http:{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self.engine.thread.close()
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5.0)

    # ---------------------------------------------------------------- #
    # routing
    # ---------------------------------------------------------------- #

    def _send(
        self,
        handler: BaseHTTPRequestHandler,
        status: int,
        payload: Any,
        *,
        content: str = "json",
    ) -> None:
        if content == "json":
            body = json.dumps(payload, default=str).encode()
            ctype = "application/json"
        else:
            body = str(payload).encode()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        handler.send_response(status)
        handler.send_header("Content-Type", ctype)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        parts = urlsplit(handler.path)
        path, query = parts.path.rstrip("/") or "/", parse_qs(parts.query)
        if path == "/metrics":
            self._send(handler, 200, self._metrics_text(), content="text")
        elif path == "/health":
            status, body = self._health()
            self._send(handler, status, body)
        elif path == "/snapshot":
            self._send(handler, 200, self.snapshot())
        elif path == "/events":
            since = int(query.get("since", ["0"])[0] or 0)
            self._send(
                handler, 200, {"events": get_log().events(since=since)}
            )
        elif path == "/debug/trace":
            self._trace(handler)
        elif path == "/debug/profile":
            raw = query.get("seconds", ["2"])[0]
            try:
                seconds = float(raw)
            except ValueError:
                self._send(handler, 400, {"error": f"bad seconds: {raw!r}"})
                return
            self._profile(handler, seconds)
        else:
            self._send(handler, 404, {"error": f"no route {path}"})

    # ---------------------------------------------------------------- #
    # route bodies
    # ---------------------------------------------------------------- #

    def _observe(self) -> "tuple[dict, dict, list, list]":
        snap = self.rt.introspection_snapshot()
        metrics = self.rt.metrics_snapshot()
        stalls = detect_stalls(snap, self.stall_threshold)
        alerts = self.engine.snapshot()
        return snap, metrics, stalls, alerts

    def _metrics_text(self) -> str:
        snap, metrics, stalls, alerts = self._observe()
        return to_prometheus(snap, metrics, stalls, alerts)

    def _health(self) -> "tuple[int, dict[str, Any]]":
        problems: list[str] = []
        groups = getattr(self.rt, "shard_groups", None) or []
        for shard_idx, group in enumerate(groups):
            alive = getattr(group, "alive", None)
            if alive is not None:
                dead = [i for i, up in enumerate(alive) if not up]
                if dead:
                    problems.append(
                        f"shard {shard_idx}: replicas down: {dead}"
                    )
            err = getattr(group, "_group_error", None)
            if err is not None:
                problems.append(f"shard {shard_idx}: failed: {err}")
        if self.engine.has_critical():
            problems.append(
                f"critical alerts firing: {', '.join(self.engine.firing())}"
            )
        healthy = not problems
        return (
            200 if healthy else 503,
            {"healthy": healthy, "problems": problems},
        )

    def snapshot(self) -> dict[str, Any]:
        """The full observability image (also what ``/snapshot`` serves)."""
        snap, metrics, stalls, alerts = self._observe()
        return jsonable({
            "backend": snap.get("backend"),
            "introspection": snap,
            "metrics": metrics,
            "stalls": stalls,
            "alerts": alerts,
            "stage_budget": stage_budget(metrics),
            "events_seq": get_log().last_seq,
        })

    def _trace(self, handler: BaseHTTPRequestHandler) -> None:
        tracer = getattr(self.rt, "tracer", None)
        if tracer is None:
            self._send(handler, 404, {"error": "no tracer configured"})
            return
        from .tracing import to_chrome_trace

        self._send(handler, 200, to_chrome_trace(tracer.events()))

    def _profile(
        self, handler: BaseHTTPRequestHandler, seconds: float
    ) -> None:
        start = getattr(self.rt, "start_profiling", None)
        stop = getattr(self.rt, "stop_profiling", None)
        if start is None or stop is None:
            self._send(handler, 404, {"error": "runtime has no profiler"})
            return
        seconds = min(max(seconds, 0.1), MAX_PROFILE_SECONDS)
        if not self._profile_lock.acquire(blocking=False):
            self._send(
                handler, 409, {"error": "a profile capture is in progress"}
            )
            return
        try:
            from .profile import to_speedscope

            start()
            time.sleep(seconds)
            folded = stop()
            self._send(
                handler,
                200,
                to_speedscope(folded, name=f"{seconds:g}s capture"),
            )
        finally:
            self._profile_lock.release()


def serve_telemetry(rt: Any, port: int = 0, **kwargs: Any) -> TelemetryServer:
    """Start a :class:`TelemetryServer` for *rt* (``port=0`` = ephemeral)."""
    return TelemetryServer(rt, port=port, **kwargs)


def maybe_serve_from_env(rt: Any) -> "TelemetryServer | None":
    """Auto-serve when ``REPRO_TELEMETRY=<port>`` is set (else no-op).

    Called by the parallel runtimes at the end of construction so
    benchmarks, chaos runs, and examples grow the endpoint with no code
    changes.  Binding failures are swallowed — an occupied port must not
    take down the runtime the endpoint merely observes.
    """
    port = telemetry_port()
    if port is None:
        return None
    try:
        server = serve_telemetry(rt, port)
    except OSError:
        return None
    # operators need to learn the ephemeral port somewhere; the event
    # log is the plane's own channel for exactly this kind of fact
    get_log().emit("telemetry_started", url=server.url, port=server.port)
    return server

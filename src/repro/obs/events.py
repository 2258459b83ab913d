"""Structured event log: the discrete-occurrence channel of the plane.

Metrics answer "how much / how fast"; traces answer "where did the time
go inside one operation".  Neither can answer "what *happened* at
14:02:07" — a replica was declared dead, an auto-recovery succeeded, the
chaos monkey poisoned a command, an alert fired.  Those are discrete,
low-frequency, high-information occurrences, and this module gives them
one spine:

- :class:`EventLog` — a bounded ring of structured events (dicts with
  ``seq``/``ts``/``kind``/``severity`` plus free-form fields), cheap to
  emit from any thread and drained without consuming via ``events(since=
  seq)`` so multiple readers (the HTTP ``/events`` endpoint, tests, the
  CLI) can each keep their own cursor.

- an optional **NDJSON sink**: attach a path or file object and every
  event is also appended as one JSON line — durable evidence for chaos
  runs and postmortems, in a format ``jq`` and log shippers already
  speak.

- a module-level default log (:func:`emit` / :func:`get_log`): liveness
  detection lives in the replica group, chaos in its own module, alert
  transitions in ``obs.slo`` — a process-wide singleton is what lets
  them share a timeline with zero plumbing.  Events carry ``trace_id``
  when the emitter has one, tying the discrete record to the span
  timeline in the flight recorder.

Emission is deliberately never load-bearing: a broken sink is detached
and noted in-band rather than raised into the replication pipeline.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, IO

__all__ = ["EventLog", "emit", "get_log"]


class EventLog:
    """A bounded, thread-safe ring of structured events."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
        self._sink: IO[str] | None = None
        self._sink_owned = False

    def emit(
        self,
        kind: str,
        *,
        severity: str = "info",
        trace_id: str | None = None,
        **fields: Any,
    ) -> dict[str, Any]:
        """Append one event; returns the stored record (with its seq)."""
        event: dict[str, Any] = {
            "seq": 0,  # assigned under the lock
            "ts": time.time(),
            "kind": kind,
            "severity": severity,
        }
        if trace_id is not None:
            event["trace_id"] = trace_id
        event.update(fields)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            self._events.append(event)
            sink = self._sink
            if sink is not None:
                try:
                    sink.write(json.dumps(event, default=str) + "\n")
                    sink.flush()
                except (OSError, ValueError):
                    # a dead sink must never take the pipeline down with
                    # it: detach, and leave the evidence in the ring
                    self._detach_locked()
                    self._events.append({
                        "seq": self._seq + 1,
                        "ts": time.time(),
                        "kind": "event_sink_failed",
                        "severity": "warning",
                    })
                    self._seq += 1
        return event

    def events(self, since: int = 0) -> list[dict[str, Any]]:
        """Events with ``seq > since``, oldest first (non-consuming)."""
        with self._lock:
            return [e for e in self._events if e["seq"] > since]

    @property
    def last_seq(self) -> int:
        return self._seq

    def attach_sink(self, target: "str | IO[str]") -> None:
        """Mirror every future event to *target* as NDJSON lines.

        *target* is a path (opened for append, owned and closed by the
        log) or an open text file object (borrowed, left open on detach).
        """
        with self._lock:
            self._detach_locked()
            if isinstance(target, (str, bytes)):
                self._sink = open(target, "a", encoding="utf-8")
                self._sink_owned = True
            else:
                self._sink = target
                self._sink_owned = False

    def detach_sink(self) -> None:
        with self._lock:
            self._detach_locked()

    def _detach_locked(self) -> None:
        sink, owned = self._sink, self._sink_owned
        self._sink = None
        self._sink_owned = False
        if sink is not None and owned:
            try:
                sink.close()
            except OSError:
                pass


_DEFAULT = EventLog()


def get_log() -> EventLog:
    """The process-wide default log all subsystems emit into."""
    return _DEFAULT


def emit(kind: str, **kwargs: Any) -> dict[str, Any]:
    """Emit into the process-wide default log (see :meth:`EventLog.emit`)."""
    return _DEFAULT.emit(kind, **kwargs)


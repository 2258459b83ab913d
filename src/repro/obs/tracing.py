"""End-to-end AGS tracing: a flight recorder plus a Chrome-trace exporter.

The replication invariant — every replica applies the same commands in
the same total order — was only observable after the fact (fingerprints)
and only on the simulated cluster (``repro.sim.trace``).  This module
gives the *real* backends the same footing:

- :class:`SpanEvent` — the one event schema shared by every producer:
  the threaded/multiproc/local runtimes and the simulated cluster
  (:func:`repro.sim.trace.attach`) record into the same recorder, so
  simulated and real runs render identically;
- :class:`FlightRecorder` — a bounded ring buffer of span events.  The
  record path is lock-free under the GIL (one atomic counter bump + one
  list slot store), so it is cheap enough to leave on during fault
  injection; a runaway trace overwrites its own tail instead of eating
  the heap;
- :func:`to_chrome_trace` — export any iterable of span events to the
  Chrome trace-event JSON format (load the file in Perfetto or
  ``chrome://tracing``): one track per replica plus one per client
  thread, complete spans for ``submit_to_order`` / ``broadcast`` /
  ``apply`` / ``e2e`` nesting under one per-AGS trace id.

Tracing is **opt-in and zero-overhead when disabled**: every emit site
is guarded by a ``tracer is not None`` check (the same discipline as the
simulated replica's apply hook), and commands carry ``trace_id=None`` until a
recorder is attached to the replica group.

Timestamps are ``time.monotonic()`` seconds.  On Linux CLOCK_MONOTONIC
is system-wide, so spans recorded inside replica OS processes line up
with the parent's client spans on one timeline.

Usage::

    from repro.obs.tracing import FlightRecorder, to_chrome_trace

    tracer = FlightRecorder()
    rt = MultiprocessRuntime(3, tracer=tracer)
    ... run ...
    json.dump(to_chrome_trace(tracer.events()), open("trace.json", "w"))
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

__all__ = [
    "FlightRecorder",
    "SpanEvent",
    "render_events",
    "to_chrome_trace",
]


class SpanEvent:
    """One span (or instant) on one track — the shared trace schema.

    ``ts`` and ``dur`` are seconds (the sim converts virtual µs, the same
    convention the metrics layer uses); ``dur is None`` marks an instant
    event.  ``track`` names the timeline row ("client:MainThread",
    "sequencer", "replica-0", "host-2"); ``cat`` is the producing layer;
    ``name`` the event kind; ``trace_id`` ties every span of one AGS
    together across tracks and process boundaries.
    """

    __slots__ = ("ts", "dur", "track", "cat", "name", "trace_id", "args")

    def __init__(
        self,
        ts: float,
        track: str,
        cat: str,
        name: str,
        *,
        dur: float | None = None,
        trace_id: int | None = None,
        args: dict[str, Any] | None = None,
    ):
        self.ts = ts
        self.dur = dur
        self.track = track
        self.cat = cat
        self.name = name
        self.trace_id = trace_id
        self.args = args if args is not None else {}

    def __repr__(self) -> str:
        dur = f" dur={self.dur * 1e3:.3f}ms" if self.dur is not None else ""
        tid = f" trace={self.trace_id}" if self.trace_id is not None else ""
        return (
            f"[{self.ts * 1e3:12.3f}ms {self.track:>16} {self.cat:>8}] "
            f"{self.name}{dur}{tid} {self.args}"
        )


class FlightRecorder:
    """A bounded ring buffer of :class:`SpanEvent`\\ s.

    ``record`` is one counter bump plus one slot store — both atomic
    under the GIL — so concurrent clients, the sequencer thread and the
    transport collector threads all record without contention.  When the
    buffer wraps, the oldest events are overwritten (a flight recorder
    keeps the most recent history, not the first).
    """

    def __init__(self, capacity: int = 1 << 16):
        if capacity < 1:
            raise ValueError("need at least one slot")
        self.capacity = capacity
        self._slots: list[tuple[int, SpanEvent] | None] = [None] * capacity
        self._seq = itertools.count()
        self._trace_ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def next_trace_id(self) -> int:
        """Mint a fresh per-AGS trace id (atomic under the GIL)."""
        return next(self._trace_ids)

    def record(self, event: SpanEvent) -> None:
        i = next(self._seq)
        self._slots[i % self.capacity] = (i, event)

    def record_span(
        self,
        ts: float,
        track: str,
        cat: str,
        name: str,
        *,
        dur: float | None = None,
        trace_id: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Construct and record one event (convenience for emit sites)."""
        self.record(
            SpanEvent(ts, track, cat, name, dur=dur, trace_id=trace_id, args=args)
        )

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def events(self) -> list[SpanEvent]:
        """The retained events, oldest first."""
        entries = [e for e in self._slots if e is not None]
        entries.sort(key=lambda pair: pair[0])
        return [ev for _i, ev in entries]

    def spans(
        self,
        name: str | None = None,
        *,
        track: str | None = None,
        trace_id: int | None = None,
    ) -> list[SpanEvent]:
        """Filtered view of :meth:`events`."""
        return [
            e
            for e in self.events()
            if (name is None or e.name == name)
            and (track is None or e.track == track)
            and (trace_id is None or e.trace_id == trace_id)
        ]

    def clear(self) -> None:
        self._slots = [None] * self.capacity
        self._seq = itertools.count()

    def to_chrome(self) -> dict[str, Any]:
        return to_chrome_trace(self.events())

    def __len__(self) -> int:
        return len([e for e in self._slots if e is not None])


# ---------------------------------------------------------------------- #
# exporters
# ---------------------------------------------------------------------- #

def _track_sort_key(track: str) -> tuple[int, str]:
    """Client tracks first, then the sequencer, then replicas/hosts."""
    if track.startswith("client"):
        group = 0
    elif track in ("sequencer", "monitor"):
        group = 1
    elif track.startswith(("replica", "host")):
        group = 2
    else:
        group = 3
    return (group, track)


def to_chrome_trace(events: Iterable[SpanEvent]) -> dict[str, Any]:
    """Render *events* as a Chrome trace-event JSON object.

    The result is ``json.dump``-able and loads directly in Perfetto or
    ``chrome://tracing``.  Spans with a duration become complete events
    (``"ph": "X"``); instants (``dur is None``) become instant events.
    Each distinct track gets its own named thread row, ordered client →
    sequencer → replicas.
    """
    events = list(events)
    tracks = sorted({e.track for e in events}, key=_track_sort_key)
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    out: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for track, tid in tids.items():
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
        )
        out.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": 1,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    for e in events:
        args = dict(e.args)
        if e.trace_id is not None:
            args["trace_id"] = e.trace_id
        record: dict[str, Any] = {
            "name": e.name,
            "cat": e.cat,
            "pid": 1,
            "tid": tids[e.track],
            "ts": e.ts * 1e6,  # chrome wants microseconds
            "args": args,
        }
        if e.dur is None:
            record["ph"] = "i"
            record["s"] = "t"
        else:
            record["ph"] = "X"
            record["dur"] = e.dur * 1e6
        out.append(record)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def render_events(events: Iterable[SpanEvent]) -> str:
    """A printable text timeline (the most recent 200 events, in order)."""
    picked = list(events)[-200:]
    return "\n".join(repr(e) for e in picked)

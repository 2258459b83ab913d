"""Spans around the calls the harness makes into each layer.

Tracing happens in the benchmark's own files: a span is recorded around
every call into a layer's public function (name, start, end, the span
that caused it, workload, statement id), kept in memory, and written as
Chrome-trace JSON when the run ends.  Counts are taken at the same
boundaries: one per span name.  Spans inside the program are a later
issue.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any


class Tracer:
    """In-memory span list for one process of one traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        #: (name, start_s, end_s, parent span id or None, track, statement id)
        self.spans: list[tuple] = []

    def span(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        track: str = "main",
        stmt: int | None = None,
    ) -> int:
        """Record one span; returns its id (what children name as parent)."""
        self.spans.append((name, start, end, parent, track, stmt))
        return len(self.spans) - 1

    def events(self, pid: int) -> list[dict[str, Any]]:
        """Chrome-trace complete events (``ph: X``, microseconds)."""
        tracks: dict[str, int] = {}
        out = []
        for sid, (name, start, end, parent, track, stmt) in enumerate(self.spans):
            args: dict[str, Any] = {"id": sid, "workload": self.workload}
            if parent is not None:
                args["parent"] = parent
            if stmt is not None:
                args["stmt"] = stmt
            out.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": tracks.setdefault(track, len(tracks)),
                    "args": args,
                }
            )
        for track, tid in tracks.items():
            out.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": track}}
            )
        return out

    def counts(self) -> dict[str, int]:
        return dict(Counter(s[0] for s in self.spans))

    def dump(self, path: str, pid: int) -> None:
        """This process's part of the trace, for the harness to merge."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"events": self.events(pid), "counts": self.counts()}, f)


def write_chrome(path: str, events: list[dict], counts: dict[str, int]) -> None:
    """One loadable trace file (chrome://tracing, Perfetto)."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"counts": counts},
            },
            f,
        )

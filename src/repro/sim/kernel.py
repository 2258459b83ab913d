"""The event loop: virtual clock, ordered queue, one-shot events.

Determinism contract: two runs with the same seed and the same sequence of
``schedule`` calls produce identical traces.  Ties in the event queue are
broken by a monotonically increasing sequence number, never by object
identity or hash order.

Time is a float in **microseconds** to match the units of the paper's
Table 1; the helper :data:`MS` makes call sites readable.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

__all__ = ["MS", "SimEvent", "Simulator"]

#: One millisecond in simulator time units (microseconds).
MS = 1000.0


class _Scheduled:
    """A queue entry; cancellation just flips a flag (lazy deletion)."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "_Scheduled") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def cancel(self) -> None:
        """Prevent this callback from running (safe after it ran: no-op)."""
        self.cancelled = True


class SimEvent:
    """A one-shot event processes can wait on.

    ``succeed(value)`` wakes every waiter with *value*.  Waiting on an
    already-triggered event resumes immediately — so there is no race
    between deciding to wait and the trigger.
    """

    __slots__ = ("sim", "triggered", "value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []
        self.name = name

    def succeed(self, value: Any = None) -> None:
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            self.sim.schedule(0.0, w, value)

    def add_waiter(self, fn: Callable[[Any], None]) -> None:
        if self.triggered:
            self.sim.schedule(0.0, fn, self.value)
        else:
            self._waiters.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"={self.value!r}" if self.triggered else " pending"
        return f"SimEvent({self.name}{state})"


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seeds :attr:`rng`, the single source of randomness every simulated
        component must draw from (network jitter, workload generators, …).
    """

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = random.Random(seed)
        self._queue: list[_Scheduled] = []
        self._seq = 0
        self.events_processed = 0

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> _Scheduled:
        """Run ``fn(*args)`` after *delay* time units; returns a handle."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        entry = _Scheduled(self.now + delay, self._seq, fn, args)
        heapq.heappush(self._queue, entry)
        return entry

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh one-shot event bound to this simulator."""
        return SimEvent(self, name)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Run the next pending callback; False when the queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.cancelled:
                continue
            assert entry.time >= self.now, "event queue went backwards"
            self.now = entry.time
            entry.fn(*entry.args)
            self.events_processed += 1
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Run until the queue drains, *until* time passes, or the budget ends.

        ``until`` is an absolute virtual time; events scheduled exactly at
        it still run.
        """
        budget = max_events if max_events is not None else float("inf")
        while budget > 0:
            if until is not None:
                nxt = self._peek_time()
                if nxt is None or nxt > until:
                    self.now = max(self.now, until) if nxt is None else until
                    return
            if not self.step():
                return
            budget -= 1

    def run_until_event(
        self, event: SimEvent, *, limit: float | None = None
    ) -> Any:
        """Run until *event* triggers; returns its value.

        Raises ``RuntimeError`` if the queue drains (deadlock) or *limit*
        virtual time passes first — the error names the event to make
        hung-protocol test failures diagnosable.
        """
        while not event.triggered:
            if limit is not None and self.now >= limit:
                raise RuntimeError(
                    f"time limit {limit} reached waiting for {event!r}"
                )
            if not self.step():
                raise RuntimeError(f"deadlock: queue empty, {event!r} never fired")
        return event.value

    def _peek_time(self) -> float | None:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def pending(self) -> int:
        """Number of live (non-cancelled) queue entries."""
        return sum(1 for e in self._queue if not e.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.1f}us, pending={self.pending()})"

"""Counters and latency histograms shared by every runtime backend.

The replication pipeline is instrumented at three points, with the same
instrument names everywhere so experiments on different backends report
directly comparable numbers:

- ``submit_to_order`` — from a client calling submit to its command being
  assigned a slot in the total order (sequencer wait + batching delay);
- ``order_to_apply`` — from sequencing to the origin replica reporting the
  command's completion (transport transit + state-machine apply);
- ``ags_e2e`` — the whole client-visible latency of one AGS.

Histograms use geometric (log-scale) buckets: latencies span five orders
of magnitude between an in-process apply and a cross-process round trip,
and a log scale keeps relative resolution constant across that span.
Everything is thread-safe; the replica-group collector threads and any
number of client threads record concurrently.

**One write, two views.**  A sample is recorded once, into the slice of
the second it arrived in (allocated lazily — an idle instrument holds
none); when a new second opens, slices older than the longest window are
folded into a *retired* total under the same lock.  Every
:class:`Histogram` and :class:`Counter` serves from that one store

- the **cumulative** view — retired + every live slice
  (``snapshot``/``count``/``value``): what happened since process start;
- the **windowed** view — the live slices stamped inside the trailing
  10s / 60s / 5m: what the pipeline looks like *now*.  A cumulative p99
  barely moves when latency regresses after ten minutes of traffic, so
  alerting (``repro.obs.slo``) and ``cli top`` read this one.

Clocks are injectable (default ``time.monotonic``) and the windowed view
is defensive about them: a slice counts only when its stamp lies in
``(now - window, now]``, so a clock stepping far forward expires
everything (the window really is empty of recent samples) and a slice
stamped in the "future" after a backward step is ignored rather than
double-counted; the cumulative view loses no sample either way.
Hot-path callers that already hold a ``time.monotonic`` stamp pass it as
``now``, so a record reads no clock of its own; instruments recorded at
one site at one moment share one lock and one write (:class:`Joint`).

Units: the real-time backends record **seconds**; the simulated cluster
records virtual microseconds divided by 1e6, i.e. virtual seconds — the
same scale, so snapshots render identically (its slices carry real-clock
stamps: "now" for a simulation is when it ran).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from math import inf
from operator import add
from typing import Any, Callable, Iterable

__all__ = [
    "Counter",
    "Histogram",
    "Joint",
    "MetricsRegistry",
    "format_snapshot",
    "merged",
]

#: The trailing windows every instrument reports, in seconds.
WINDOWS: tuple[int, ...] = (10, 60, 300)


def window_label(seconds: int) -> str:
    """The snapshot key for a window length ("10s", "60s", "5m")."""
    if seconds % 60 == 0 and seconds > 60:
        return f"{seconds // 60}m"
    return f"{seconds}s"


class _Sliced:
    """What a :class:`Counter` and a :class:`Histogram` share: one lock,
    the per-second slices written under it, the retired total that
    expired slices fold into, and the rule for what a window sees."""

    __slots__ = (
        "name", "windows", "_horizon", "_slices", "_retired", "_clock", "_lock",
    )

    def __init__(
        self,
        name: str,
        windows: Iterable[int],
        clock: Callable[[], float],
        retired: Any,
    ):
        self.name = name
        self.windows = tuple(sorted(int(w) for w in windows))
        if not self.windows or self.windows[0] < 1:
            raise ValueError("windows must be positive second counts")
        self._horizon = self.windows[-1]
        self._slices: dict[int, Any] = {}  # epoch second -> its samples
        self._retired = retired
        self._clock = clock
        self._lock = threading.Lock()

    def _expired(self, sec: int) -> list[int]:
        """Stamps to retire when a slice opens at second *sec* (lock held).

        Older than the longest window: no windowed view can include them
        again.  More than a horizon *ahead*: left behind by a backward
        clock step — retiring them bounds the live set at two horizons
        however the clock misbehaves, while slices a few seconds ahead
        (callers' stamps arrive slightly out of order) stay live.
        """
        lo, hi = sec - self._horizon, sec + self._horizon
        return [k for k in self._slices if not (lo < k <= hi)]

    def _in_window(self, window_s: int) -> list[Any]:
        """The live slices of the trailing *window_s* seconds (lock held)."""
        now = self._clock()
        lo = now - window_s
        # strictly (now - window, now]: future-stamped slices left behind
        # by a backward clock step are not recent samples
        return [
            s for stamp, s in self._slices.items()
            if not (stamp <= lo - 1 or stamp > now)
        ]

    def _check_span(self, other: "_Sliced") -> None:
        if other._horizon != self._horizon:
            raise ValueError(
                f"cannot merge instruments of different spans "
                f"({self.name!r} vs {other.name!r})"
            )

    def window_snapshots(self) -> dict[str, dict[str, Any]]:
        """All configured windows, keyed by label ("10s"/"60s"/"5m")."""
        return {window_label(w): self.window_snapshot(w) for w in self.windows}


class Counter(_Sliced):
    """A monotonically increasing, thread-safe counter.

    ``value`` is the cumulative count; ``window_count`` and
    ``window_snapshot`` (count + events per second) report the trailing
    windows from the same per-second slices.
    """

    __slots__ = ()

    def __init__(
        self,
        name: str,
        *,
        windows: Iterable[int] = WINDOWS,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(name, windows, clock, 0)

    def inc(self, n: int = 1, now: float | None = None) -> None:
        sec = int(self._clock() if now is None else now)
        with self._lock:
            self._put(n, sec)

    def _put(self, n: int, sec: int) -> None:  # lock held
        slices = self._slices
        try:
            slices[sec] += n
        except KeyError:  # first event of this second: open its slice
            for k in self._expired(sec):
                self._retired += slices.pop(k)
            slices[sec] = n

    @property
    def value(self) -> int:
        with self._lock:
            return self._retired + sum(self._slices.values())

    def window_count(self, window_s: int) -> int:
        with self._lock:
            return sum(self._in_window(window_s))

    def merge(self, other: "Counter") -> None:
        """Fold *other* in, second by second (same-second slices sum)."""
        self._check_span(other)
        with other._lock:
            retired, slices = other._retired, dict(other._slices)
        with self._lock:
            self._retired += retired
            for stamp, n in slices.items():
                self._slices[stamp] = self._slices.get(stamp, 0) + n

    def snapshot(self) -> int:
        return self.value

    def window_snapshot(self, window_s: int) -> dict[str, Any]:
        count = self.window_count(window_s)
        return {"count": count, "rate": count / window_s}


class Gauge:
    """A thread-safe instantaneous value (e.g. currently-live replicas).

    Unlike :class:`Counter` it can go down.  ``merge`` sums — the only
    composition that makes sense when aggregating per-group gauges such as
    live-replica counts into a runtime-wide registry.
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def merge(self, other: "Gauge") -> None:
        self.add(other.value)

    def snapshot(self) -> float:
        return self._value


class _Slice:
    """One second of one histogram's samples — and the shape of any sum
    of such seconds (the retired total, a folded view)."""

    __slots__ = ("buckets", "count", "sum", "min", "max", "clamped")

    def __init__(self, width: int):
        self.buckets = [0] * width
        self.count = 0
        self.sum = 0.0
        self.min = inf
        self.max = 0.0  # samples are clamped to >= 0, so 0 is the floor
        self.clamped = 0

    def add(self, other: "_Slice") -> "_Slice":
        self.buckets = list(map(add, self.buckets, other.buckets))
        self.count += other.count
        self.sum += other.sum
        self.clamped += other.clamped
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self


class Histogram(_Sliced):
    """Geometric-bucket histogram for latency-like values.

    Bucket *i* covers values up to ``lo * factor**i``; one overflow bucket
    catches everything beyond the last boundary.  Quantiles are resolved
    to a bucket upper bound — exact enough for latency reporting, cheap
    enough for the hot path (one bisect + a handful of adds per record).
    """

    __slots__ = ("_bounds",)

    def __init__(
        self,
        name: str,
        *,
        lo: float = 1e-6,
        factor: float = 2.0,
        n_buckets: int = 30,
        windows: Iterable[int] = WINDOWS,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(name, windows, clock, _Slice(n_buckets + 1))  # +1 = overflow
        bounds: list[float] = []
        b = lo
        for _ in range(n_buckets):
            bounds.append(b)
            b *= factor
        self._bounds = bounds

    def record(self, value: float, now: float | None = None) -> None:
        sec = int(self._clock() if now is None else now)
        with self._lock:
            self._put(value, sec)

    def _put(self, value: float, sec: int) -> None:  # lock held
        # A NaN would poison the running sum forever and a negative value
        # (e.g. from a clock source stepping backwards) would land in the
        # lowest bucket while dragging the sum down.  Clamp both to zero
        # and count them, so the corruption is visible instead of silent.
        clamped = not (value >= 0.0)  # False for NaN too, hence the inversion
        if clamped:
            value = 0.0
        try:
            s = self._slices[sec]
        except KeyError:  # first sample of this second: open its slice
            for k in self._expired(sec):
                self._retired.add(self._slices.pop(k))
            s = self._slices[sec] = self._empty()
        s.buckets[bisect_left(self._bounds, value)] += 1
        s.count += 1
        s.sum += value
        if clamped:
            s.clamped += 1
        if value < s.min:
            s.min = value
        if value > s.max:
            s.max = value

    def _empty(self) -> _Slice:
        return _Slice(len(self._bounds) + 1)

    def _fold(self, window_s: int | None = None) -> _Slice:
        """Sum, under the lock, the slices one view is made of: retired +
        every live slice (cumulative), or the live slices stamped inside
        the trailing *window_s* seconds."""
        total = self._empty()
        with self._lock:
            if window_s is None:
                total.add(self._retired)
                live = self._slices.values()
            else:
                live = self._in_window(window_s)
            for s in live:
                total.add(s)
        return total

    def _quantile(self, total: _Slice, q: float) -> float:
        if not total.count:
            return 0.0
        # at least one sample must be at or below the answer: without
        # the floor, q=0 would "satisfy" the first bucket with zero
        # samples seen and report bounds[0] regardless of the data
        target = max(q * total.count, 1.0)
        seen = 0
        for i, n in enumerate(total.buckets):
            seen += n
            if seen >= target:
                if i < len(self._bounds):
                    return self._bounds[i]
                break
        return total.max

    def _quantiles(self, total: _Slice) -> dict[str, float]:
        return {
            "p50": self._quantile(total, 0.50),
            "p95": self._quantile(total, 0.95),
            "p99": self._quantile(total, 0.99),
            "p999": self._quantile(total, 0.999),
        }

    @property
    def count(self) -> int:
        return self._fold().count

    @property
    def mean(self) -> float:
        total = self._fold()
        return total.sum / total.count if total.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-th fraction of samples.

        Empty histograms (including ones built purely from empty merges)
        consistently report 0.0, like :attr:`mean` — callers never need a
        ``count()`` guard.
        """
        return self._quantile(self._fold(), q)

    def merge(self, other: "Histogram") -> None:
        """Fold *other*'s samples into this histogram, second by second.

        Used when aggregating per-shard (or per-replica) registries into
        one runtime-wide view: retired totals sum, live slices holding
        the same second sum, and a second only *other* saw is adopted
        under its own stamp — so both views of the merged instrument are
        what one instrument recording every sample would have served.
        """
        if other._bounds != self._bounds:
            raise ValueError(
                f"cannot merge histograms with different bucket layouts "
                f"({self.name!r} vs {other.name!r})"
            )
        self._check_span(other)
        with other._lock:  # copies: other keeps recording into its own
            retired = self._empty().add(other._retired)
            incoming = {
                stamp: self._empty().add(s) for stamp, s in other._slices.items()
            }
        with self._lock:
            self._retired.add(retired)
            for stamp, s in incoming.items():
                mine = self._slices.get(stamp)
                if mine is None:
                    self._slices[stamp] = s
                else:
                    mine.add(s)

    def snapshot(self) -> dict[str, Any]:
        """The cumulative view: every sample since the instrument began."""
        total = self._fold()
        count = total.count
        return {
            "count": count,
            "sum": total.sum,
            "mean": (total.sum / count) if count else 0.0,
            "min": total.min if count else 0.0,
            "max": total.max,
            **self._quantiles(total),
            "clamped": total.clamped,
            "buckets": {
                f"le_{self._bounds[i]:g}" if i < len(self._bounds) else "overflow": n
                for i, n in enumerate(total.buckets)
                if n
            },
        }

    def window_snapshot(self, window_s: int) -> dict[str, Any]:
        """Count/mean/quantiles/rate of the trailing *window_s* seconds."""
        total = self._fold(window_s)
        count = total.count
        return {
            "count": count,
            "mean": (total.sum / count) if count else 0.0,
            "max": total.max,
            **self._quantiles(total),
            "rate": count / window_s,
        }


class Joint:
    """Instruments recorded at one site at one moment: re-pointed at one
    shared lock, which :meth:`record` takes once for all of them.  Each
    keeps its name, slices and snapshot, and reads or records on its own."""

    __slots__ = ("_lock", "_histograms", "_counters")

    def __init__(self, histograms: Iterable[Histogram], counters: Iterable[Counter] = ()):
        self._histograms, self._counters = tuple(histograms), tuple(counters)
        self._lock = threading.Lock()
        for instrument in (*self._histograms, *self._counters):
            instrument._lock = self._lock

    def record(self, values: Iterable[float | None], now: float, events: int = 1) -> None:
        """A sample per histogram (``None``: none), *events* per counter."""
        sec = int(now)
        with self._lock:
            for histogram, value in zip(self._histograms, values):
                if value is not None:
                    histogram._put(value, sec)
            if events:
                for counter in self._counters:
                    counter._put(events, sec)


def _live(per_name: dict[str, dict[str, dict[str, Any]]]) -> dict[str, Any]:
    """Only the instruments that saw a sample inside some window."""
    return {
        name: per_window
        for name, per_window in per_name.items()
        if any(w["count"] for w in per_window.values())
    }


class MetricsRegistry:
    """A named collection of instruments, one per runtime or replica group.

    ``counter``/``histogram`` are get-or-create and may be called from any
    thread; repeated calls with the same name return the same instrument
    (creation kwargs only apply on first creation).  The *clock* set here
    is inherited by every instrument it creates — tests inject a fake
    clock once and every window follows it.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get(self, table: dict[str, Any], cls: type, name: str, **kwargs: Any) -> Any:
        with self._lock:
            inst = table.get(name)
            if inst is None:
                inst = table[name] = cls(name, **kwargs)
            return inst

    def counter(self, name: str, **kwargs: Any) -> Counter:
        kwargs.setdefault("clock", self._clock)
        return self._get(self._counters, Counter, name, **kwargs)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, Gauge, name)

    def histogram(self, name: str, **kwargs: Any) -> Histogram:
        kwargs.setdefault("clock", self._clock)
        return self._get(self._histograms, Histogram, name, **kwargs)

    def merge(self, other: "MetricsRegistry") -> None:
        """Aggregate *other*'s instruments into this registry (per name)."""
        with other._lock:
            counters = list(other._counters.values())
            gauges = list(other._gauges.values())
            histograms = list(other._histograms.values())
        for c in counters:
            self.counter(c.name, windows=c.windows).merge(c)
        for g in gauges:
            self.gauge(g.name).merge(g)
        for h in histograms:
            mine = self.histogram(
                h.name,
                lo=h._bounds[0],
                factor=h._bounds[1] / h._bounds[0] if len(h._bounds) > 1 else 2.0,
                n_buckets=len(h._bounds),
                windows=h.windows,
            )
            mine.merge(h)

    def snapshot(self) -> dict[str, Any]:
        """Plain-data image of every instrument (what tests/CLI consume).

        ``windows`` is derived from the same instruments: the trailing
        view of every histogram (``histograms``) and counter (``rates``)
        that saw a sample inside the longest window.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": {n: c.snapshot() for n, c in counters},
            "gauges": {n: g.snapshot() for n, g in gauges},
            "histograms": {n: h.snapshot() for n, h in histograms},
            "windows": {
                "histograms": _live(
                    {n: h.window_snapshots() for n, h in histograms}
                ),
                "rates": _live({n: c.window_snapshots() for n, c in counters}),
            },
        }


def merged(registries: "list[MetricsRegistry]") -> "MetricsRegistry":
    """A fresh registry aggregating *registries* instrument-by-instrument.

    The sharded runtimes keep one registry per shard group (so per-shard
    skew stays observable) and merge on demand for the runtime-wide
    snapshot the contract tests and the CLI consume.  Counters and
    histogram samples sum; gauges sum too (``live_replicas`` across
    shards is total live replicas).
    """
    out = MetricsRegistry()
    for reg in registries:
        out.merge(reg)
    return out


def format_snapshot(snap: dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` for terminals."""
    lines: list[str] = []
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    histograms = snap.get("histograms", {})
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<24} {value}")
    if gauges:
        lines.append("gauges:")
        for name, value in gauges.items():
            lines.append(f"  {name:<24} {value:g}")
    if histograms:
        lines.append("histograms:")
        for name, h in histograms.items():
            if not h["count"]:
                lines.append(f"  {name:<24} (empty)")
                continue
            lines.append(
                f"  {name:<24} n={h['count']} mean={h['mean']:.6f} "
                f"p50={h['p50']:.6f} p95={h['p95']:.6f} p99={h['p99']:.6f} "
                f"p999={h.get('p999', h['p99']):.6f} max={h['max']:.6f}"
            )
    windows = snap.get("windows") or {}
    whists = windows.get("histograms", {})
    if whists:
        lines.append("windows:")
        for name, per_window in whists.items():
            for label, w in per_window.items():
                if not w["count"]:
                    continue
                lines.append(
                    f"  {name + '[' + label + ']':<24} n={w['count']} "
                    f"rate={w['rate']:.1f}/s p50={w['p50']:.6f} "
                    f"p99={w['p99']:.6f} p999={w['p999']:.6f}"
                )
    return "\n".join(lines) if lines else "(no metrics recorded)"

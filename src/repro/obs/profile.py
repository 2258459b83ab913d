"""Continuous profiling: a low-overhead sampling profiler with role names.

ROADMAP item 3 asks for a *profile-driven* attack on the ordered hot
path, but the runtime had no profiler: we knew multiproc reads run ~5x
slower than threaded (``bench_reads.txt``) without knowing where the time
goes.  This module is the missing instrument:

- :func:`register_thread` — the runtime's hot threads (sequencer, replica
  apply loops, journal, liveness monitor, chaos injectors) announce
  themselves under **stable role names** at thread start.  Registration
  is one dict store per thread lifetime — nothing on any per-operation
  path — so the profiler's off-path cost is structurally zero, the same
  discipline as ``enable_introspection()``;

- :class:`Daemon` — the one lifecycle of every background loop (the
  sequencer, the journal, the liveness monitor, this sampler, the alert
  engine): a registered thread that steps when kicked or on a period,
  stops the same way, and dies by one rule;

- :class:`SamplingProfiler` — a sampler thread walking
  ``sys._current_frames()`` at a configurable rate and folding each
  thread's stack under its role (``role;outer;...;leaf``).  Sampling is
  wait-free for the sampled threads (the interpreter snapshots frames;
  nobody stops); cost scales with the sampling rate, not the workload,
  and the default ~97 Hz keeps it under a few percent (measured in
  ``benchmarks/bench_profile.py``);

- **cross-process profiling** — each replica OS process runs its own
  per-process sampler, started and stopped through the group's in-band
  query lane; its folded stacks ride back over the existing transport
  and are merged under the replica's role.  The emissions travel the
  same incarnation-fenced feedback path as completions, so a replica
  killed mid-sampling can neither wedge the stop nor pollute the merged
  profile with stale stacks — the group simply keeps what the survivors
  report;

- **exporters** — :func:`to_collapsed` (Brendan Gregg's folded-stack
  format, pipe into ``flamegraph.pl``) and :func:`to_speedscope` (load
  the JSON at https://www.speedscope.app or in ``speedscope`` locally).

The frame source and thread enumerator are injectable, and
:meth:`SamplingProfiler.sample_once` takes one sample on the caller's
thread, so tests drive the sampler deterministically without timing
assumptions.

Usage::

    rt = MultiprocessRuntime(3)
    rt.start_profiling(hz=97)
    ... run the workload ...
    folded = rt.stop_profiling()
    open("prof.folded", "w").write(to_collapsed(folded))
    json.dump(to_speedscope(folded), open("prof.speedscope.json", "w"))
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable, Iterable, Mapping

from repro import sync
from repro.obs.events import emit as emit_event

__all__ = [
    "DEFAULT_HZ",
    "Daemon",
    "SamplingProfiler",
    "merge_folded",
    "register_thread",
    "registered_roles",
    "thread_role",
    "to_collapsed",
    "to_speedscope",
]

#: Default sampling rate.  A prime, so the sampler cannot phase-lock with
#: periodic runtime activity (batch ticks, liveness probes) and
#: systematically over- or under-sample it.
DEFAULT_HZ = 97.0

#: Thread ident -> stable role name.  Written once per thread lifetime by
#: :func:`register_thread`; read only by the sampler thread.  Plain dict
#: ops are atomic under the GIL, so the hot threads pay no lock.
_roles: dict[int, str] = {}


def register_thread(role: str, ident: int | None = None) -> None:
    """Register the calling thread (or *ident*) under a stable role name.

    Called once at the top of each runtime thread's loop ("sequencer",
    "replica-2", "journal", "liveness-monitor").  Idents of
    dead threads may be reused by the OS; re-registration simply
    overwrites, which is the behaviour a reincarnated replica slot wants.
    """
    _roles[threading.get_ident() if ident is None else ident] = role


def thread_role(ident: int) -> str:
    """The registered role of a thread ident, or ``""``."""
    return _roles.get(ident, "")


def registered_roles() -> dict[int, str]:
    """A copy of the live ident -> role map (tests, diagnostics)."""
    return dict(_roles)


class Daemon:
    """One background loop: a thread named and registered by *role*.

    *step* runs when :meth:`kick`-ed or, given *every*, every *every*
    seconds.  :meth:`stop` ends the loop and does not wait: a kicked loop
    steps one last time, so whatever was asked of it before the stop (a
    flush, an fsync) is covered, while a timed loop takes no step after
    it.  :meth:`close` stops, then joins — never its own thread.  The wake
    is a lock a kick releases and the loop's acquire takes back, so kicks
    before a step coalesce into one.

    One death rule: a step that raises ends the loop, and *on_fatal* is
    handed the reason, or, with none, a ``thread_died`` event is emitted.
    The thread's body is :meth:`run`, which a test may call on its own
    thread.
    """

    def __init__(
        self,
        role: str,
        step: Callable[[], Any],
        *,
        every: float | None = None,
        on_fatal: Callable[[str], None] | None = None,
    ):
        self.role = role
        #: the thread's name: the role without its shard ("shard0/sequencer")
        self.name = role.rpartition("/")[2]
        self._step = step
        self._period = -1 if every is None else every  # -1: block for a kick
        self._on_fatal = on_fatal
        self._wake = sync.Lock()
        self._wake.acquire()
        self._stopped = False
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        t = self._thread
        return t is not None and t.is_alive()

    def start(self) -> "Daemon":
        """Launch the thread; a second start on a running loop is a no-op."""
        if not self.running:
            self._stopped = False
            self._wake.acquire(False)  # drop a stale kick
            self._thread = sync.spawn(self.run, name=self.name)
        return self

    def kick(self) -> None:
        try:
            self._wake.release()
        except RuntimeError:
            pass  # already kicked: this one coalesces into it

    def stop(self) -> None:
        self._stopped = True
        self.kick()

    def close(self, timeout: float = 5.0) -> None:
        self.stop()
        t = self._thread
        if t is not None and t is not threading.current_thread():
            t.join(timeout)

    def run(self) -> None:
        register_thread(self.role)
        timed = self._period != -1
        try:
            while True:
                self._wake.acquire(True, self._period)
                stopping = self._stopped  # read before the step it covers
                if not (stopping and timed):
                    self._step()
                if stopping:
                    return
        except Exception as exc:  # noqa: BLE001 - one rule for every loop
            reason = f"{self.name} thread died: {type(exc).__name__}: {exc}"
            if self._on_fatal is not None:
                self._on_fatal(reason)
            else:
                emit_event("thread_died", severity="error", role=self.role, reason=reason)


def _frame_label(frame: Any) -> str:
    """One stack entry: ``module:function`` (short, stable across runs)."""
    code = frame.f_code
    mod = frame.f_globals.get("__name__", "?")
    return f"{mod}:{code.co_name}"


def _fold_stack(role: str, frame: Any, limit: int = 64) -> str:
    """Fold one thread's stack, outermost first, rooted at its role."""
    labels: list[str] = []
    while frame is not None and len(labels) < limit:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.append(role)
    labels.reverse()
    return ";".join(labels)


def merge_folded(*folded: Mapping[str, int]) -> dict[str, int]:
    """Sum any number of folded-stack maps (cross-process merge)."""
    out: dict[str, int] = {}
    for f in folded:
        for stack, n in f.items():
            out[stack] = out.get(stack, 0) + n
    return out


class SamplingProfiler:
    """A sampler thread folding ``sys._current_frames()`` at *hz*.

    ``start``/``stop`` are idempotent; ``stop`` returns the folded-stack
    map accumulated so far (and keeps it, so late :meth:`ingest` calls
    from replica processes still merge in).  The sampler thread excludes
    itself from its own samples.

    *frames* and *threads* are injectable for deterministic tests:
    *frames* must mimic ``sys._current_frames`` (ident -> frame),
    *threads* must yield objects with ``ident``/``name`` attributes.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        *,
        frames: Callable[[], Mapping[int, Any]] | None = None,
        threads: Callable[[], Iterable[Any]] | None = None,
    ):
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.hz = hz
        self.interval = 1.0 / hz
        self._frames = frames if frames is not None else sys._current_frames
        self._threads = threads if threads is not None else threading.enumerate
        self._folded: dict[str, int] = {}
        self._samples = 0
        self._lock = sync.Lock()
        self.thread = Daemon(
            "profile-sampler",
            lambda: self.sample_once(skip_ident=threading.get_ident()),
            every=self.interval,
        )

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #

    def sample_once(self, skip_ident: int | None = None) -> int:
        """Take one sample of every thread; return threads sampled.

        Threads without a registered role fall back to their ``Thread``
        name, so client threads still show up (as "client-3",
        "MainThread", ...) without any registration burden on user code.
        """
        names = {t.ident: t.name for t in self._threads()}
        folded: list[str] = []
        for ident, frame in self._frames().items():
            if ident == skip_ident:
                continue
            role = _roles.get(ident) or names.get(ident) or f"thread-{ident}"
            try:
                folded.append(_fold_stack(role, frame))
            except AttributeError:
                # A thread's stack can read as something other than a frame
                # (a function object was seen): leave that thread out of
                # this sample rather than let the sampler thread die.
                continue
        with self._lock:
            for stack in folded:
                self._folded[stack] = self._folded.get(stack, 0) + 1
            self._samples += 1
        return len(folded)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def samples(self) -> int:
        return self._samples

    def start(self) -> "SamplingProfiler":
        """Begin sampling.  A second start on a running profiler is a no-op."""
        self.thread.start()
        return self

    def stop(self) -> dict[str, int]:
        """Stop sampling and return the folded stacks (idempotent)."""
        self.thread.close()
        return self.folded()

    def ingest(self, folded: Mapping[str, int]) -> None:
        """Merge another sampler's folded stacks (replica processes)."""
        with self._lock:
            for stack, n in folded.items():
                self._folded[stack] = self._folded.get(stack, 0) + n

    def folded(self) -> dict[str, int]:
        with self._lock:
            return dict(self._folded)


# ---------------------------------------------------------------------- #
# per-process sampler (replica OS processes)
# ---------------------------------------------------------------------- #

#: The replica process's own sampler, keyed so repeated profile_start
#: queries (one per replica thread on a future multi-worker process) can
#: share one instance.  Only touched by the in-band query handlers.
_process_sampler: SamplingProfiler | None = None


def process_profile_start(hz: float = DEFAULT_HZ) -> str:
    """Start (or keep) this process's sampler — the profile_start query."""
    global _process_sampler
    if _process_sampler is None or not _process_sampler.thread.running:
        _process_sampler = SamplingProfiler(hz=hz)
        _process_sampler.start()
    return "profiling"


def process_profile_stop() -> dict[str, int]:
    """Stop this process's sampler, return folded — the profile_stop query."""
    global _process_sampler
    sampler = _process_sampler
    _process_sampler = None
    if sampler is None:
        return {}
    return sampler.stop()


# ---------------------------------------------------------------------- #
# aggregation + exporters
# ---------------------------------------------------------------------- #


def role_summary(folded: Mapping[str, int]) -> list[tuple[str, int, float]]:
    """Per-role sample totals: ``[(role, samples, share), ...]``, hottest first."""
    per_role: dict[str, int] = {}
    for stack, n in folded.items():
        role = stack.split(";", 1)[0]
        per_role[role] = per_role.get(role, 0) + n
    total = sum(per_role.values()) or 1
    return sorted(
        ((role, n, n / total) for role, n in per_role.items()),
        key=lambda row: -row[1],
    )


def to_collapsed(folded: Mapping[str, int]) -> str:
    """Folded stacks in the classic collapsed-flamegraph text format.

    One ``stack count`` line per distinct stack — the exact input
    ``flamegraph.pl`` and most flame-graph tooling consume.
    """
    return "\n".join(
        f"{stack} {n}" for stack, n in sorted(folded.items())
    ) + ("\n" if folded else "")


def to_speedscope(
    folded: Mapping[str, int], name: str = "repro profile"
) -> dict[str, Any]:
    """Folded stacks as a speedscope "sampled" profile (JSON-dumpable).

    Weights are sample counts (unit "none"): wall-clock attribution at a
    fixed rate, which is what a sampling profiler honestly knows.
    """
    frame_index: dict[str, int] = {}
    frames: list[dict[str, str]] = []

    def frame_id(label: str) -> int:
        idx = frame_index.get(label)
        if idx is None:
            idx = frame_index[label] = len(frames)
            frames.append({"name": label})
        return idx

    samples: list[list[int]] = []
    weights: list[int] = []
    for stack, n in sorted(folded.items()):
        samples.append([frame_id(label) for label in stack.split(";")])
        weights.append(n)
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro.obs.profile",
    }

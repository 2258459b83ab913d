"""ReplicaGroup: the transport-agnostic replication core.

One object owns everything the paper's ordered-update pipeline needs
(Sec. 5), independent of how items reach the replicas:

- **sequencing** — acquiring the sequencer lock *is* the atomic
  multicast's total order.  With batching enabled (the default)
  submitters only append to a pending queue; a dedicated sequencer
  thread drains the whole queue under the lock and ships it as ONE
  ordered batch.  While the sequencer is marshalling and broadcasting a
  batch, clients keep piling onto the queue — so load makes batches
  bigger exactly when amortizing pickling and queue wakeups matters
  most.  In-band operations (queries, recovery) flush the pending queue
  themselves under the same lock, so "sequenced after everything
  submitted before me" still holds;
- **parking and completion matching** — each submission waits on an
  event; every replica reports completions and the waiter map pops
  exactly once, so duplicates are free and a crashed replica can never
  strand a client on a completion it alone knew about;
- **in-band queries** — fingerprints, space sizes and snapshots travel on
  the command FIFOs, so they observe exactly the state after every
  previously sequenced command (no separate quiescing protocol);
- **the read fast path** — a read-only :class:`ExecuteAGS` (every op
  ``rd``/``rdp``) cannot change replicated state, and identical replicas
  mean any single up-to-date replica can answer it.  :meth:`ReplicaGroup.
  call` routes such statements *around* the total order: one live replica
  receives an in-band read tagged with a **session floor** (the
  highest slot the group has sequenced at that instant) and parks it
  until its applied count reaches the floor, then evaluates the guard on
  local state — read-your-writes consistency with no sequencing, no
  broadcast and one guard evaluation instead of N.  The read lane gets
  the same amortization as the write lane: a dedicated flusher thread
  drains concurrently submitted reads and ships them per replica as one
  ``READS`` item, and replicas answer each served batch with one
  ``COMPS`` — so under read-heavy load the per-operation transport cost
  (pickle + queue wakeup, both ways) is shared.  A blocking read whose
  guard cannot fire locally, and any read stranded by a replica crash,
  falls back transparently to the ordered path (the fallback ladder: fast
  path → reroute on READMISS/crash → ordered park → ordered cancel);
- **crash/recovery bookkeeping** — the alive mask, the ordered
  ``HostFailed``/``HostRecovered`` notifications, and the snapshot-based
  state transfer for transports that support restart;
- **the durable journal, group-committed** — with ``durable_dir=`` the
  sequencer *writes* each batch's records to a segmented WAL under its
  lock and broadcasts at once; a journal thread fsyncs beside it, one
  fsync covering every batch written while the previous one ran.  The
  fence is **no acknowledgement before fsync**: replicas may apply ahead
  of the disk, but every ``COMPS`` frame carries the replica's applied
  count and is delivered only once the journal is fsynced that far, so
  nothing a client has observed can be lost to a crash;
- **metrics** — submit→order, order→apply and end-to-end AGS latency
  histograms plus submission/batch counters, recorded in one place so
  every backend reports identical instruments;
- **tracing** — with a :class:`~repro.obs.tracing.FlightRecorder`
  attached, every submission is minted a per-AGS trace id that rides
  inside the command through the sequencer batch, the transport (incl.
  the pickled multiproc blob) and the replica apply loops; the group
  records ``submit_to_order`` / ``broadcast`` / ``e2e`` spans here and
  ingests the per-replica ``apply`` spans the workers emit, all under
  one trace.  With no recorder attached (the default) every emit site
  is a single ``is not None`` check and commands carry ``trace_id=None``;
- **profiling & stage attribution** — :meth:`ReplicaGroup.start_profiling`
  runs the :mod:`repro.obs.profile` sampler over this group's registered
  threads (sequencer, read flusher, monitor, in-process replicas) and,
  on per-process transports, drives per-replica samplers through the
  in-band query lane (strictly opt-in).  Stage attribution is always
  on and sampled: one batch in :data:`repro.obs.stages.
  STAGE_SAMPLE_EVERY` carries a broadcast stamp and replicas answer it
  with a STAGES emission, decomposing the e2e latency into broadcast /
  inbox / apply / reply histograms (``linda_stage_*``).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Iterator

from repro._errors import HostFailedError, RuntimeFailure, TimeoutError_
from repro.core.ags import AGSResult
from repro.core.spaces import TSHandle
from repro.core.statemachine import (
    CancelRequest,
    Command,
    ExecuteAGS,
    HostFailed,
    HostRecovered,
)
from repro.obs.events import emit as emit_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    DEFAULT_HZ,
    SamplingProfiler,
    merge_folded,
    register_thread,
)
from repro.obs.stages import STAGE_SAMPLE_EVERY
from repro.obs.tracing import FlightRecorder
from repro.replication.transport import Transport
from repro.replication.worker import split_state

__all__ = ["LivenessPolicy", "ReplicaGroup"]

#: Origin-host id the group stamps on client commands.  Reserved: failure
#: injection uses non-negative *logical* host ids, and HostFailed drops
#: blocked statements whose origin matches — client statements must never.
CLIENT_ORIGIN = -1

#: How long a cancelled statement may take to report back before the whole
#: group is declared unresponsive.
_CANCEL_GRACE_S = 30.0

#: Sentinel answer deposited into a pending query's slot when its target
#: replica crashes — fail fast instead of stalling the full query timeout.
_REPLICA_CRASHED = object()

#: Returned by the chunked-transfer round trip when the donor died (or
#: lost its transfer cache) mid-stream: the fetch resumes from the next
#: live donor instead of failing the whole recovery.
_DONOR_LOST = object()


class LivenessPolicy:
    """Tuning for the failure detector and the self-healing supervisor.

    The detector declares a replica dead only when BOTH halves agree: it
    has been *silent* on the feedback lane for at least ``suspect_after``
    seconds (no completion, query answer, or heartbeat PONG) AND the
    transport-level probe (``Process.is_alive()`` / thread aliveness)
    fails.  Silence alone is just suspicion — a replica grinding through
    a huge batch is quiet but healthy, and the probe keeps it from being
    shot.  A dead vehicle alone is caught within one ``probe_interval``
    of the silence threshold, which bounds detection latency at roughly
    ``suspect_after + probe_interval``.

    ``auto_recover`` additionally drives the snapshot/install recovery
    protocol after each detected death, waiting out a capped exponential
    backoff (``backoff_initial`` doubling up to ``backoff_max``) between
    a replica's successive restarts and giving up for good after
    ``max_restarts`` attempts — a crash-looping replica must not consume
    the group.
    """

    __slots__ = (
        "probe_interval", "suspect_after", "auto_recover", "max_restarts",
        "backoff_initial", "backoff_max",
    )

    def __init__(
        self,
        *,
        probe_interval: float = 0.25,
        suspect_after: float = 1.0,
        auto_recover: bool = False,
        max_restarts: int = 3,
        backoff_initial: float = 0.1,
        backoff_max: float = 2.0,
    ):
        if probe_interval <= 0 or suspect_after <= 0:
            raise ValueError("probe_interval and suspect_after must be positive")
        self.probe_interval = probe_interval
        self.suspect_after = suspect_after
        self.auto_recover = auto_recover
        self.max_restarts = max_restarts
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max


class _Waiter:
    """One parked client submission and its latency timestamps."""

    __slots__ = (
        "event", "slot", "t_submit", "t_ordered", "trace_id", "track", "fellback",
    )

    def __init__(self, t_submit: float):
        self.event = threading.Event()
        self.slot: list[Any] = []
        self.t_submit = t_submit
        self.t_ordered: float | None = None
        self.trace_id: int | None = None
        self.track = ""
        #: Read fast path only (allocated in call()): set once the read has
        #: been reshipped through the total order, so a concurrently
        #: timing-out client never cancels ahead of the reship.
        self.fellback: threading.Event | None = None


class ReplicaGroup:
    """Sequencing, parking, dedup, queries and metrics over a Transport."""

    #: Chunk size for resumable, incarnation-fenced replica state transfer.
    transfer_chunk_bytes = 256 * 1024

    def __init__(
        self,
        transport: Transport,
        *,
        batching: bool = True,
        read_fastpath: bool = True,
        metrics: MetricsRegistry | None = None,
        tracer: FlightRecorder | None = None,
        liveness: LivenessPolicy | bool | None = None,
        name: str = "",
        shard_info: tuple[int, int] | None = None,
        durable_dir: str | None = None,
        durable_fsync: bool = True,
    ):
        self.transport = transport
        self.n_replicas = transport.n_replicas
        self.batching = batching
        self.read_fastpath = read_fastpath
        #: Display name when this group is one shard of a ShardedGroup
        #: ("shard0", …); empty for the classic single-group deployment.
        #: Prefixes replica trace tracks ("shard0/replica-1") so the
        #: consistency checker can partition the total-order comparison
        #: per shard — shards are independently sequenced, and comparing
        #: their slot counters across shards would report false forks.
        self.name = name
        #: ``(shard_index, n_shards)`` when sharded, stamped onto the
        #: HostFailed/HostRecovered commands this group sequences so each
        #: shard deposits failure/recovery tuples only into the partitions
        #: it owns (one tuple per space globally, not one per shard).
        self.shard_info = shard_info
        self.alive = [True] * self.n_replicas
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        if liveness is True:
            liveness = LivenessPolicy()
        self.liveness: LivenessPolicy | None = liveness or None
        self._req_ids = itertools.count(1)
        self._qids = itertools.count(1)
        self._seq_lock = threading.Lock()  # holding this IS the total order
        self._pending: deque[tuple[Command, _Waiter | None]] = deque()
        self._pending_lock = threading.Lock()
        self._state_lock = threading.Lock()  # waiters + queries + reads
        self._waiters: dict[int, _Waiter] = {}
        self._queries: dict[tuple[int, int], tuple[threading.Event, list]] = {}
        #: Outstanding fast-path reads: request_id -> (replica_id, command).
        #: Guarded by _state_lock; exactly one of {completion, miss, crash
        #: reroute, client timeout} pops each entry and owns its outcome.
        self._reads: dict[int, tuple[int, Command]] = {}
        #: Count of commands sequenced so far — the session floor for
        #: reads.  Incremented (under _pending_lock) *before* a batch is
        #: broadcast, so by the time any completion reaches a client the
        #: counter already covers the completed command's slot.
        self._sequenced = 0
        #: The read lane's pending queue: (replica, floor, cmd) triples
        #: drained by the read flusher into one READS item per replica —
        #: the same batch amortization the sequencer gives writes, minus
        #: the ordering.  deque append/popleft are atomic; no lock needed.
        self._read_pending: deque[tuple[int, int, ExecuteAGS]] = deque()
        self._read_kick = threading.Event()
        #: Contention detector for the read lane: a reader that gets this
        #: uncontended sends its read itself (lowest latency); one that
        #: finds it held leaves the read for the flusher to batch.
        self._read_send_lock = threading.Lock()
        self._h_submit = self.metrics.histogram("submit_to_order")
        self._h_apply = self.metrics.histogram("order_to_apply")
        self._h_e2e = self.metrics.histogram("ags_e2e")
        self._h_batch = self.metrics.histogram("batch_size", lo=1.0, n_buckets=12)
        self._h_read = self.metrics.histogram("read_latency")
        self._c_cmds = self.metrics.counter("commands_submitted")
        self._c_batches = self.metrics.counter("batches_shipped")
        self._c_read_fast = self.metrics.counter("read_fastpath")
        self._c_read_fallback = self.metrics.counter("read_fallback")
        self._c_failures = self.metrics.counter("failures_detected")
        self._c_autorec = self.metrics.counter("auto_recoveries")
        self._h_detect = self.metrics.histogram("detection_latency")
        self._g_live = self.metrics.gauge("live_replicas")
        self._g_live.set(self.n_replicas)
        #: Backpressure gauges — *sampled* in metrics_snapshot(), never
        #: maintained on the hot path, so they cost nothing per operation.
        self._g_seq_depth = self.metrics.gauge("sequencer_inbox_depth")
        self._g_read_depth = self.metrics.gauge("read_lane_depth")
        self._g_apply_depth = self.metrics.gauge("replica_inbox_max_depth")
        #: Stage attribution (repro.obs.stages): sampled batches carry a
        #: broadcast stamp and replicas answer each with a STAGES emission.
        #: _batches_shipped picks the sample; only ever touched under
        #: _seq_lock, like everything else in _broadcast_batch.
        self._h_stage_bcast = self.metrics.histogram("stage_broadcast")
        self._h_stage_queue = self.metrics.histogram("stage_replica_queue")
        self._h_stage_apply = self.metrics.histogram("stage_apply")
        self._h_stage_reply = self.metrics.histogram("stage_reply")
        self._batches_shipped = 0
        #: The continuous-profiling plane (strictly opt-in): an in-process
        #: sampler for this group's threads plus, on per-process-worker
        #: transports, per-replica remote samplers driven over the in-band
        #: query lane.
        self._profiler: SamplingProfiler | None = None
        self._remote_profiling = False
        #: Set when an internal thread (sequencer) died: the group can no
        #: longer order commands, and every call fails fast instead of
        #: hanging (read before registering, re-checked via the waiter
        #: sweep in _mark_failed).
        self._group_error: str | None = None
        #: Liveness bookkeeping (all monotonic stamps).  _last_seen is
        #: refreshed by ANY feedback-lane emission — completions double as
        #: heartbeats, and in-band PING/PONG covers idle replicas.
        self._last_seen = [time.monotonic()] * self.n_replicas
        self._restarts = [0] * self.n_replicas
        #: replica -> earliest monotonic time its next restart may run.
        self._recover_pending: dict[int, float] = {}
        self._monitor_stop = threading.Event()
        self._monitor_thread: threading.Thread | None = None
        self._stopped = False
        #: Durable mode: the sequencer's ordered command stream journaled
        #: through a segmented WAL (repro.persist.segments), so a
        #: full-group restart replays the stream and recovers every
        #: replica to the last fsynced slot.  Group commit: the sequencer
        #: writes records (_journal_slot counts them), the journal thread
        #: fsyncs them (_journal_durable), and what waits for the disk is
        #: the completion, never the command — see _journal_loop.  With
        #: fsync off there is no thread and the two counters move as one.
        self.durable_dir = durable_dir
        self._journal = None
        self._journal_slot = 0
        self._journal_durable = 0
        self._journal_replaying = False
        self.journal_replayed = 0
        #: Guards _journal_durable and _held; journal barriers sleep on it.
        self._journal_cv = threading.Condition()
        #: COMPS frames that ran ahead of the disk, in arrival order:
        #: (applied, replica_id, comps, t_parked).
        self._held: list[tuple[int, int, list, float]] = []
        self._journal_kick = threading.Event()
        self._journal_stop = False
        self._journal_thread: threading.Thread | None = None
        self._h_fsync = self.metrics.histogram("journal_fsync")
        self._h_commit_wait = self.metrics.histogram("journal_commit_wait")
        self._g_journal_lag = self.metrics.gauge("journal_lag")
        #: Test/chaos hook, called after each fetched transfer chunk with
        #: (donor, idx, total) — lets the chaos harness kill the donor
        #: mid-transfer at a precise chunk boundary.
        self._xfer_chunk_hook = None
        self._c_xfer_chunks = self.metrics.counter("state_transfer_chunks")
        if durable_dir is not None:
            from repro.persist.segments import SegmentedLog

            self._journal = SegmentedLog(durable_dir, fsync=durable_fsync)
            if durable_fsync:
                self._journal_thread = threading.Thread(
                    target=self._journal_loop, name="journal", daemon=True
                )
                self._journal_thread.start()
        transport.start(self._on_worker_item)
        self._kick = threading.Event()
        self._seq_thread: threading.Thread | None = None
        self._read_thread: threading.Thread | None = None
        if batching:
            self._seq_thread = threading.Thread(
                target=self._sequencer_loop, name="sequencer", daemon=True
            )
            self._seq_thread.start()
            if read_fastpath:
                self._read_thread = threading.Thread(
                    target=self._read_flusher_loop, name="read-flusher",
                    daemon=True,
                )
                self._read_thread.start()
        if self.liveness is not None:
            self._monitor_thread = threading.Thread(
                target=self._monitor_loop, name="liveness-monitor", daemon=True
            )
            self._monitor_thread.start()
        if self._journal is not None:
            self._recover_from_journal()

    # ------------------------------------------------------------------ #
    # sequencing (the bus)
    # ------------------------------------------------------------------ #

    def next_request_id(self) -> int:
        return next(self._req_ids)

    def _replica_track(self, replica_id: int) -> str:
        """Trace track of a replica, shard-qualified when sharded."""
        if self.name:
            return f"{self.name}/replica-{replica_id}"
        return f"replica-{replica_id}"

    def _role(self, base: str) -> str:
        """Profiler role of one of this group's threads, shard-qualified."""
        return f"{self.name}/{base}" if self.name else base

    def call(
        self,
        cmd: Command,
        timeout: float | None = None,
        *,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> Any:
        """Sequence *cmd*, park until its completion, return the result.

        Read-only statements take the read fast path when enabled: they
        are answered by one live replica at a consistent session floor
        instead of being sequenced (see the module docstring), falling
        back to the ordered path when the guard cannot fire locally or
        the chosen replica crashes.

        On timeout an *ordered* statement is withdrawn *through the total
        order* (a :class:`CancelRequest`), then whichever outcome won the
        race — completion or cancellation — is taken, so a timed-out
        ``in`` can never consume a tuple it did not report.

        With ``retries`` > 0, a :class:`TimeoutError_` or
        :class:`HostFailedError` triggers transparent resubmission (up to
        that many extra attempts, sleeping a doubling ``backoff`` between
        them) **with the same request id**: the replicas' completed-request
        memo replays a result that already applied instead of executing
        twice, and a statement the ordered cancel provably withdrew is
        simply re-executed — at-most-once either way.
        """
        attempt = 0
        while True:
            try:
                result = self._call_once(cmd, timeout)
            except (TimeoutError_, HostFailedError):
                if attempt >= retries:
                    raise
            else:
                if not (
                    retries
                    and isinstance(result, AGSResult)
                    and result.error == "cancelled"
                ):
                    return result
                # A stale cancel from an earlier timed-out attempt won the
                # race against this resubmission; the statement did not
                # run, so retrying it is safe.
                if attempt >= retries:
                    return result
            attempt += 1
            if backoff > 0:
                time.sleep(min(backoff * (2 ** (attempt - 1)), 1.0))

    def _call_once(self, cmd: Command, timeout: float | None = None) -> Any:
        """One submission attempt of :meth:`call` (no retry policy)."""
        w = _Waiter(time.monotonic())
        tracer = self.tracer
        if tracer is not None:
            cmd.trace_id = w.trace_id = tracer.next_trace_id()
            w.track = f"client:{threading.current_thread().name}"
        with self._state_lock:
            self._waiters[cmd.request_id] = w
        if self._group_error is not None:
            # registered-then-checked: whichever side _mark_failed's sweep
            # lands on, this waiter is popped and the call raises
            with self._state_lock:
                self._waiters.pop(cmd.request_id, None)
            raise RuntimeFailure(self._group_error)
        self._c_cmds.inc(1, w.t_submit)
        if (
            self.read_fastpath
            and isinstance(cmd, ExecuteAGS)
            and cmd.ags.read_only
        ):
            w.fellback = threading.Event()
            if self._send_read(cmd):
                return self._await_read(cmd, w, timeout)
        self._ship(cmd, w)
        if w.event.wait(timeout):
            return self._resolve(w.slot[0])
        return self._finish_ordered_timeout(cmd, w, timeout)

    @staticmethod
    def _resolve(result: Any) -> Any:
        """Raise failure results (poison commands, group death) in the caller.

        A :class:`RuntimeFailure` instance in a waiter slot is an outcome
        the replicas (or the group itself) computed for this request —
        ``CommandFailed`` from the apply loop's poison barrier, or the
        group-failed error — and must surface as an exception, not a
        return value.  Deterministic *domain* results (``AGSResult`` with
        an error, ``SpaceError`` from create/destroy) pass through
        untouched; the runtime layer interprets those.
        """
        if isinstance(result, RuntimeFailure):
            raise result
        return result

    def _finish_ordered_timeout(
        self, cmd: Command, w: _Waiter, timeout: float | None
    ) -> Any:
        """The ordered cancel dance after a parked call's guard timeout."""
        self.post(CancelRequest(self.next_request_id(), CLIENT_ORIGIN, cmd.request_id))
        if not w.event.wait(_CANCEL_GRACE_S):
            with self._state_lock:
                self._waiters.pop(cmd.request_id, None)
            # neither the completion nor the cancel reported back: the
            # command may yet apply, and only the request-id memo makes a
            # resubmission safe
            raise TimeoutError_("replica group unresponsive", outcome="unknown")
        result = w.slot[0]
        if isinstance(result, AGSResult) and result.error == "cancelled":
            raise TimeoutError_(
                f"guard not satisfied within {timeout}s", outcome="cancelled"
            )
        return self._resolve(result)

    # ------------------------------------------------------------------ #
    # the read fast path
    # ------------------------------------------------------------------ #

    def _send_read(self, cmd: ExecuteAGS) -> bool:
        """Route a read-only statement to one live replica.

        The session floor is the highest slot the group has *sequenced*
        at this instant.  Any command whose completion a client has seen
        was sequenced before its completion was reported, so it sits at
        or below the floor — the answering replica parks the read until
        it has applied that much, giving read-your-writes (and
        read-anyone's-completed-writes) without entering the order.
        Commands still *pending* are deliberately not covered: they have
        completed for nobody yet, and waiting on them would re-couple
        reads to the sequencing of unrelated writers.

        Returns False when no replica could take the read (none live, or
        the chosen one crashed mid-send) — the caller ships it ordered.
        """
        live = self.live_replicas()
        if not live:
            return False
        # Sticky routing: a client thread's reads all land on the same
        # replica (its session floor is already applied there, and the
        # replica stays hot), while distinct clients hash across the live
        # set for balance.  Membership changes just re-hash.
        replica = live[threading.get_ident() % len(live)]
        with self._pending_lock:
            floor = self._sequenced
        with self._state_lock:
            self._reads[cmd.request_id] = (replica, cmd)
        if self._read_send_lock.acquire(blocking=False):
            # idle lane: send directly — one thread hop fewer, which is
            # most of a fast read's latency at low concurrency
            try:
                self.transport.send(replica, ("READS", [(floor, cmd)]))
            finally:
                self._read_send_lock.release()
        elif self._read_thread is not None:
            # another reader holds the lane: join the flusher's next
            # per-replica batch instead of queueing up a send per read
            self._read_pending.append((replica, floor, cmd))
            self._read_kick.set()
        else:
            self.transport.send(replica, ("READS", [(floor, cmd)]))
        if not self.alive[replica]:
            # Raced crash_replica: whoever pops the registration owns the
            # reroute.  If the crash handler already did, the ordered
            # fallback is in flight and the fast path "took" the read.
            with self._state_lock:
                if self._reads.pop(cmd.request_id, None) is not None:
                    return False
        self._c_read_fast.inc()
        return True

    def _await_read(self, cmd: ExecuteAGS, w: _Waiter, timeout: float | None) -> Any:
        """Wait out a fast-path read; degrade to the ordered ladder."""
        if w.event.wait(timeout):
            now = time.monotonic()
            self._h_read.record(now - w.t_submit, now)
            return self._resolve(w.slot[0])
        with self._state_lock:
            owned = self._reads.pop(cmd.request_id, None)
            if owned is not None:
                self._waiters.pop(cmd.request_id, None)
        if owned is not None:
            # Still on the fast path: nothing is parked in the total order
            # and reads consume nothing, so no ordered cancel is needed.
            raise TimeoutError_(f"guard not satisfied within {timeout}s")
        if w.event.is_set():
            # completion won the race with the deadline
            return self._resolve(w.slot[0])
        # The read fell back to the ordered path before the deadline and
        # is parked there — wait for the reship to actually be enqueued
        # (the fallback claim and its _ship are not atomic), then withdraw
        # it through the order as usual.
        if w.fellback is not None:
            w.fellback.wait(1.0)
        return self._finish_ordered_timeout(cmd, w, timeout)

    def _fallback_read(self, request_id: int) -> None:
        """Reship an outstanding fast-path read through the total order."""
        with self._state_lock:
            entry = self._reads.pop(request_id, None)
            w = self._waiters.get(request_id) if entry is not None else None
        if entry is not None and w is not None:
            self._c_read_fallback.inc()
            self._ship(entry[1], w)
            if w.fellback is not None:
                w.fellback.set()

    def _reroute_reads(self, replica_id: int) -> None:
        """Reship every read stranded on a crashed replica."""
        with self._state_lock:
            stranded = [
                rid
                for rid, (target, _cmd) in self._reads.items()
                if target == replica_id
            ]
        for rid in stranded:
            self._fallback_read(rid)

    def post(self, cmd: Command) -> None:
        """Sequence *cmd* without waiting for any completion."""
        if self._group_error is not None:
            raise RuntimeFailure(self._group_error)
        tracer = self.tracer
        if tracer is not None:
            cmd.trace_id = tracer.next_trace_id()
        self._c_cmds.inc()
        self._ship(cmd, None)

    def _ship(self, cmd: Command, w: _Waiter | None) -> None:
        if not self.batching:
            with self._seq_lock:
                with self._pending_lock:
                    self._sequenced += 1
                self._broadcast_batch([(cmd, w)])
            return
        with self._pending_lock:
            self._pending.append((cmd, w))
        self._kick.set()

    def _flush_pending_locked(self) -> bool:
        """Ship everything pending as one batch.  Caller holds _seq_lock.

        Commands leave the pending queue only under the sequencer lock, so
        anything not yet broadcast is still visible here — which is what
        lets queries and recovery flush-then-send to stay in-band.
        """
        with self._pending_lock:
            if not self._pending:
                return False
            batch = list(self._pending)
            self._pending.clear()
            # counted as sequenced before the broadcast below: a read
            # floor taken after any of these commands completes must
            # already cover their slots
            self._sequenced += len(batch)
        self._broadcast_batch(batch)
        return True

    def _sequencer_loop(self) -> None:
        """Drain the pending queue into ordered batches until shutdown.

        A dedicated thread rather than drain-on-submit: while it is
        marshalling one batch, every concurrently submitting client simply
        appends — so the next batch is as large as the current one was
        slow, and per-command marshalling cost amortizes under load.

        An unexpected exception here is fatal to the whole group — nothing
        can be ordered any more — so it marks the group failed and wakes
        every parked client with :class:`RuntimeFailure` instead of
        leaving them to hang forever against a dead bus.
        """
        register_thread(self._role("sequencer"))
        try:
            while True:
                self._kick.wait()
                self._kick.clear()
                while True:
                    with self._seq_lock:
                        if not self._flush_pending_locked():
                            break
                if self._stopped:
                    with self._seq_lock:
                        self._flush_pending_locked()
                    return
        except Exception as exc:  # noqa: BLE001 - the group must not wedge
            self._mark_failed(
                f"sequencer thread died: {type(exc).__name__}: {exc}"
            )

    def _mark_failed(self, reason: str) -> None:
        """The group can no longer order commands: fail everything, fast.

        Every parked waiter wakes with a :class:`RuntimeFailure` (a fresh
        instance each, so tracebacks don't cross threads), every pending
        query gets the crashed sentinel, and subsequent calls/posts raise
        at entry via ``_group_error``.
        """
        self._group_error = reason
        emit_event(
            "group_failed", severity="critical",
            group=self.name or "group", reason=reason,
        )
        with self._state_lock:
            waiters = list(self._waiters.values())
            self._waiters.clear()
            queries = list(self._queries.values())
            self._queries.clear()
            self._reads.clear()
        for w in waiters:
            w.slot.append(RuntimeFailure(reason))
            w.event.set()
        for event, slot in queries:
            slot.append(_REPLICA_CRASHED)
            event.set()
        if self.tracer is not None:
            self.tracer.record_span(
                time.monotonic(), "sequencer", "group", "group_failed",
                args={"reason": reason, "waiters_failed": len(waiters)},
            )

    def _read_flusher_loop(self) -> None:
        """Drain the read lane into per-replica READS batches until shutdown.

        The write lane's amortization argument, replayed: while this
        thread is shipping one batch, concurrently submitting readers
        keep appending — so each transport send (and, on the pickling
        transport, each marshalling pass) carries as many reads as the
        previous send was slow.  A read enqueued for a replica that
        crashed after registration still gets shipped here; the dead
        FIFO drops it, and the crash handler's reroute owns the outcome.

        Unlike the sequencer, this thread's death is survivable: the fast
        path degrades to direct sends (``_read_thread`` is cleared, which
        is exactly the condition ``_send_read`` already checks), and any
        read stranded on the queue is rerouted through the total order.
        """
        register_thread(self._role("read-flusher"))
        pending = self._read_pending
        try:
            while True:
                self._read_kick.wait()
                self._read_kick.clear()
                while pending:
                    by_replica: dict[int, list[tuple[int, ExecuteAGS]]] = {}
                    try:
                        while True:
                            replica, floor, cmd = pending.popleft()
                            by_replica.setdefault(replica, []).append((floor, cmd))
                    except IndexError:
                        pass
                    # hold the lane lock while shipping so concurrent readers
                    # keep feeding the next batch instead of racing us
                    with self._read_send_lock:
                        for replica, reads in by_replica.items():
                            self.transport.send(replica, ("READS", reads))
                if self._stopped:
                    return
        except Exception:  # noqa: BLE001 - degrade, don't strand readers
            self._read_thread = None
            while True:
                try:
                    entry = pending.popleft()
                except IndexError:
                    break
                if len(entry) != 3:
                    continue  # the malformed item that killed the loop
                self._fallback_read(entry[2].request_id)

    def _broadcast_batch(self, batch: list[tuple[Command, _Waiter | None]]) -> None:
        # Durable mode: write the ordered stream to the journal BEFORE it
        # reaches any replica — written and flushed to the OS, not yet
        # forced to disk: that is the journal thread's job, and the
        # broadcast does not wait for it.  _broadcast_batch only ever
        # runs under _seq_lock, so journal order is exactly the total
        # order.  Journal slot k holds the k-th sequenced command — the
        # same coordinate as a replica's applied count, which is what
        # lets compaction use a replica snapshot's `applied` as the
        # covered-slot watermark, and lets a COMPS frame's `applied` say
        # how far the disk must have got before it may be delivered.
        if self._journal is not None and not self._journal_replaying:
            base = self._journal_slot
            self._journal.write_many(
                (base + i + 1, cmd) for i, (cmd, _w) in enumerate(batch)
            )
            self._journal_slot = base + len(batch)
            if self._journal_thread is None:
                self._journal_durable = self._journal_slot
            else:
                self._journal_kick.set()
        now = time.monotonic()
        cmds = []
        for cmd, w in batch:
            cmds.append(cmd)
            if w is not None:
                w.t_ordered = now
                self._h_submit.record(now - w.t_submit, now)
        self._c_batches.inc(1, now)
        self._h_batch.record(len(batch), now)
        # On a sampled batch the stamp rides inside the batch item (and
        # through the pickled blob), so every replica can report how long
        # the batch sat in its inbox; CLOCK_MONOTONIC is system-wide on
        # Linux, making the stamp comparable across processes.
        sampled = self._batches_shipped % STAGE_SAMPLE_EVERY == 0
        self._batches_shipped += 1
        t_send = time.monotonic() if sampled else None
        info = self.transport.broadcast(("BATCH", cmds, t_send), self.alive)
        if isinstance(info, int):
            # the marshalled size, from a transport that has one: over
            # commands_submitted it is wire bytes per command.  Registered
            # here, so a group with no wire shows no such counter.
            self.metrics.counter("broadcast_bytes").inc(info, now)
        if t_send is not None:
            t_sent = time.monotonic()
            self._h_stage_bcast.record(t_sent - t_send, t_sent)
        tracer = self.tracer
        if tracer is not None:
            self._trace_batch(tracer, batch, now, info)

    def _trace_batch(
        self,
        tracer: FlightRecorder,
        batch: list[tuple[Command, _Waiter | None]],
        t_ordered: float,
        info: Any,
    ) -> None:
        """Record the batch's broadcast span and each AGS's submit span."""
        traced: list[int] = []
        for cmd, w in batch:
            if cmd.trace_id is None:
                continue
            traced.append(cmd.trace_id)
            if w is not None:
                tracer.record_span(
                    w.t_submit,
                    w.track,
                    "client",
                    "submit_to_order",
                    dur=t_ordered - w.t_submit,
                    trace_id=cmd.trace_id,
                    args={"request_id": cmd.request_id},
                )
        args: dict[str, Any] = {"batch": len(batch), "trace_ids": traced}
        if isinstance(info, int):
            args["bytes"] = info
        tracer.record_span(
            t_ordered,
            "sequencer",
            "group",
            "broadcast",
            dur=time.monotonic() - t_ordered,
            args=args,
        )

    # ------------------------------------------------------------------ #
    # worker emissions (completions + query answers)
    # ------------------------------------------------------------------ #

    def _complete(self, replica_id: int, rid: int, result: Any) -> None:
        """Deliver one completion: pop-as-claim, record latencies, wake."""
        with self._state_lock:
            w = self._waiters.pop(rid, None)
            self._reads.pop(rid, None)
        if w is not None:
            now = time.monotonic()
            if w.t_ordered is not None:
                self._h_apply.record(now - w.t_ordered, now)
            self._h_e2e.record(now - w.t_submit, now)
            tracer = self.tracer
            if tracer is not None and w.trace_id is not None:
                tracer.record_span(
                    w.t_submit,
                    w.track,
                    "client",
                    "e2e",
                    dur=now - w.t_submit,
                    trace_id=w.trace_id,
                    args={"request_id": rid, "replica": replica_id},
                )
            w.slot.append(result)
            w.event.set()

    def _on_worker_item(self, replica_id: int, item: tuple) -> None:
        # any emission proves the apply loop is running: completions (and
        # everything else on the feedback lane) double as heartbeats
        now = self._last_seen[replica_id] = time.monotonic()
        kind = item[0]
        if kind == "PONG":
            return  # the timestamp refresh above was the whole point
        if kind == "COMPS":
            # one applied BATCH's, or one READS batch's, worth of answers
            _k, comps, applied = item
            if self._journal_thread is not None:
                # No acknowledgement before fsync.  `applied` is the
                # newest slot these answers can reveal — the batch that
                # *produced* them, which for a woken `in` or a fast-path
                # `rd` is later than the statement's own slot — so they
                # wait until the journal is durable that far.  Taking the
                # lock even when nothing parks keeps this frame behind any
                # release the journal thread is in the middle of.
                with self._journal_cv:
                    if applied > self._journal_durable:
                        self._held.append((applied, replica_id, comps, now))
                        return
                self._h_commit_wait.record(0.0, now)
            for rid, result in comps:
                self._complete(replica_id, rid, result)
        elif kind == "READMISS":
            # a blocking read's guard cannot fire on the replica's local
            # state: reroute it through the total order, where it parks
            self._fallback_read(item[1])
        elif kind == "SPANS":
            tracer = self.tracer
            if tracer is not None:
                track = self._replica_track(replica_id)
                for trace_id, rid, slot, ts, dur in item[1]:
                    tracer.record_span(
                        ts,
                        track,
                        "replica",
                        "apply",
                        dur=dur,
                        trace_id=trace_id,
                        args={"slot": slot, "request_id": rid},
                    )
        elif kind == "STAGES":
            _k, queue_s, apply_s, t_emit = item
            self._h_stage_queue.record(queue_s, now)
            self._h_stage_apply.record(apply_s, now)
            # the reply stage: how long the replica's answer took to
            # reach this collector — the same hop a completion takes
            # to wake its client
            self._h_stage_reply.record(now - t_emit, now)
        elif kind == "QUERY":
            _k, qid, answering_replica, answer = item
            with self._state_lock:
                waiter = self._queries.pop((qid, answering_replica), None)
            if waiter is not None:
                event, slot = waiter
                slot.append(answer)
                event.set()

    # ------------------------------------------------------------------ #
    # in-band queries
    # ------------------------------------------------------------------ #

    def _register_query(
        self, replica_id: int
    ) -> tuple[int, threading.Event, list]:
        qid = next(self._qids)
        event = threading.Event()
        slot: list = []
        with self._state_lock:
            self._queries[(qid, replica_id)] = (event, slot)
        return qid, event, slot

    def _fail_queries(self, replica_id: int) -> None:
        """Answer every query pending on a crashed replica with a sentinel."""
        with self._state_lock:
            keys = [k for k in self._queries if k[1] == replica_id]
            victims = [self._queries.pop(k) for k in keys]
        for event, slot in victims:
            slot.append(_REPLICA_CRASHED)
            event.set()

    def query(
        self, replica_id: int, what: str, arg: Any = None, timeout: float = 30.0
    ) -> Any:
        """In-band query: answered after all previously sequenced commands.

        Fails fast on a replica that is already crashed — or that crashes
        while the query is pending (crash_replica deposits a sentinel
        answer) — instead of stalling out the full timeout; the
        registration never outlives the call, whichever way it ends.
        """
        if not self.alive[replica_id]:
            raise TimeoutError_(f"replica {replica_id} has crashed")
        qid, event, slot = self._register_query(replica_id)
        with self._seq_lock:  # serialize against broadcasts: stay in-band
            self._flush_pending_locked()
            self.transport.send(replica_id, ("QUERY", qid, what, arg))
        if not self.alive[replica_id] and not event.is_set():
            # raced crash_replica past its pending-query sweep
            with self._state_lock:
                self._queries.pop((qid, replica_id), None)
            raise TimeoutError_(f"replica {replica_id} has crashed")
        return self._await_answer(replica_id, qid, event, slot, timeout, "query")

    def _await_answer(
        self,
        replica_id: int,
        qid: int,
        event: threading.Event,
        slot: list,
        timeout: float,
        what: str,
    ) -> Any:
        """The tail of every in-band round trip, once the item is sent.

        Wait for the answer; on timeout drop the registration (it must
        never outlive the call); surface the crash sentinel as the same
        :class:`TimeoutError_` a dead replica gets up front.
        """
        if not event.wait(timeout):
            with self._state_lock:
                self._queries.pop((qid, replica_id), None)
            raise TimeoutError_(f"replica {replica_id} did not answer {what}")
        if slot[0] is _REPLICA_CRASHED:
            raise TimeoutError_(f"replica {replica_id} crashed during {what}")
        return slot[0]

    def _ask_live(
        self, what: str, arg: Any = None, timeout: float = 30.0
    ) -> Iterator[tuple[int, Any]]:
        """Query each live replica in turn; yield ``(replica, answer)``.

        A replica crashing mid-iteration is skipped, not an error — it is
        no longer part of the live set; a timeout from one that is still
        alive is a genuine stall and propagates.
        """
        for i in self.live_replicas():
            try:
                answer = self.query(i, what, arg, timeout)
            except TimeoutError_:
                if self.alive[i]:
                    raise
                continue
            yield i, answer

    # ------------------------------------------------------------------ #
    # membership: crash, failure notification, recovery
    # ------------------------------------------------------------------ #

    def live_replicas(self) -> list[int]:
        return [i for i in range(self.n_replicas) if self.alive[i]]

    def crash_replica(self, replica_id: int, *, notify: bool = True) -> None:
        """Halt one replica mid-stream; optionally deposit its failure tuple."""
        self._declare_dead(replica_id, notify=notify, cause="crash_replica")

    def _declare_dead(
        self, replica_id: int, *, notify: bool = True, cause: str = "detector"
    ) -> bool:
        """The single path out of the live set, cooperative or detected.

        Returns False when the replica was already dead (the idempotence
        that lets the detector and a concurrent ``crash_replica`` race
        safely).  Everything the paper's fail-stop conversion needs
        happens here: the alive-mask flip under the sequencer lock, the
        ordered ``HostFailed`` (one failure tuple at the same slot on
        every survivor), failing pending queries fast and rerouting
        stranded fast-path reads.
        """
        with self._seq_lock:
            # the sequencer reads the alive mask while broadcasting; flip
            # it under the same lock so a batch never ships against a
            # half-updated live set
            if not self.alive[replica_id]:
                return False
            self.alive[replica_id] = False
        self._g_live.set(len(self.live_replicas()))
        self.transport.stop_replica(replica_id)
        # anything parked on the dead replica can never be answered by it:
        # fail its pending queries fast, reroute its outstanding reads
        self._fail_queries(replica_id)
        self._reroute_reads(replica_id)
        if self.tracer is not None:
            self.tracer.record_span(
                time.monotonic(), self._replica_track(replica_id),
                "membership", "crash",
                args={"cause": cause},
            )
        emit_event(
            "replica_dead", severity="warning",
            group=self.name or "group", replica=replica_id, cause=cause,
        )
        if notify and any(self.alive):
            self.post(
                HostFailed(
                    self.next_request_id(), CLIENT_ORIGIN, replica_id,
                    shard=self.shard_info,
                )
            )
        return True

    # ------------------------------------------------------------------ #
    # failure detection + self-healing (the liveness plane)
    # ------------------------------------------------------------------ #

    def _monitor_loop(self) -> None:
        """Detect dead replicas; drive auto-recovery.  One thread, opt-in.

        Each tick pings every live replica in-band (a healthy replica's
        PONG — or any other emission — refreshes ``_last_seen``), then
        declares dead any replica that is BOTH silent past
        ``suspect_after`` AND failing the transport probe.  Silence alone
        never kills: a replica buried in a long batch answers its PING
        late but its process/thread is demonstrably alive.  The dead are
        declared through the same path as a cooperative ``crash_replica``,
        so survivors see one ordered failure tuple at one slot.
        """
        register_thread(self._role("liveness-monitor"))
        policy = self.liveness
        assert policy is not None
        while not self._monitor_stop.wait(policy.probe_interval):
            if self._stopped or self._group_error is not None:
                return
            now = time.monotonic()
            for i in range(self.n_replicas):
                if not self.alive[i]:
                    continue
                try:
                    self.transport.send(i, ("PING",))
                except Exception:  # noqa: BLE001 - a dying queue is itself a signal
                    pass
                silent = now - self._last_seen[i]
                if silent < policy.suspect_after:
                    continue
                if self.transport.probe(i):
                    continue  # suspect, but demonstrably alive: keep waiting
                self._detected_failure(i, silent)
            self._drive_recoveries(time.monotonic())

    def _detected_failure(self, replica_id: int, silent: float) -> None:
        if not self._declare_dead(replica_id, notify=True, cause="detector"):
            return  # raced a cooperative crash_replica; it owned the death
        self._c_failures.inc()
        self._h_detect.record(silent)
        emit_event(
            "failure_detected", severity="warning",
            group=self.name or "group", replica=replica_id,
            silent_s=round(silent, 4),
        )
        if self.tracer is not None:
            self.tracer.record_span(
                time.monotonic(), "monitor", "liveness", "detect",
                args={"replica": replica_id, "silent_s": round(silent, 4)},
            )
        policy = self.liveness
        if (
            policy is not None
            and policy.auto_recover
            and self.transport.supports_recovery
        ):
            self._schedule_recovery(replica_id)

    def _schedule_recovery(self, replica_id: int) -> None:
        policy = self.liveness
        assert policy is not None
        attempts = self._restarts[replica_id]
        if attempts >= policy.max_restarts:
            if self.tracer is not None:
                self.tracer.record_span(
                    time.monotonic(), "monitor", "liveness", "gave_up",
                    args={"replica": replica_id, "restarts": attempts},
                )
            emit_event(
                "recovery_gave_up", severity="error",
                group=self.name or "group", replica=replica_id,
                restarts=attempts,
            )
            return  # crash-looping: the restart budget is spent
        delay = min(
            policy.backoff_initial * (2.0 ** attempts), policy.backoff_max
        )
        self._recover_pending[replica_id] = time.monotonic() + delay

    def _drive_recoveries(self, now: float) -> None:
        for replica_id, due in list(self._recover_pending.items()):
            if self.alive[replica_id]:
                self._recover_pending.pop(replica_id, None)
                continue
            if now < due:
                continue
            self._recover_pending.pop(replica_id, None)
            self._restarts[replica_id] += 1
            t0 = time.monotonic()
            try:
                self.recover_replica(replica_id)
            except Exception:  # noqa: BLE001 - retry with more backoff
                self._schedule_recovery(replica_id)
            else:
                self._c_autorec.inc()
                emit_event(
                    "auto_recovered",
                    group=self.name or "group", replica=replica_id,
                    attempt=self._restarts[replica_id],
                    took_s=round(time.monotonic() - t0, 4),
                )
                if self.tracer is not None:
                    self.tracer.record_span(
                        t0, "monitor", "liveness", "auto_recover",
                        dur=time.monotonic() - t0,
                        args={
                            "replica": replica_id,
                            "attempt": self._restarts[replica_id],
                        },
                    )

    def inject_failure(self, host_id: int) -> None:
        """Deposit a failure tuple for a *logical* host (worker) id."""
        self.post(
            HostFailed(
                self.next_request_id(), CLIENT_ORIGIN, host_id,
                shard=self.shard_info,
            )
        )

    def recover_replica(self, replica_id: int, *, timeout: float = 30.0) -> None:
        """Restart a crashed replica and transfer state into it.

        The snapshot is captured from a live donor *at a quiet point in
        the total order* — the sequencer lock is held, so no command can
        slip between capture and readmission.  A ``HostRecovered`` command
        then deposits the recovery tuple, as on the simulated cluster.

        The snapshot travels as bounded chunks (``transfer_chunk_bytes``
        each) instead of one item, and the fetch is *resumable*: a donor
        dying mid-transfer is noticed within a probe
        interval and the remaining chunks come from the next live donor
        (donors frozen at the same slot produce identical snapshot bytes,
        so already-fetched chunks stay valid; a byte-level mismatch is
        detected by the transfer descriptor and restarts the fetch).
        Donors lost mid-transfer are declared dead only *after* the
        sequencer lock is released — _declare_dead retakes it.
        """
        if self.alive[replica_id]:
            return
        if not self.transport.supports_recovery:
            raise TimeoutError_(
                f"{type(self.transport).__name__} does not support replica restart"
            )
        dead_donors: list[int] = []
        try:
            self._recover_replica_locked(replica_id, timeout, dead_donors)
        finally:
            for d in dead_donors:
                self._declare_dead(d, notify=True, cause="transfer_donor")

    def _recover_replica_locked(
        self, replica_id: int, timeout: float, dead_donors: list[int]
    ) -> None:
        with self._seq_lock:  # freeze the order: nothing sequenced past us
            self._flush_pending_locked()
            chunks, applied = self._fetch_snapshot_chunked(timeout, dead_donors)
            self.transport.restart_replica(replica_id)
            pending = self._send_install(replica_id, chunks)
            self.alive[replica_id] = True
            # a rejoining replica starts with a clean liveness slate —
            # without this the monitor would re-suspect it instantly
            self._last_seen[replica_id] = time.monotonic()
            # broadcast the recovery tuple before anyone can observe the
            # flipped alive mask: a caller polling ``alive`` must never
            # fingerprint the group with HostRecovered applied on some
            # replicas but still un-sequenced for others (``post`` would
            # retake the sequencer lock on the unbatched path, so ship
            # directly — we already hold the order)
            rec = HostRecovered(
                self.next_request_id(), CLIENT_ORIGIN, replica_id,
                shard=self.shard_info,
            )
            if self.tracer is not None:
                rec.trace_id = self.tracer.next_trace_id()
            with self._pending_lock:
                self._sequenced += 1
            self._broadcast_batch([(rec, None)])
        self._g_live.set(len(self.live_replicas()))
        self._recover_pending.pop(replica_id, None)
        self._await_installed(pending, timeout)
        if self.tracer is not None:
            self.tracer.record_span(
                time.monotonic(),
                self._replica_track(replica_id),
                "membership",
                "recover",
                args={"applied": applied},
            )
        emit_event(
            "replica_recovered",
            group=self.name or "group", replica=replica_id, applied=applied,
        )

    # ------------------------------------------------------------------ #
    # chunked state transfer (receiver side, then donor side driver)
    # ------------------------------------------------------------------ #

    def _send_install(
        self, replica_id: int, chunks: list[bytes]
    ) -> tuple[int, int, threading.Event, list]:
        """Ship a chunked ``(snapshot, applied)`` pickle into one replica.

        The one way state enters a replica — recovery of a crashed one
        and journal replay into fresh ones alike.  Returns the pending
        answer for :meth:`_await_installed`; the two are separate so a
        caller can ship to several replicas (or release the sequencer
        lock) before waiting.
        """
        qid, event, slot = self._register_query(replica_id)
        total = len(chunks)
        for idx, chunk in enumerate(chunks):
            self.transport.send(
                replica_id, ("INSTALL_CHUNK", qid, idx, total, chunk)
            )
        self.transport.send(replica_id, ("INSTALL_DONE", qid, qid, total))
        return replica_id, qid, event, slot

    def _await_installed(
        self, pending: tuple[int, int, threading.Event, list], timeout: float
    ) -> None:
        answer = self._await_answer(*pending, timeout, "state install")
        if answer != "installed":  # ("incomplete", missing): chunks lost
            raise TimeoutError_(
                f"replica {pending[0]} rejected the transferred state: "
                f"{answer!r}"
            )

    def _xfer_query(self, donor: int, item_fn, timeout: float) -> Any:
        """One transfer round trip to *donor* while holding ``_seq_lock``.

        Waits with a short poll so a donor dying mid-transfer is noticed
        via ``transport.probe`` within ~20ms instead of stalling out the
        full timeout — crucially WITHOUT calling ``_declare_dead``, which
        retakes the sequencer lock this thread already holds (the caller
        defers the declaration until after release).  Returns the answer,
        or :data:`_DONOR_LOST`.
        """
        qid, event, slot = self._register_query(donor)
        try:
            self.transport.send(donor, item_fn(qid))
        except Exception:  # noqa: BLE001 - a dying queue is itself the signal
            with self._state_lock:
                self._queries.pop((qid, donor), None)
            return _DONOR_LOST
        deadline = time.monotonic() + timeout
        while not event.wait(0.02):
            if not self.transport.probe(donor):
                with self._state_lock:
                    self._queries.pop((qid, donor), None)
                return _DONOR_LOST
            if time.monotonic() >= deadline:
                with self._state_lock:
                    self._queries.pop((qid, donor), None)
                raise TimeoutError_(
                    f"donor {donor} did not answer state transfer"
                )
        if slot[0] is _REPLICA_CRASHED:
            return _DONOR_LOST
        return slot[0]

    def _fetch_snapshot_chunked(
        self, timeout: float, dead_donors: list[int]
    ) -> tuple[list[bytes], int]:
        """Fetch a donor snapshot as bounded chunks.  Caller holds ``_seq_lock``.

        Resumable across donor death: every live donor is frozen at the
        same slot (the lock is held, pending flushed, and XFER_BEGIN is
        in-band), so converged donors serialize to identical bytes and a
        second donor can serve the chunks the first never delivered.  The
        transfer descriptor ``(n_chunks, n_bytes, applied)`` guards the
        resumption — any mismatch restarts accumulation from chunk 0.
        Donors that die mid-transfer are appended to *dead_donors* for
        the caller to declare dead after the lock is released.
        """
        chunks: list[bytes] = []
        meta: tuple[int, int, int] | None = None
        tried: set[int] = set()
        while True:
            donor = next(
                (
                    i
                    for i in self.live_replicas()
                    if i not in tried and i not in dead_donors
                ),
                None,
            )
            if donor is None:
                raise TimeoutError_("no live replica to transfer state from")
            begin = self._xfer_query(
                donor,
                lambda qid: ("XFER_BEGIN", qid, self.transfer_chunk_bytes),
                timeout,
            )
            if begin is _DONOR_LOST:
                dead_donors.append(donor)
                continue
            _tag, xid, total, total_bytes, applied = begin
            if meta != (total, total_bytes, applied):
                chunks.clear()
                meta = (total, total_bytes, applied)
            lost = False
            while len(chunks) < total:
                idx = len(chunks)
                chunk = self._xfer_query(
                    donor, lambda qid: ("XFER_CHUNK", qid, xid, idx), timeout
                )
                if chunk is _DONOR_LOST:
                    dead_donors.append(donor)
                    lost = True
                    break
                if chunk is None:
                    # alive but forgot the transfer (restarted in between):
                    # renegotiate with the next donor, keeping what we have
                    tried.add(donor)
                    lost = True
                    break
                chunks.append(chunk)
                self._c_xfer_chunks.inc()
                emit_event(
                    "state_transfer_chunk",
                    group=self.name or "group",
                    donor=donor,
                    chunk=idx,
                    total=total,
                    bytes=len(chunk),
                )
                hook = self._xfer_chunk_hook
                if hook is not None:
                    hook(donor, idx, total)
            if lost:
                continue
            self.transport.send(donor, ("XFER_END", xid))
            return chunks, applied

    # ------------------------------------------------------------------ #
    # the durable journal (sequencer-stream WAL)
    # ------------------------------------------------------------------ #

    def _recover_from_journal(self) -> None:
        """Replay the durable journal into the (fresh) replicas.

        Runs once, at construction, before any client can submit: the
        newest readable snapshot is installed on every replica, then the
        delta records re-broadcast through the normal batch path with
        journaling suppressed (they are already on disk).  Completions
        from replayed commands find no waiter and are dropped — their
        clients died with the previous incarnation, exactly the WAL
        recovery semantics.  Request ids fast-forward past everything
        replayed so a fresh command can never collide with a memoized
        completion.
        """
        from repro.persist.segments import replay_dir

        res = replay_dir(self.durable_dir)
        if res.snapshot is None and not res.records:
            return
        t0 = time.monotonic()
        self._journal_replaying = True
        try:
            with self._seq_lock:
                if res.snapshot is not None:
                    chunks = split_state(
                        res.snapshot, res.snapshot_slot, self.transfer_chunk_bytes
                    )
                    installs = [
                        self._send_install(i, chunks)
                        for i in self.live_replicas()
                    ]
                    for pending in installs:
                        self._await_installed(pending, 30.0)
                    self._journal_slot = self._journal_durable = res.snapshot_slot
                    with self._pending_lock:
                        # replicas resume at applied == snapshot_slot, so
                        # read floors must count from there too
                        self._sequenced = res.snapshot_slot
                if res.records:
                    with self._pending_lock:
                        self._sequenced += len(res.records)
                    # already on disk: durable before the replicas answer,
                    # so the replayed completions are dropped, not parked
                    self._journal_slot = self._journal_durable = res.records[-1][0]
                    self._c_cmds.inc(len(res.records))  # they ship in a batch
                    self._broadcast_batch(
                        [(cmd, None) for _slot, cmd in res.records]
                    )
        finally:
            self._journal_replaying = False
        self._req_ids = itertools.count(res.highest_request_id() + 1)
        self.journal_replayed = len(res.records) + (
            1 if res.snapshot is not None else 0
        )
        emit_event(
            "journal_recovered",
            group=self.name or "group",
            dir=self.durable_dir,
            snapshot_slot=res.snapshot_slot,
            records=len(res.records),
            torn_records=res.torn_records,
            torn_snapshots=res.torn_snapshots,
            seconds=round(time.monotonic() - t0, 4),
        )

    def _journal_loop(self) -> None:
        """Group commit: fsync whatever the sequencer has written so far.

        ``target`` is read *before* the fsync, so the fsync covers every
        record up to it — and every batch the sequencer writes while this
        fsync runs is covered by the next one, however many there are.
        Like the sequencer's, this thread's death is fatal to the group:
        nothing could ever be acknowledged again.
        """
        from repro.persist.crashpoints import crash_here

        register_thread(self._role("journal"))
        journal = self._journal
        assert journal is not None
        try:
            while True:
                self._journal_kick.wait()
                self._journal_kick.clear()
                # read before the drain: shutdown sets it after the
                # sequencer's last flush, so that flush is covered below
                stopping = self._journal_stop
                while self._journal_durable < (target := self._journal_slot):
                    crash_here("journal_before_fsync")
                    t0 = time.monotonic()
                    journal.sync()
                    now = time.monotonic()
                    self._h_fsync.record(now - t0, now)
                    self._journal_commit(target, now)
                if stopping:
                    return
        except Exception as exc:  # noqa: BLE001 - the group must not wedge
            self._mark_failed(
                f"journal thread died: {type(exc).__name__}: {exc}"
            )
            with self._journal_cv:
                self._held.clear()  # their waiters were just failed
                self._journal_cv.notify_all()

    def _journal_commit(self, target: int, now: float) -> None:
        """Advance the durable watermark; release what it now covers.

        Released in ``applied`` order (the sort is stable, so one
        replica's frames keep their lane order too), under the lock a
        collector takes before delivering a frame directly — a later
        frame cannot overtake the release.
        """
        with self._journal_cv:
            self._journal_durable = target
            ready = [h for h in self._held if h[0] <= target]
            if ready:
                self._held = [h for h in self._held if h[0] > target]
                ready.sort(key=lambda h: h[0])
                for _applied, replica_id, comps, t_parked in ready:
                    self._h_commit_wait.record(now - t_parked, now)
                    for rid, result in comps:
                        self._complete(replica_id, rid, result)
            self._journal_cv.notify_all()

    def _journal_barrier(self, timeout: float) -> None:
        """Return once everything submitted so far is fsynced.

        "Every replica has applied it" says nothing about the disk under
        group commit, so the calls whose contract is *it happened* —
        quiesce, compaction — end here.
        """
        if self._journal_thread is None:
            return
        with self._seq_lock:
            self._flush_pending_locked()
            target = self._journal_slot
        with self._journal_cv:
            self._journal_cv.wait_for(
                lambda: self._journal_durable >= target
                or self._group_error is not None,
                timeout,
            )
            durable = self._journal_durable
        if durable < target:
            if self._group_error is not None:
                raise RuntimeFailure(self._group_error)
            raise TimeoutError_(
                f"journal fsynced to slot {durable} of {target} "
                f"within {timeout}s"
            )

    def compact_journal(self, *, timeout: float = 30.0) -> int | None:
        """Snapshot a live replica and prune the journal prefix it covers.

        The snapshot travels the in-band query lane after a pending
        flush, so it reflects exactly the journaled prefix — its
        ``applied`` count IS the covered journal slot.  The journal
        barrier keeps the snapshot from running ahead of the log it
        replaces.  The disk work (snapshot temp+rename, manifest, prune)
        runs outside the sequencer lock; pruning only ever touches closed
        segments, so it cannot race the sequencer's writes to the active
        one.
        """
        if self._journal is None:
            return None
        donor = next(iter(self.live_replicas()), None)
        if donor is None:
            raise TimeoutError_("no live replica to snapshot the journal from")
        snapshot, applied = self.query(donor, "snapshot", timeout=timeout)
        self._journal_barrier(timeout)
        self._journal.compact(applied, snapshot, group=self.name or "group")
        return applied

    def journal_status(self) -> dict[str, Any] | None:
        """Journal directory status for the ``cli wal`` subcommand."""
        if self._journal is None:
            return None
        st = self._journal.status()
        st["journal_slot"] = self._journal_slot
        st["durable_slot"] = self._journal_durable
        st["replayed"] = self.journal_replayed
        return st

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def quiesce(self, timeout: float = 30.0) -> None:
        """Return once every live replica has applied every sequenced command.

        Implemented as an in-band no-op query per replica: the answer can
        only arrive after everything ahead of it on the FIFO has applied.
        A replica crashing mid-iteration is skipped, not an error.  On a
        durable group the journal has fsynced those commands too.
        """
        for _answered in self._ask_live("applied", timeout=timeout):
            pass
        self._journal_barrier(timeout)

    def fingerprints(self) -> list[int]:
        """Stable-state fingerprints of all live replicas.

        Tolerates a replica crashing mid-iteration: its fingerprint is
        simply omitted (it is no longer part of the live set).
        """
        return [fp for _i, fp in self._ask_live("fingerprint")]

    def converged(self) -> bool:
        return len(set(self.fingerprints())) <= 1

    def space_size(self, handle: TSHandle) -> int:
        for _i, size in self._ask_live("space_size", handle):
            return size  # the first live replica to answer speaks for all
        raise TimeoutError_("all replicas have crashed")

    def metrics_snapshot(self) -> dict[str, Any]:
        # Backpressure gauges are *sampled* here, at snapshot time — the
        # hot path never touches them.  Queue sizes are approximate by
        # nature (qsize races the consumers); that is fine for a gauge.
        with self._pending_lock:
            self._g_seq_depth.set(len(self._pending))
        self._g_read_depth.set(len(self._read_pending))
        self._g_journal_lag.set(self._journal_slot - self._journal_durable)
        depth = getattr(self.transport, "depth", None)
        if depth is not None:
            self._g_apply_depth.set(
                max((depth(i) for i in self.live_replicas()), default=0)
            )
        return self.metrics.snapshot()

    # ------------------------------------------------------------------ #
    # continuous profiling
    # ------------------------------------------------------------------ #

    def start_profiling(
        self, hz: float = DEFAULT_HZ, *, local_sampler: bool = True
    ) -> None:
        """Begin sampling this group's threads (and replica processes).

        On per-process-worker transports each live replica starts its own
        sampler, driven by an in-band ``profile_start`` query; on
        in-process transports the local sampler already sees the replica
        threads.  ``local_sampler=False`` lets a :class:`ShardedGroup`
        run ONE process-wide sampler itself instead of one per shard.
        Idempotent; strictly opt-in — until called, nothing samples.
        """
        if getattr(self.transport, "per_process_workers", False):
            self._remote_profiling = True
            for _started in self._ask_live("profile_start", hz):
                pass  # a replica that crashes takes its sampler with it
        if local_sampler and self._profiler is None:
            self._profiler = SamplingProfiler(hz=hz).start()

    def stop_profiling(self) -> dict[str, int]:
        """Stop sampling; return the merged folded stacks.

        Remote stacks come back over the incarnation-fenced query lane:
        a replica killed mid-sampling simply contributes nothing (the
        query fails fast on its crash sentinel), and a reincarnated slot
        starts with a fresh sampler — stale stacks can never pollute the
        merge.  When this group is a shard, remote roles are prefixed
        with the shard name so profiles merged across shards stay
        attributable.
        """
        folded: dict[str, int] = {}
        prof = self._profiler
        self._profiler = None
        if prof is not None:
            folded = prof.stop()
        if self._remote_profiling:
            self._remote_profiling = False
            # a replica that crashed while sampling is skipped: keep the survivors
            for _i, remote in self._ask_live("profile_stop"):
                if isinstance(remote, dict) and remote:
                    if self.name:
                        remote = {
                            f"{self.name}/{stack}": n
                            for stack, n in remote.items()
                        }
                    folded = merge_folded(folded, remote)
        return folded

    def introspection_snapshot(self, backend: str = "ReplicaGroup") -> dict[str, Any]:
        """Merged live-state image: one replica's SM view + group health.

        The state-machine image (spaces, waiters, last-out ages) comes
        from the lowest-numbered live replica via the in-band query path,
        so it reflects everything sequenced before the call.  Per-replica
        applied counts give queue lag; the pending deque gives sequencer
        depth.
        """
        from repro.obs.inspect import empty_snapshot

        snap = empty_snapshot(backend)
        applied: dict[int, int | None] = {}
        for i in range(self.n_replicas):
            try:
                applied[i] = self.query(i, "applied") if self.alive[i] else None
            except TimeoutError_:
                applied[i] = None  # crashed mid-query
        live_counts = [a for a in applied.values() if a is not None]
        head = max(live_counts) if live_counts else 0
        snap["replicas"] = [
            {
                "id": i,
                "alive": self.alive[i],
                "applied": applied[i],
                "lag": head - applied[i] if applied[i] is not None else None,
            }
            for i in range(self.n_replicas)
        ]
        for _i, image in self._ask_live("introspect"):
            snap["sm"] = image
            break
        with self._pending_lock:
            snap["pending"] = len(self._pending)
        return snap

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._profiler is not None:
            # local only: the replica processes are about to be stopped,
            # and querying them for stacks during teardown could stall
            self._profiler.stop()
            self._profiler = None
        if self._monitor_thread is not None:
            self._monitor_stop.set()
            self._monitor_thread.join(timeout=5.0)
        if self._seq_thread is not None:
            self._kick.set()
            self._seq_thread.join(timeout=5.0)
        if self._read_thread is not None:
            self._read_kick.set()
            self._read_thread.join(timeout=5.0)
        if self._journal_thread is not None:
            # after the sequencer's last flush, so the last fsync covers it
            self._journal_stop = True
            self._journal_kick.set()
            self._journal_thread.join(timeout=30.0)
        self.transport.shutdown(self.alive)
        if self._journal is not None:
            self._journal.close()

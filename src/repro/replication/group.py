"""ReplicaGroup: the transport-agnostic replication core, composed.

The paper's ordered-update pipeline (Sec. 5), independent of how items
reach the replicas, is five components and one primitive, each in its own
module and each the only code that touches its locks and state:
:mod:`~repro.replication.sequencer` (the total order, batching, the read
floor, ``in_band()``), :mod:`~repro.replication.journal` (group commit and
its fence), :mod:`~repro.replication.readlane` (reads around the order),
:mod:`~repro.replication.liveness` (failure detector and supervisor),
:mod:`~repro.replication.transfer` (restart and state transfer) and
:mod:`~repro.replication.requests` (the in-band round trip).  DESIGN.md,
"Execution backends", maps who owns which lock, thread and state.  What is
left here is what they meet on:

- **parking and completion matching** — each submission waits on an
  event; every replica reports completions and the waiter map pops
  exactly once, so duplicates are free and a crashed replica can never
  strand a client on a completion it alone knew about;
- **in-band queries** — fingerprints, space sizes and snapshots travel on
  the command FIFOs, so they observe exactly the state after every
  previously sequenced command (no separate quiescing protocol);
- **crash/recovery bookkeeping** — the alive mask (flipped only under the
  order) and the ordered ``HostFailed``/``HostRecovered`` notifications;
- **the collector** — ``_on_worker_item``, where every replica emission
  lands and is handed to the component that owns it;
- **metrics** — submit→order, order→apply and end-to-end AGS latency
  histograms plus submission/batch counters, recorded in one registry so
  every backend reports identical instruments;
- **tracing** — with a :class:`~repro.obs.tracing.FlightRecorder`
  attached, every submission is minted a per-AGS trace id that rides
  inside the command through the sequencer batch, the transport (incl.
  the pickled multiproc blob) and the replica apply loops; the
  ``submit_to_order`` / ``broadcast`` / ``e2e`` spans and the per-replica
  ``apply`` spans the workers emit all land under one trace.  With no
  recorder attached (the default) every emit site is a single
  ``is not None`` check and commands carry ``trace_id=None``;
- **profiling** — this group's threads register their roles (sequencer,
  read flusher, monitor, journal, in-process replicas) for the
  :mod:`repro.obs.profile` sampler, and on per-process transports
  :meth:`ReplicaGroup.start_profiling` drives per-replica samplers
  through the in-band query lane (strictly opt-in).
"""

from __future__ import annotations

import itertools
import threading
import time
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
from repro.obs.profile import DEFAULT_HZ, merge_folded
from repro.obs.tracing import FlightRecorder
from repro.replication.journal import GroupJournal
from repro.replication.liveness import Liveness, LivenessPolicy
from repro.replication.readlane import ReadLane
from repro.replication.requests import Requests
from repro.replication.sequencer import Sequencer, Waiter
from repro.replication.transfer import StateTransfer
from repro.replication.transport import Transport

__all__ = ["LivenessPolicy", "ReplicaGroup"]

#: Origin-host id the group stamps on client commands.  Reserved: failure
#: injection uses non-negative *logical* host ids, and HostFailed drops
#: blocked statements whose origin matches — client statements must never.
CLIENT_ORIGIN = -1

#: How long a cancelled statement may take to report back before the whole
#: group is declared unresponsive.
_CANCEL_GRACE_S = 30.0


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


class ReplicaGroup:
    """Parking, membership, the collector and metrics over five components."""

    def __init__(
        self,
        transport: Transport,
        *,
        read_fastpath: bool = True,
        tracer: FlightRecorder | None = None,
        liveness: LivenessPolicy | None = None,
        shard_info: tuple[int, int] | None = None,
        durable_dir: str | None = None,
        durable_fsync: bool = True,
    ):
        self.transport = transport
        self.n_replicas = transport.n_replicas
        self.read_fastpath = read_fastpath
        #: ``(shard_index, n_shards)`` when sharded, stamped onto the
        #: HostFailed/HostRecovered commands this group sequences so each
        #: shard deposits failure/recovery tuples only into the partitions
        #: it owns (one tuple per space globally, not one per shard).
        self.shard_info = shard_info
        #: Prefixes replica trace tracks ("shard0/replica-1") so the
        #: consistency checker can partition the total-order comparison
        #: per shard — shards are independently sequenced, and comparing
        #: their slot counters across shards would report false forks.
        self.name = f"shard{shard_info[0]}" if shard_info is not None else ""
        #: The live mask.  One list for the group's whole life, shared by
        #: reference with every component; flipped only under the order.
        self.alive = [True] * self.n_replicas
        #: Every component reads time through the clock it is handed.
        self._clock = clock = time.monotonic
        self.metrics = metrics = MetricsRegistry()
        self.tracer = tracer
        self._req_ids = itertools.count(1)
        self._state_lock = threading.Lock()  # the waiter map
        self._waiters: dict[int, Waiter] = {}
        self._h_apply = metrics.histogram("order_to_apply")
        self._h_e2e = metrics.histogram("ags_e2e")
        self._c_cmds = metrics.counter("commands_submitted")
        self._g_live = metrics.gauge("live_replicas")
        self._g_live.set(self.n_replicas)
        #: Backpressure gauge — *sampled* in metrics_snapshot(), never
        #: maintained on the hot path, so it costs nothing per operation.
        self._g_apply_depth = metrics.gauge("replica_inbox_max_depth")
        #: The continuous-profiling plane (strictly opt-in): on
        #: per-process-worker transports, per-replica remote samplers driven
        #: over the in-band query lane (this process's threads are sampled
        #: by whoever owns the group — one sampler, however many shards).
        self._remote_profiling = False
        #: Set when an internal thread (sequencer, journal) died: the
        #: group can no longer order or acknowledge commands, and every
        #: call fails fast instead of hanging (read before registering,
        #: re-checked via the waiter sweep in _mark_failed).
        self._group_error: str | None = None
        self._stopped = False
        self._owner = owner = self.name or "group"  # what events call this group
        self.requests = Requests(transport, self.alive, clock)
        self.journal = GroupJournal(
            durable_dir, durable_fsync, metrics, clock, self._complete,
            role=self._role("journal"), owner=owner, on_fatal=self._mark_failed,
        )
        self.seq = Sequencer(
            transport, self.alive, metrics, clock,
            journal=self.journal if self.journal.durable else None,
            tracer=tracer,
            role=self._role("sequencer"), on_fatal=self._mark_failed,
        )
        # parked= is a single dict.get: the lane asks whether a read's
        # client still waits, and the map is only ever mutated in place
        self.reads = ReadLane(
            transport, self.alive, self.seq, metrics, clock,
            parked=self._waiters.get, unpark=self._unpark,
            role=self._role("read-flusher"),
        )
        self.transfer = StateTransfer(
            transport, self.alive, self.seq, self.requests,
            self._readmit, self._declare_dead, metrics, owner=owner,
        )
        self.liveness: Liveness | None = None
        if liveness is not None:
            self.liveness = Liveness(
                liveness, transport, self.alive,
                self._declare_dead, self.recover_replica, metrics, clock,
                tracer=tracer, role=self._role("liveness-monitor"), owner=owner,
            )
        else:
            Liveness.instruments(metrics)  # the same names, reading zero
        #: The journal's fence, when there is one: every COMPS frame is
        #: shown to it before it is delivered.
        self._admit = self.journal.admit if self.journal.fenced else None
        self.journal.start()
        transport.start(self._on_worker_item)
        self.seq.start()
        if read_fastpath:
            self.reads.start()
        if self.liveness is not None:
            self.liveness.start()
        if self.journal.durable:
            with self.seq.in_band() as order:
                res = self.journal.replay(
                    self.transfer.install_everywhere,
                    lambda cmds: order.broadcast([(c, None) for c in cmds]),
                )
            self._c_cmds.inc(len(res.records))  # they shipped in a batch
            # fast-forward past everything replayed, so a fresh command
            # can never collide with a memoized completion
            self._req_ids = itertools.count(res.highest_request_id() + 1)
        self.journal_replayed = self.journal.replayed

    # ------------------------------------------------------------------ #
    # submission, parking, completion
    # ------------------------------------------------------------------ #

    def next_request_id(self) -> int:
        return next(self._req_ids)

    def _role(self, base: str) -> str:
        """A thread's profiler role (a replica's trace track), shard-qualified."""
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
        instead of being sequenced (see :mod:`~repro.replication.
        readlane`), falling back to the ordered path when the guard
        cannot fire locally or the chosen replica crashes.

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
        w = Waiter(self._clock())
        tracer = self.tracer
        if tracer is not None:
            cmd.trace_id = w.trace_id = tracer.next_trace_id()
            w.track = f"client:{threading.current_thread().name}"
        with self._state_lock:
            self._waiters[cmd.request_id] = w
        if self._group_error is not None:
            # registered-then-checked: whichever side _mark_failed's sweep
            # lands on, this waiter is popped and the call raises
            self._unpark(cmd.request_id)
            raise RuntimeFailure(self._group_error)
        self._c_cmds.inc(1, w.t_submit)
        if (
            self.read_fastpath
            and isinstance(cmd, ExecuteAGS)
            and cmd.ags.read_only
            and self.reads.send(cmd, w)
        ):
            if self.reads.wait(cmd.request_id, w, timeout):
                return _resolve(w.slot[0])
            # fell back and is parked in the order: withdraw it through it
            return self._finish_ordered_timeout(cmd, w, timeout)
        self.seq.ship(cmd, w)
        if w.event.wait(timeout):
            return _resolve(w.slot[0])
        return self._finish_ordered_timeout(cmd, w, timeout)

    def _unpark(self, request_id: int) -> None:
        """Drop a waiter nobody will wake (its call is about to raise)."""
        with self._state_lock:
            self._waiters.pop(request_id, None)

    def _finish_ordered_timeout(
        self, cmd: Command, w: Waiter, timeout: float | None
    ) -> Any:
        """The ordered cancel dance after a parked call's guard timeout."""
        self.post(CancelRequest(self.next_request_id(), CLIENT_ORIGIN, cmd.request_id))
        if not w.event.wait(_CANCEL_GRACE_S):
            self._unpark(cmd.request_id)
            # neither the completion nor the cancel reported back: the
            # command may yet apply, and only the request-id memo makes a
            # resubmission safe
            raise TimeoutError_("replica group unresponsive", outcome="unknown")
        result = w.slot[0]
        if isinstance(result, AGSResult) and result.error == "cancelled":
            raise TimeoutError_(
                f"guard not satisfied within {timeout}s", outcome="cancelled"
            )
        return _resolve(result)

    def post(self, cmd: Command) -> None:
        """Sequence *cmd* without waiting for any completion."""
        if self._group_error is not None:
            raise RuntimeFailure(self._group_error)
        tracer = self.tracer
        if tracer is not None:
            cmd.trace_id = tracer.next_trace_id()
        self._c_cmds.inc()
        self.seq.ship(cmd, None)

    def _mark_failed(self, reason: str) -> None:
        """The group can no longer order commands: fail everything, fast.

        Every parked waiter wakes with a :class:`RuntimeFailure` (a fresh
        instance each, so tracebacks don't cross threads), every pending
        request gets the crashed sentinel, and subsequent calls/posts raise
        at entry via ``_group_error``.
        """
        self._group_error = reason
        emit_event(
            "group_failed", severity="critical",
            group=self._owner, reason=reason,
        )
        with self._state_lock:
            waiters = list(self._waiters.values())
            self._waiters.clear()
        self.requests.fail()
        self.reads.clear()
        if self.liveness is not None:
            self.liveness.stop()
        for w in waiters:
            w.slot.append(RuntimeFailure(reason))
            w.event.set()
        if self.tracer is not None:
            self.tracer.record_span(
                self._clock(), "sequencer", "group", "group_failed",
                args={"reason": reason, "waiters_failed": len(waiters)},
            )

    # ------------------------------------------------------------------ #
    # worker emissions (the collector)
    # ------------------------------------------------------------------ #

    def _complete(self, replica_id: int, rid: int, result: Any) -> None:
        """Deliver one completion: pop-as-claim, record latencies, wake."""
        with self._state_lock:
            w = self._waiters.pop(rid, None)
        if w is not None:
            now = self._clock()
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
        now = self._clock()
        if self.liveness is not None:
            # any emission proves the apply loop is running: completions
            # (and everything else on the feedback lane) double as heartbeats
            self.liveness.heard(replica_id, now)
        kind = item[0]
        if kind == "COMPS":
            # one applied BATCH's, or one READS batch's, worth of answers
            _k, comps, applied = item
            admit = self._admit
            if admit is not None and not admit(applied, replica_id, comps, now):
                return  # ahead of the disk: the journal releases it
            for rid, result in comps:
                self._complete(replica_id, rid, result)
        elif kind == "READMISS":
            self.reads.miss(item[1])
        elif kind == "SPANS":
            tracer = self.tracer
            if tracer is not None:
                track = self._role(f"replica-{replica_id}")
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
            self.seq.staged(item, now)
        elif kind == "QUERY":
            self.requests.answer(item[1], item[2], item[3])

    # ------------------------------------------------------------------ #
    # in-band queries
    # ------------------------------------------------------------------ #

    def query(
        self, replica_id: int, what: str, arg: Any = None, timeout: float = 30.0
    ) -> Any:
        """In-band query: answered after all previously sequenced commands.

        Fails fast on a replica that is already crashed — or that crashes
        while the query is pending (its death answers with a sentinel) —
        instead of stalling out the full timeout; the registration never
        outlives the call, whichever way it ends.
        """

        def in_band(replica: int, item: tuple) -> None:
            with self.seq.in_band() as order:  # behind everything pending
                order.send(replica, item)

        return self.requests.ask(replica_id, what, arg, timeout=timeout, send=in_band)

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
        self._declare_dead(replica_id, "crash_replica", notify=notify)

    def _declare_dead(
        self, replica_id: int, cause: str, *, notify: bool = True
    ) -> bool:
        """The single path out of the live set, cooperative or detected.

        Returns False when the replica was already dead (the idempotence
        that lets the detector and a concurrent ``crash_replica`` race
        safely).  Everything the paper's fail-stop conversion needs
        happens here: the alive-mask flip under the order, the ordered
        ``HostFailed`` (one failure tuple at the same slot on every
        survivor), failing pending requests fast and rerouting stranded
        fast-path reads.
        """
        with self.seq.in_band():
            # the sequencer reads the alive mask while broadcasting; flip
            # it under the order so a batch never ships against a
            # half-updated live set
            if not self.alive[replica_id]:
                return False
            self.alive[replica_id] = False
        self._g_live.set(len(self.live_replicas()))
        self.transport.stop_replica(replica_id)
        # anything parked on the dead replica can never be answered by it:
        # fail its pending requests fast, reroute its outstanding reads
        self.requests.fail(replica_id)
        self.reads.reroute(replica_id)
        if self.tracer is not None:
            self.tracer.record_span(
                self._clock(), self._role(f"replica-{replica_id}"),
                "membership", "crash",
                args={"cause": cause},
            )
        emit_event(
            "replica_dead", severity="warning",
            group=self._owner, replica=replica_id, cause=cause,
        )
        if notify and any(self.alive):
            self.inject_failure(replica_id)
        return True

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
        the total order* (:mod:`~repro.replication.transfer`); a
        ``HostRecovered`` command then deposits the recovery tuple, as on
        the simulated cluster.
        """
        if self.alive[replica_id]:
            return
        applied = self.transfer.recover(replica_id, timeout)
        if self.tracer is not None:
            self.tracer.record_span(
                self._clock(), self._role(f"replica-{replica_id}"),
                "membership", "recover",
                args={"applied": applied},
            )
        emit_event(
            "replica_recovered",
            group=self._owner, replica=replica_id, applied=applied,
        )

    def _readmit(self, replica_id: int, order: Any) -> None:
        """The group's half of a recovery, under the held *order*."""
        self.alive[replica_id] = True
        self._g_live.set(len(self.live_replicas()))
        if self.liveness is not None:
            self.liveness.rejoined(replica_id, self._clock())
        # broadcast the recovery tuple before anyone can observe the
        # flipped alive mask: a caller polling ``alive`` must never
        # fingerprint the group with HostRecovered applied on some
        # replicas but still un-sequenced for others (``post`` would
        # retake the order on the unbatched path, so ship directly — we
        # already hold it)
        rec = HostRecovered(
            self.next_request_id(), CLIENT_ORIGIN, replica_id,
            shard=self.shard_info,
        )
        if self.tracer is not None:
            rec.trace_id = self.tracer.next_trace_id()
        order.broadcast([(rec, None)])

    # ------------------------------------------------------------------ #
    # the durable journal
    # ------------------------------------------------------------------ #

    def compact_journal(self, *, timeout: float = 30.0) -> int | None:
        """Snapshot a live replica and prune the journal prefix it covers.

        The snapshot travels the in-band query lane after a pending
        flush, so it reflects exactly the journaled prefix — its
        ``applied`` count IS the covered journal slot.  The journal
        barrier keeps the snapshot from running ahead of the log it
        replaces.
        """
        if not self.journal.durable:
            return None
        donor = next(iter(self.live_replicas()), None)
        if donor is None:
            raise TimeoutError_("no live replica to snapshot the journal from")
        snapshot, applied = self.query(donor, "snapshot", timeout=timeout)
        self.journal.barrier(self.seq.in_band, timeout)
        self.journal.compact(applied, snapshot)
        return applied

    def journal_status(self) -> dict[str, Any] | None:
        """Journal directory status for the ``cli wal`` subcommand."""
        return self.journal.status()

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
        self.journal.barrier(self.seq.in_band, timeout)

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
        self.seq.depth()  # leaves it in the sequencer's gauge
        self.reads.sample()
        self.journal.sample()
        self._g_apply_depth.set(
            max((self.transport.depth(i) for i in self.live_replicas()), default=0)
        )
        return self.metrics.snapshot()

    # ------------------------------------------------------------------ #
    # continuous profiling
    # ------------------------------------------------------------------ #

    def start_profiling(self, hz: float = DEFAULT_HZ) -> None:
        """Begin sampling this group's replica processes.

        On per-process-worker transports each live replica starts its own
        sampler, driven by an in-band ``profile_start`` query; on
        in-process transports the runtime's ONE process-wide
        sampler already sees the replica threads, as it does this group's
        registered threads.  Strictly opt-in — until called, nothing samples.
        """
        if self.transport.per_process_workers:
            self._remote_profiling = True
            for _started in self._ask_live("profile_start", hz):
                pass  # a replica that crashes takes its sampler with it

    def stop_profiling(self) -> dict[str, int]:
        """Stop sampling; return the replicas' merged folded stacks.

        Remote stacks come back over the incarnation-fenced query lane:
        a replica killed mid-sampling simply contributes nothing (the
        query fails fast on its crash sentinel), and a reincarnated slot
        starts with a fresh sampler — stale stacks can never pollute the
        merge.  When this group is a shard, remote roles are prefixed
        with the shard name so profiles merged across shards stay
        attributable.
        """
        folded: dict[str, int] = {}
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
        applied counts give queue lag; the pending queue gives sequencer
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
        snap["pending"] = self.seq.depth()
        return snap

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self.liveness is not None:
            self.liveness.close()
        self.seq.close()
        self.reads.close()
        # after the sequencer's last flush, so the last fsync covers it
        self.journal.stop()
        self.transport.shutdown(self.alive)
        self.journal.close()

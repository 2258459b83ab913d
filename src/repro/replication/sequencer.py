"""Sequencer: the total order, and the batches that carry it.

Acquiring the sequencer lock *is* the atomic multicast's total order
(Sec. 5).  Submitters only append to a pending queue; a dedicated
sequencer thread drains the whole queue under the lock and ships it as
ONE ordered batch.  While the sequencer is marshalling and broadcasting
a batch, clients keep piling onto the queue — so load makes batches
bigger exactly when amortizing pickling and queue wakeups matters most.

Everything else that must be *placed* in the order — an in-band query, a
recovery's snapshot and readmission, a change to the live mask, a
journal barrier — goes through :meth:`Sequencer.in_band`, the only
flush-then-send: it takes the order, ships whatever is pending, and
hands the caller the order to send or broadcast under.  So "sequenced
after everything submitted before me" holds for all of them.

With a journal attached every batch is written to it under the order
and before the broadcast, so journal order is exactly the total order.

Stage attribution is always on and sampled: one batch in
:data:`repro.obs.stages.STAGE_SAMPLE_EVERY` carries a broadcast stamp
and replicas answer it with a STAGES emission, decomposing the e2e
latency into broadcast / inbox / apply / reply histograms
(``linda_stage_*``).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro import sync
from repro.core.statemachine import Command
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.profile import Daemon
from repro.obs.stages import STAGE_SAMPLE_EVERY
from repro.obs.tracing import FlightRecorder
from repro.replication.transport import Transport

__all__ = ["Sequencer", "Waiter"]


class Waiter:
    """One parked client submission and its latency timestamps."""

    __slots__ = (
        "latch", "slot", "t_submit", "t_ordered", "trace_id", "track", "fellback",
    )

    def __init__(self, t_submit: float):
        self.latch = sync.Latch()
        self.slot: list[Any] = []
        self.t_submit = t_submit
        self.t_ordered: float | None = None
        self.trace_id: int | None = None
        self.track = ""
        #: The read lane's, allocated when it takes the read.
        self.fellback: sync.Latch | None = None


#: One submission: the command and its parked client (``None`` for a post).
Entry = tuple[Command, "Waiter | None"]


class Sequencer:
    """Owns the order lock, the pending queue, the read floor and the thread.

    *alive* is the group's live mask (read here while broadcasting,
    flipped by the group inside :meth:`in_band`); *journal*, when given,
    is written under the order; *on_fatal* is told why when the
    sequencer thread dies — nothing can be ordered any more.  The thread
    is :attr:`thread`, a kicked :class:`~repro.obs.profile.Daemon` whose
    step is :meth:`_drain`: its last step, after a stop, flushes what is
    still pending.
    """

    def __init__(
        self,
        transport: Transport,
        alive: list[bool],
        metrics: MetricsRegistry,
        *,
        journal: Any = None,
        tracer: FlightRecorder | None = None,
        role: str = "sequencer",
        on_fatal: Callable[[str], None] | None = None,
    ):
        self._transport = transport
        self._alive = alive
        self._metrics = metrics
        self._journal = journal
        self._tracer = tracer
        self._seq_lock = sync.Lock()  # holding this IS the total order
        self._pending: deque[Entry] = deque()
        self._pending_lock = sync.Lock()
        #: Count of commands sequenced so far — the session floor for
        #: reads.  Incremented (under _pending_lock) *before* a batch is
        #: broadcast, so by the time any completion reaches a client the
        #: counter already covers the completed command's slot.
        self._sequenced = 0
        #: Picks the batches sampled for stage attribution; only ever
        #: touched under _seq_lock, like everything else in _broadcast_batch.
        self._batches_shipped = 0
        self._h_submit = metrics.histogram("submit_to_order")
        self._h_batch = metrics.histogram("batch_size", lo=1.0, n_buckets=12)
        self._c_batches = metrics.counter("batches_shipped")
        #: Looked up on the first batch a wire measures: no wire, no counter.
        self._c_bytes: Counter | None = None
        self._h_stage_bcast = metrics.histogram("stage_broadcast")
        self._h_stage_queue = metrics.histogram("stage_replica_queue")
        self._h_stage_apply = metrics.histogram("stage_apply")
        self._h_stage_reply = metrics.histogram("stage_reply")
        #: Backpressure gauge — *sampled* by depth(), never maintained
        #: on the hot path, so it costs nothing per operation.
        self._g_depth = metrics.gauge("sequencer_inbox_depth")
        self.thread = Daemon(role, self._drain, on_fatal=on_fatal)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def ship(self, cmd: Command, w: Waiter | None) -> None:
        """Hand *cmd* (and its parked client, if any) to the order."""
        with self._pending_lock:
            self._pending.append((cmd, w))
        self.thread.kick()

    def floor(self) -> int:
        """The highest slot sequenced so far (a read's session floor)."""
        with self._pending_lock:
            return self._sequenced

    def depth(self) -> int:
        """Commands pending, which the sampled gauge is left reading too."""
        with self._pending_lock:
            depth = len(self._pending)
        self._g_depth.set(depth)
        return depth

    # ------------------------------------------------------------------ #
    # the order
    # ------------------------------------------------------------------ #

    @contextmanager
    def in_band(self) -> Iterator["Sequencer"]:
        """Take the order, flush what is pending, yield the order.

        Inside the block :meth:`send` and :meth:`broadcast` place items
        behind everything submitted so far and ahead of everything
        submitted later; nothing else is sequenced until it exits.
        """
        with self._seq_lock:
            self._flush_pending()
            yield self

    def send(self, replica: int, item: tuple) -> None:
        """One item on one replica's FIFO.  Caller holds the order."""
        self._transport.send(replica, item)

    def broadcast(self, batch: list[Entry]) -> None:
        """Sequence *batch* next.  Caller holds the order."""
        with self._pending_lock:
            self._sequenced += len(batch)  # before the broadcast: see _flush_pending
        self._broadcast_batch(batch)

    def resume_at(self, slot: int) -> None:
        """Count slots from *slot*: the replicas were installed there.
        Caller holds the order (journal replay, before any client)."""
        with self._pending_lock:
            self._sequenced = slot

    def _flush_pending(self) -> bool:
        """Ship everything pending as one batch.  Caller holds the order.

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

    def _drain(self) -> None:
        """Ship the pending queue as ordered batches until it is empty.

        A dedicated thread rather than drain-on-submit: while it is
        marshalling one batch, every concurrently submitting client simply
        appends — so the next batch is as large as the current one was
        slow, and per-command marshalling cost amortizes under load.

        An unexpected exception here is fatal to the whole group — nothing
        can be ordered any more — so the group is told, and wakes every
        parked client with :class:`RuntimeFailure` instead of leaving
        them to hang forever against a dead bus.
        """
        while True:
            with self._seq_lock:
                if not self._flush_pending():
                    return

    def _broadcast_batch(self, batch: list[Entry]) -> None:
        # Durable mode: write the ordered stream to the journal BEFORE it
        # reaches any replica — written and flushed to the OS, not yet
        # forced to disk: that is the journal thread's job, and the
        # broadcast does not wait for it.  This only ever runs under the
        # order, so journal order is exactly the total order.
        if self._journal is not None:
            self._journal.write(batch)
        now = sync.now()
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
        t_send = sync.now() if sampled else None
        info = self._transport.broadcast(("BATCH", cmds, t_send), self._alive)
        if isinstance(info, int):
            # the marshalled size, from a transport that has one: over
            # commands_submitted it is wire bytes per command
            if self._c_bytes is None:
                self._c_bytes = self._metrics.counter("broadcast_bytes")
            self._c_bytes.inc(info, now)
        if t_send is not None:
            t_sent = sync.now()
            self._h_stage_bcast.record(t_sent - t_send, t_sent)
        tracer = self._tracer
        if tracer is not None:
            self._trace_batch(tracer, batch, now, info)

    def _trace_batch(
        self,
        tracer: FlightRecorder,
        batch: list[Entry],
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
            dur=sync.now() - t_ordered,
            args=args,
        )

    def staged(self, item: tuple, now: float) -> None:
        """A replica's STAGES answer to a stamped batch, received at *now*."""
        _k, queue_s, apply_s, t_emit = item
        self._h_stage_queue.record(queue_s, now)
        self._h_stage_apply.record(apply_s, now)
        # the reply stage: how long the replica's answer took to reach
        # the collector — the same hop a completion takes to wake its client
        self._h_stage_reply.record(now - t_emit, now)

"""GroupJournal: the sequencer's ordered stream on disk, group-committed.

With ``durable_dir=`` the sequencer *writes* each batch to a segmented
WAL (:mod:`repro.persist.segments`) under the order and broadcasts at
once; a journal thread fsyncs beside it, one fsync covering every batch
written while the previous one ran.  Journal slot k is the k-th
sequenced command — the same coordinate as a replica's applied count,
which is what lets compaction use a replica snapshot's ``applied`` as
the covered-slot watermark, lets a full-group restart replay the stream
and recover every replica to the last fsynced slot, and lets a
``COMPS`` frame's ``applied`` say how far the disk must have got before
it may be delivered.

A record is one batch, at its last slot, in the pipe's PLANNED frame
(:func:`~repro.replication.worker.compact_batch`).  Its plan ids are the
journal's own — the pipe's table is emptied when a replica restarts —
and every snapshot the journal writes carries that table, because a
compaction may prune the record that defined a plan a later one uses.

The fence is **no acknowledgement before fsync**: replicas may apply
ahead of the disk, but every ``COMPS`` frame carries the replica's applied
count and passes :meth:`GroupJournal.admit` only once the journal is
fsynced that far, so nothing a client has observed can be lost to a
crash.  What waits for the disk is the completion, never the command.

One class, four shapes: no directory (a volatile group: nothing written,
the instruments read zero), fsync off (written, never forced: no thread,
the two slots move as one, nothing is ever parked), fsync on (the thread
and the fence), and the single-host runtime's
(:class:`~repro.persist.runtime.SegmentedWALRuntime`): one command a
record, fsynced by :meth:`GroupJournal.sync` on the submitting thread
before the command applies — no thread, and nothing to fence.
"""

from __future__ import annotations

from typing import Any, Callable, ContextManager

from repro import sync
from repro._errors import RuntimeFailure, TimeoutError_
from repro.core.statemachine import Command
from repro.obs.events import emit as emit_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Daemon
from repro.replication.worker import compact_batch, expand_batch

__all__ = ["GroupJournal", "replay_commands"]

PLANS = "plans"  # a journal snapshot's plan table, beside the machine image


def replay_commands(res: Any) -> list[tuple[int, Any]]:
    """The ``(slot, command)`` pairs a :func:`~repro.persist.segments.
    replay_dir` result holds past its snapshot, in order.

    A :class:`Command` payload is one command by value, as journals were
    written before they held batches.  Any other is a batch frame,
    expanded against the snapshot's plan table (taken out of
    ``res.snapshot``) and the definitions of every record before it; its
    commands at or below the snapshot slot are skipped one at a time, so
    a record straddling that slot yields exactly its tail.
    """
    plans = {} if res.snapshot is None else res.snapshot.pop(PLANS, {})
    out: list[tuple[int, Any]] = []
    for last, payload in res.records:
        if isinstance(payload, Command):
            out.append((last, payload))
            continue
        if payload[0] == "PLANNED":
            payload = expand_batch(payload, plans)
        first = last - len(payload[1]) + 1
        out.extend(
            (slot, cmd) for slot, cmd in enumerate(payload[1], first)
            if slot > res.snapshot_slot
        )
    return out


class GroupJournal:
    """Owns the log, the journal thread, both slot counters and what is held.

    *complete* is the group's delivery of one completion, which a parked
    frame is released through (None for an owner that never calls
    :meth:`admit`); *on_fatal* is told why when the journal thread dies —
    nothing could ever be acknowledged again.  The thread, when this
    journal fsyncs, is :attr:`thread`, a kicked
    :class:`~repro.obs.profile.Daemon`; otherwise :attr:`thread` is None.
    """

    def __init__(
        self,
        dir: str | None,
        fsync: bool,
        metrics: MetricsRegistry,
        complete: Callable[[int, int, Any], None] | None,
        *,
        role: str = "journal",
        owner: str = "group",
        on_fatal: Callable[[str], None] | None = None,
        segment_bytes: int = 1 << 20,
    ):
        self.dir = dir
        self._complete = complete
        self._owner = owner
        self._on_fatal = on_fatal
        #: Slots written (by the sequencer, under the order) and slots
        #: fsynced (by the journal thread).  With fsync off the two move
        #: as one.
        self._slot = 0
        self._durable = 0
        self._replaying = False
        #: The records' plan table: skeleton key -> id for compact_batch,
        #: id -> skeleton for snapshots.  Only write() adds to it; it starts
        #: empty on a reopen too, since replay reads a plan's new
        #: definition after every older record.
        self._announced: dict[Any, int] = {}
        self._plans: dict[int, Any] = {}
        #: Commands and snapshots fed back into the replicas at construction.
        self.replayed = 0
        #: Guards _durable and _held; barriers sleep on it.
        self._journal_cv = sync.Cond(None)
        #: COMPS frames that ran ahead of the disk, in arrival order:
        #: (applied, replica_id, comps, t_parked).
        self._held: list[tuple[int, int, list, float]] = []
        self._failed: str | None = None
        self._h_fsync = metrics.histogram("journal_fsync")
        self._h_commit_wait = metrics.histogram("journal_commit_wait")
        self._g_lag = metrics.gauge("journal_lag")
        self.log = None
        if dir is not None:
            from repro.persist.segments import SegmentedLog

            self.log = SegmentedLog(dir, fsync=fsync, segment_bytes=segment_bytes)
        #: True when there is a log: the sequencer must :meth:`write`.
        self.durable = dir is not None
        #: True when completions must pass :meth:`admit` (fsync on).
        self.fenced = self.durable and fsync
        self.thread = Daemon(role, self._drain, on_fatal=self._died) if self.fenced else None

    # ------------------------------------------------------------------ #
    # the sequencer's side: write under the order
    # ------------------------------------------------------------------ #

    def write(self, batch: list[tuple[Any, Any]]) -> None:
        """Append *batch* as one record at its last slot.  Caller holds the
        order (a single host's is its runtime lock), and broadcasts or
        applies only afterwards — written and flushed to the OS here,
        forced to disk by :meth:`sync`."""
        if self._replaying:
            return  # a replayed record is already on disk
        frame = compact_batch(
            ("BATCH", [cmd for cmd, _w in batch], None), self._announced
        )
        if frame[0] == "PLANNED":
            self._plans.update(frame[1])
        last = self._slot + len(batch)
        self.log.write_many(((last, frame),))
        self._slot = last
        if self.fenced:
            self.thread.kick()
        else:
            self._durable = self._slot

    def replay(self, install: Callable[[Any, int], None], feed: Callable[[list], None]) -> Any:
        """Feed what the directory holds back into its fresh owner.

        Runs once, at construction, before any client can submit: the
        newest readable snapshot goes to *install* with its slot, then the
        delta's commands to *feed*, in order, with journaling suppressed
        (they are already on disk — so the completions they produce find
        no waiter and are dropped, not parked: their clients died with the
        previous incarnation, exactly the WAL recovery semantics).
        Returns the :class:`~repro.persist.segments.ReplayResult`, its
        ``records`` those of :func:`replay_commands`.
        """
        from repro.persist.segments import replay_dir

        t0 = sync.now()
        res = replay_dir(self.dir)
        res.records = replay_commands(res)
        self._replaying = True
        try:
            if res.snapshot is not None:
                install(res.snapshot, res.snapshot_slot)
                self._slot = self._durable = res.snapshot_slot
            if res.records:
                self._slot = self._durable = res.records[-1][0]
                feed([cmd for _slot, cmd in res.records])
        finally:
            self._replaying = False
        self.replayed = len(res.records) + (1 if res.snapshot is not None else 0)
        torn = res.torn_records or res.torn_snapshots
        if self.replayed or torn:
            emit_event(
                "journal_recovered",
                severity="warning" if torn else "info",
                group=self._owner,
                dir=self.dir,
                snapshot_slot=res.snapshot_slot,
                records=len(res.records),
                torn_records=res.torn_records,
                torn_bytes=res.torn_bytes,
                torn_snapshots=res.torn_snapshots,
                seconds=round(sync.now() - t0, 4),
            )
        return res

    # ------------------------------------------------------------------ #
    # the journal thread: fsync, then release
    # ------------------------------------------------------------------ #

    def _drain(self) -> None:
        """Group commit: fsync whatever the sequencer has written so far,
        back to back while anything is un-synced.  The thread's last step
        runs after its stop, which the group asks for after the
        sequencer's last flush, so that flush is covered."""
        while self._durable < self._slot:
            self.sync()

    def _died(self, reason: str) -> None:
        """Like the sequencer's, this thread's death is fatal to the group."""
        if self._on_fatal is not None:
            self._on_fatal(reason)
        with self._journal_cv:
            self._failed = reason
            self._held.clear()  # their waiters were just failed
            self._journal_cv.notify_all()

    def sync(self) -> None:
        """One group commit: fsync, then release what that covers.

        ``target`` is read *before* the fsync, so the fsync covers every
        record up to it — and every batch the sequencer writes while this
        fsync runs is covered by the next one, however many there are.
        """
        from repro.persist.crashpoints import crash_here

        target = self._slot
        if target <= self._durable:
            return  # nothing written since the last one: a replayed command
        crash_here("journal_before_fsync")
        t0 = sync.now()
        self.log.sync()
        now = sync.now()
        self._h_fsync.record(now - t0, now)
        self._commit(target, now)

    def _commit(self, target: int, now: float) -> None:
        """Advance the durable watermark; release what it now covers.

        Released in ``applied`` order (the sort is stable, so one
        replica's frames keep their lane order too), under the lock
        :meth:`admit` takes before letting a frame through — a later
        frame cannot overtake the release.
        """
        with self._journal_cv:
            self._durable = target
            ready = [h for h in self._held if h[0] <= target]
            if ready:
                self._held = [h for h in self._held if h[0] > target]
                ready.sort(key=lambda h: h[0])
                for _applied, replica_id, comps, t_parked in ready:
                    self._h_commit_wait.record(now - t_parked, now)
                    for rid, result in comps:
                        self._complete(replica_id, rid, result)
            self._journal_cv.notify_all()

    # ------------------------------------------------------------------ #
    # the collector's side: the fence
    # ------------------------------------------------------------------ #

    def admit(self, applied: int, replica_id: int, comps: list, now: float) -> bool:
        """May this COMPS frame be delivered now?  False: it was parked.

        ``applied`` is the newest slot these answers can reveal — the
        batch that *produced* them, which for a woken ``in`` or a
        fast-path ``rd`` is later than the statement's own slot — so they
        wait until the journal is durable that far.  Taking the lock even
        when nothing parks keeps this frame behind any release the
        journal thread is in the middle of.
        """
        with self._journal_cv:
            if applied > self._durable:
                self._held.append((applied, replica_id, comps, now))
                return False
        self._h_commit_wait.record(0.0, now)
        return True

    def barrier(
        self, in_band: Callable[[], ContextManager[Any]], timeout: float
    ) -> None:
        """Return once everything submitted so far is fsynced.

        "Every replica has applied it" says nothing about the disk under
        group commit, so the calls whose contract is *it happened* —
        quiesce, compaction — end here.
        """
        if not self.fenced:
            return
        with in_band():  # what is pending is written before the slot is read
            target = self._slot
        with self._journal_cv:
            self._journal_cv.wait_for(
                lambda: self._durable >= target or self._failed is not None,
                timeout,
            )
            durable = self._durable
        if durable < target:
            if self._failed is not None:
                raise RuntimeFailure(self._failed)
            raise TimeoutError_(
                f"journal fsynced to slot {durable} of {target} "
                f"within {timeout}s"
            )

    # ------------------------------------------------------------------ #
    # compaction, status, lifecycle
    # ------------------------------------------------------------------ #

    def compact(self, applied: int, snapshot: dict[str, Any]) -> None:
        """Write *snapshot* and the plan table as covering slots up to
        *applied*; prune them.

        The disk work (snapshot temp+rename, manifest, prune) runs outside
        the order; pruning only ever touches closed segments, so it cannot
        race the sequencer's writes to the active one.  The table, copied
        in one C call while the sequencer may add to it, already holds
        every plan of the records up to *applied*: a replica applied them.
        """
        snapshot = {**snapshot, PLANS: dict(self._plans)}
        self.log.compact(applied, snapshot, group=self._owner)

    def status(self) -> dict[str, Any] | None:
        """Journal directory status for the ``cli wal`` subcommand."""
        if self.log is None:
            return None
        st = self.log.status()
        st["journal_slot"] = self._slot
        st["durable_slot"] = self._durable
        st["replayed"] = self.replayed
        return st

    def sample(self) -> None:
        self._g_lag.set(self._slot - self._durable)

    def close(self) -> None:
        if self.log is not None:
            self.log.close()

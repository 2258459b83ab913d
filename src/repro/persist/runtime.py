"""SegmentedWALRuntime: a LocalRuntime over the replica groups' journal —
the same records (here a batch of one), the same replay, the same
compaction, on the :mod:`repro.persist.segments` layout."""

from __future__ import annotations

import itertools
from typing import Any

from repro.core.runtime import LocalRuntime
from repro.core.statemachine import Command, Completion, TSStateMachine
from repro.replication.journal import GroupJournal

__all__ = ["SegmentedWALRuntime"]


class SegmentedWALRuntime(LocalRuntime):
    """A LocalRuntime whose command stream is journaled before it executes.

    The total order on a single host is the submission order under the
    runtime lock; every command — probes, statements that end up parked
    and the cancellation of a timed-out one included, so replay is
    literally identical — is written before it applies.  Because the state
    machine is deterministic, recovery is re-execution: the same argument
    that makes replica state transfer sound makes log replay sound.

    **Construction is recovery.**  The constructor replays whatever the
    directory holds — the newest readable snapshot plus the delta records
    after it; an empty or absent directory is a fresh start — and then
    journals from the recovered slot.  Replay costs one snapshot load plus
    the delta since it: bounded by how often :meth:`compact` is called, or
    O(history) for a runtime that never compacts.  Torn tails (records,
    snapshots, manifest) are tolerated and reported: a torn record was
    never acknowledged, so discarding it is correct.  Statements parked
    before the crash stay parked — the tuples and obligations survive,
    the processes do not.

    Parameters
    ----------
    dir:
        Log directory (created as needed).
    fsync:
        Force every record (and rotation) to disk before the command
        executes — real stable storage, at real cost: one fsync per
        command, on the submitting thread, under the runtime lock.  When
        False the OS buffers writes (fast, but a crash can lose the tail).
    segment_bytes:
        Rotate the active segment once it exceeds this size.
    """

    def __init__(self, dir: str, *, fsync: bool = True, segment_bytes: int = 1 << 20):
        super().__init__()
        self.dir = dir
        self.fsync = fsync
        self.journal = GroupJournal(
            dir, fsync, self.metrics, None,
            owner="local", segment_bytes=segment_bytes,
        )

        def install(snapshot: dict[str, Any], _slot: int) -> None:
            self._sm = TSStateMachine.from_snapshot(snapshot)

        def feed(commands: list[Command]) -> None:
            for command in commands:
                self._apply(command)  # completions dropped: their clients died

        res = self.journal.replay(install, feed)
        self._req_ids = itertools.count(res.highest_request_id() + 1)
        self.replayed = self.journal.replayed
        self.snapshot_slot = res.snapshot_slot
        self.torn_bytes = res.torn_bytes
        self.torn_records = res.torn_records
        self.torn_snapshots = res.torn_snapshots

    @classmethod
    def recover(cls, dir: str, **kwargs: Any) -> "SegmentedWALRuntime":
        """Rebuild a runtime from *dir* — the constructor, by its other name."""
        return cls(dir, **kwargs)

    def _apply(self, command: Command) -> list[Completion]:
        # under the runtime lock, so the journal's slot is the machine's
        # applied count; during replay the journal writes and syncs nothing
        self.journal.write([(command, None)])
        if self.fsync:
            self.journal.sync()
        return self._sm.apply(command)

    def introspection_snapshot(self) -> dict[str, Any]:
        snap = super().introspection_snapshot()
        # a directory listing and a stat per file: not under the runtime lock
        snap["wal_bytes"] = self.journal.log.status()["total_bytes"]
        return snap

    def compact(self) -> int | None:
        """Snapshot the machine and prune covered segments.

        The runtime lock is held only while :meth:`TSStateMachine.snapshot`
        copies the state, as a replica does when it answers a state
        transfer; serialization, the snapshot fsync, the manifest rewrite
        and pruning all run off the apply path.  One caller at a time.
        Returns the covered slot, or None when nothing new had applied.
        """
        with self._lock:
            slot = self._sm.applied_count
            if slot <= self.snapshot_slot:
                return None
            snapshot = self._sm.snapshot()
        self.journal.compact(slot, snapshot)
        self.snapshot_slot = slot
        return slot

    def wal_status(self) -> dict[str, Any]:
        """The journal's status, and the damage recovery found."""
        return {
            **self.journal.status(),
            "torn_bytes": self.torn_bytes,
            "torn_records": self.torn_records,
            "torn_snapshots": self.torn_snapshots,
        }

    def close(self) -> None:
        """Close the journal (idempotent).

        Nothing is flushed here that a write had not already flushed, so
        this is also what a crash leaves behind: everything volatile
        dropped, only the directory kept — hence :meth:`crash` below.
        """
        self.journal.close()

    crash = close

    def shutdown(self) -> None:
        super().shutdown()
        self.close()

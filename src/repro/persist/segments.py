"""Segmented WAL: rotated segments, snapshots, bounded recovery.

A log kept as one file makes both compaction and recovery O(history).
This module bounds recovery time by *structure* instead:

- the log is a **directory** of fixed-size-ish segment files
  (``segment-00000042.log``), each a sequence of length-prefixed pickled
  ``(slot, payload)`` records, where *slot* is the state machine's
  ``applied_count`` after the payload command applies — the position of
  the record in the total order (a replica group's journal record is a
  whole batch, and its slot the *last* slot of the batch);
- a **snapshot** (``snapshot-0000000000001337.snap``) is a single framed
  record holding the machine image at a slot boundary.  Snapshots are
  written to a temp file, fsynced, and atomically renamed — the
  directory never contains a half-visible snapshot under its final name;
- a **MANIFEST** (JSON, also written via temp + rename) records what the
  last compaction believed the directory held.  It is *informational*:
  replay is a directory scan that trusts only file names and framing, so
  a torn or stale manifest is tolerated exactly like a torn record;
- **recovery** loads the newest readable snapshot and replays only the
  segment records with ``slot > snapshot_slot`` — O(delta since the last
  snapshot), not O(history).

Crash-safety is testable, not just argued: five
:mod:`repro.persist.crashpoints` are planted here at the exact instants
a naive implementation corrupts state (mid-record, before/after the
snapshot rename, before and during prune), and the chaos tests SIGKILL
subprocess victims at each one, then require fingerprint-identical
recovery.  (A sixth sits in the journal's fsync, between the write and
the sync.)

The segment format is payload-agnostic.  Its one writer is
:class:`~repro.replication.journal.GroupJournal` — a replica group's
durable journal and the single-host
:class:`~repro.persist.runtime.SegmentedWALRuntime` alike — one batch
frame a record, read back by
:func:`~repro.replication.journal.replay_commands`.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any, BinaryIO

from repro.persist.crashpoints import armed, crash_here

__all__ = [
    "SegmentedLog",
    "ReplayResult",
    "replay_dir",
]

_LEN = struct.Struct(">I")

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".log"
SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".snap"
MANIFEST = "MANIFEST"


def fsync_dir(path: str) -> None:
    """fsync the directory containing *path* (or *path* itself if a dir).

    Renames and unlinks are durable only once the *directory entry* is on
    disk; a crash after ``os.replace`` but before the directory fsync can
    resurrect the old name.  Platforms that refuse ``open(dir)`` (e.g.
    Windows) skip silently — rename atomicity still holds there.
    """
    d = path if os.path.isdir(path) else (os.path.dirname(os.path.abspath(path)))
    try:
        fd = os.open(d, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class _Torn(Exception):
    """A framed record ended before its declared length (crash tail)."""


def _read_framed(f: BinaryIO) -> bytes:
    """Read one length-prefixed record or raise :class:`_Torn`."""
    header = f.read(_LEN.size)
    if len(header) < _LEN.size:
        raise _Torn
    (length,) = _LEN.unpack(header)
    blob = f.read(length)
    if len(blob) < length:
        raise _Torn
    return blob


def _scan_segment(path: str) -> tuple[list[tuple[int, Any]], int, int]:
    """All good ``(slot, payload)`` records of a segment, plus torn tail.

    Returns ``(records, torn_bytes, torn_records)``.  A tear mid-record
    ends the scan — records are appended strictly in order, so nothing
    readable can follow a tear.
    """
    records: list[tuple[int, Any]] = []
    torn_bytes = 0
    torn_records = 0
    with open(path, "rb") as f:
        while True:
            start = f.tell()
            try:
                blob = _read_framed(f)
            except _Torn:
                f.seek(0, os.SEEK_END)
                end = f.tell()
                if end > start:
                    torn_bytes = end - start
                    torn_records = 1
                break
            records.append(pickle.loads(blob))
    return records, torn_bytes, torn_records


class SegmentedLog:
    """A directory of rotated, length-prefixed record segments.

    Appending has two halves.  The **write half** (:meth:`write_many`)
    frames records into the active segment and flushes them to the OS —
    they survive the death of this process from there on.  The **sync
    half** (:meth:`sync`) fsyncs the active segment — they survive power
    loss from there on.  :meth:`append` and :meth:`append_many` are one
    after the other; the replica group's journal runs them on different
    threads, so one fsync covers every batch written while the previous
    fsync ran.

    One lock, held by :meth:`sync`, by a rotation while it retires the
    old segment, and by :meth:`close`: a file descriptor is never closed
    (or swapped) under an fsync in flight, and a segment is fsynced
    before it is closed, so whatever was written ahead of a ``sync()``
    call is on disk when it returns — in the active segment or in one
    rotated away meanwhile.  The lock does *not* serialize writers:
    callers still run the write half from one thread at a time (the
    runtime's submission lock, the group's sequencer lock), and
    :meth:`compact` from one compactor at a time.  A write never waits
    for an fsync except at a rotation.  Appends and compaction may
    interleave: compaction only ever touches *closed* segments and
    snapshot/manifest files.
    """

    def __init__(self, dir: str, *, fsync: bool = True, segment_bytes: int = 1 << 20):
        os.makedirs(dir, exist_ok=True)
        self.dir = dir
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        # Never append to a pre-existing segment: a fresh process gets a
        # fresh segment (lazily, on first append), so concurrent pruning
        # of old segments can never race an open write handle.
        self._seg: BinaryIO | None = None
        self._seg_index = self._next_index()
        self._seg_size = 0
        self._fd_lock = threading.Lock()  # sync() vs. rotation/close

    # ------------------------------------------------------------------ #
    # directory layout
    # ------------------------------------------------------------------ #

    def segments(self) -> list[tuple[int, str]]:
        """Sorted ``(index, path)`` of every segment file on disk."""
        out = []
        for name in os.listdir(self.dir):
            if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX):
                try:
                    idx = int(name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])
                except ValueError:
                    continue
                out.append((idx, os.path.join(self.dir, name)))
        out.sort()
        return out

    def snapshots(self) -> list[tuple[int, str]]:
        """Sorted ``(slot, path)`` of every snapshot file on disk."""
        out = []
        for name in os.listdir(self.dir):
            if name.startswith(SNAPSHOT_PREFIX) and name.endswith(SNAPSHOT_SUFFIX):
                try:
                    slot = int(name[len(SNAPSHOT_PREFIX) : -len(SNAPSHOT_SUFFIX)])
                except ValueError:
                    continue
                out.append((slot, os.path.join(self.dir, name)))
        out.sort()
        return out

    def _next_index(self) -> int:
        segs = self.segments()
        return segs[-1][0] + 1 if segs else 0

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #

    def append(self, slot: int, payload: Any) -> None:
        """Frame and append ``(slot, payload)``; fsync per the policy."""
        self.append_many(((slot, payload),))

    def append_many(self, pairs) -> int:
        """Append many ``(slot, payload)`` pairs under ONE flush+fsync.

        Write half, then sync half, on the calling thread.  Returns the
        number of records written.
        """
        n = self.write_many(pairs)
        if n:
            self.sync()
        return n

    def write_many(self, pairs) -> int:
        """The write half: frame the pairs and flush them to the OS.

        No fsync — the records are safe from a process kill, not yet
        from power loss; :meth:`sync` is what makes them durable.
        Returns the number of records written.
        """
        n = 0
        for slot, payload in pairs:
            self._write_record(slot, payload)
            n += 1
        if n:
            assert self._seg is not None
            self._seg.flush()
        return n

    def sync(self) -> None:
        """The sync half: fsync the active segment (policy permitting).

        Everything the write half flushed before this call is on disk
        when it returns; records written *while* it runs may or may not
        be, and need the next call.
        """
        if not self.fsync:
            return
        with self._fd_lock:
            if self._seg is not None:
                os.fsync(self._seg.fileno())

    def _write_record(self, slot: int, payload: Any) -> None:
        blob = pickle.dumps((slot, payload), protocol=pickle.HIGHEST_PROTOCOL)
        if self._seg is None or self._seg_size >= self.segment_bytes:
            self._rotate()
        seg = self._seg
        assert seg is not None
        seg.write(_LEN.pack(len(blob)))
        if armed() == "segment_mid_record":
            # Flush a half-written body so the tear is really on disk,
            # then die: recovery must discard exactly this record.
            seg.write(blob[: len(blob) // 2])
            seg.flush()
            os.fsync(seg.fileno())
            crash_here("segment_mid_record")
        seg.write(blob)
        self._seg_size += _LEN.size + len(blob)

    def _retire_segment(self) -> None:
        """Flush, fsync (policy permitting) and close the active segment.

        Caller holds ``_fd_lock``.  The fsync is what lets :meth:`sync`
        look only at the active segment: nothing un-synced is ever left
        behind in a closed one.
        """
        seg = self._seg
        if seg is None:
            return
        seg.flush()
        if self.fsync:
            os.fsync(seg.fileno())
        seg.close()
        self._seg = None

    def _rotate(self) -> None:
        path = os.path.join(
            self.dir, f"{SEGMENT_PREFIX}{self._seg_index:08d}{SEGMENT_SUFFIX}"
        )
        with self._fd_lock:
            self._retire_segment()
            self._seg = open(path, "ab")
        self._seg_size = 0
        self._seg_index += 1
        if self.fsync:
            fsync_dir(path)

    @property
    def active_segment(self) -> str | None:
        """Path of the currently open segment, if any."""
        return self._seg.name if self._seg is not None else None

    # ------------------------------------------------------------------ #
    # compaction side
    # ------------------------------------------------------------------ #

    def write_snapshot(self, slot: int, blob: bytes) -> str:
        """Durably install a snapshot covering everything up to *slot*.

        temp file → fsync → :func:`crash_here` → atomic rename → dir
        fsync: at no instant does the final name hold a partial snapshot,
        and a crash on either side of the rename leaves a recoverable
        directory (before: old snapshot + full log; after: new snapshot
        shadows the covered prefix).
        """
        final = os.path.join(
            self.dir, f"{SNAPSHOT_PREFIX}{slot:016d}{SNAPSHOT_SUFFIX}"
        )
        tmp = final + ".tmp"
        with open(tmp, "wb") as f:
            f.write(_LEN.pack(len(blob)))
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        crash_here("snapshot_before_rename")
        os.replace(tmp, final)
        fsync_dir(final)
        crash_here("snapshot_after_rename")
        return final

    def write_manifest(self, snapshot_slot: int) -> None:
        """Rewrite the (informational) manifest via temp + atomic rename."""
        doc = {
            "snapshot_slot": snapshot_slot,
            "segments": [os.path.basename(p) for _, p in self.segments()],
            "snapshots": [os.path.basename(p) for _, p in self.snapshots()],
        }
        path = os.path.join(self.dir, MANIFEST)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        fsync_dir(path)

    def prune(self, covered_slot: int) -> list[str]:
        """Unlink closed segments fully covered by the snapshot at *covered_slot*.

        A segment is covered when its last good record's slot is ≤
        *covered_slot* (slots grow monotonically within and across
        segments).  Superseded snapshots are dropped too.  Pruning is
        pure garbage collection — a crash that leaves covered segments
        behind only costs replay the work of skipping their records.

        Safe to run concurrently with appends: only segments strictly
        below the active index are candidates, so a writer's open handle
        (including one a concurrent rotation just created) can never be
        unlinked underneath it.
        """
        crash_here("manifest_before_prune")
        removed: list[str] = []
        cutoff = self._seg_index - 1 if self._seg is not None else self._seg_index
        for idx, path in self.segments():
            if idx >= cutoff:
                continue
            records, _tb, _tr = _scan_segment(path)
            if records and records[-1][0] > covered_slot:
                continue
            os.unlink(path)
            removed.append(path)
            if len(removed) == 1:
                crash_here("prune_partial")
        for _slot, path in self.snapshots()[:-1]:
            os.unlink(path)
            removed.append(path)
        if removed:
            fsync_dir(self.dir)
        return removed

    def compact(self, slot: int, snapshot: dict[str, Any], **owner: Any) -> list[str]:
        """Install *snapshot* as covering everything up to *slot*; prune.

        The one compaction routine — snapshot, manifest, prune, in the
        order the crash points assume.  *owner* tags the events (the
        journal passes its owner's name).  Returns the files removed.
        """
        from repro.obs.events import emit

        t0 = time.perf_counter()
        emit("snapshot_started", dir=self.dir, slot=slot, **owner)
        blob = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        self.write_snapshot(slot, blob)
        self.write_manifest(slot)
        removed = self.prune(slot)
        emit(
            "snapshot_finished",
            dir=self.dir,
            slot=slot,
            bytes=len(blob),
            seconds=time.perf_counter() - t0,
            **owner,
        )
        emit(
            "wal_compacted",
            dir=self.dir,
            covered_slot=slot,
            removed=len(removed),
            bytes=self.status()["total_bytes"],
            **owner,
        )
        return removed

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #

    def status(self) -> dict[str, Any]:
        segs = self.segments()
        snaps = self.snapshots()

        def _size(path: str) -> int:
            try:
                return os.path.getsize(path)
            except OSError:
                return 0

        seg_bytes = sum(_size(p) for _, p in segs)
        snap_bytes = sum(_size(p) for _, p in snaps)
        return {
            "dir": self.dir,
            "segments": len(segs),
            "segment_bytes": seg_bytes,
            "snapshots": len(snaps),
            "snapshot_bytes": snap_bytes,
            "snapshot_slot": snaps[-1][0] if snaps else 0,
            "total_bytes": seg_bytes + snap_bytes,
        }

    def close(self) -> None:
        """Close the log; a tail not yet synced is fsynced first."""
        with self._fd_lock:
            self._retire_segment()


@dataclass
class ReplayResult:
    """What :func:`replay_dir` found: snapshot, delta records, damage."""

    snapshot: dict[str, Any] | None = None
    snapshot_slot: int = 0
    records: list[tuple[int, Any]] = field(default_factory=list)
    torn_bytes: int = 0
    torn_records: int = 0
    torn_snapshots: int = 0
    manifest_ok: bool = False
    segments_read: int = 0

    def highest_request_id(self) -> int:
        """The largest request id anywhere in the replayed history.

        A recovered machine remembers completed ids (duplicate
        suppression) and still holds the parked ones, so whoever resumes
        on this history must mint fresh ids strictly past this.
        """
        highest = 0
        if self.snapshot is not None:
            for rid, _result in self.snapshot.get("completed", ()):
                highest = max(highest, rid)
            for blocked in self.snapshot["blocked"]:
                highest = max(highest, blocked[0])
        for _slot, command in self.records:
            highest = max(highest, getattr(command, "request_id", 0))
        return highest


def replay_dir(dir: str) -> ReplayResult:
    """Scan a segmented-WAL directory into a :class:`ReplayResult`.

    Trusts only file names and record framing.  The newest *readable*
    snapshot wins (torn or unpicklable ones are counted and skipped —
    they were never acknowledged, exactly like torn command records);
    segment records at slots the snapshot covers are skipped.  The
    manifest is read solely to report whether it parses.
    """
    res = ReplayResult()
    if not os.path.isdir(dir):
        return res
    log = SegmentedLog.__new__(SegmentedLog)
    log.dir = dir
    log._seg = None

    manifest = os.path.join(dir, MANIFEST)
    if os.path.exists(manifest):
        try:
            with open(manifest, "r", encoding="utf-8") as f:
                json.load(f)
            res.manifest_ok = True
        except (OSError, ValueError):
            res.manifest_ok = False

    for slot, path in reversed(log.snapshots()):
        try:
            with open(path, "rb") as f:
                blob = _read_framed(f)
            res.snapshot = pickle.loads(blob)
            res.snapshot_slot = slot
            break
        except (_Torn, OSError, pickle.UnpicklingError, EOFError):
            res.torn_snapshots += 1

    for _idx, path in log.segments():
        records, tb, tr = _scan_segment(path)
        res.segments_read += 1
        res.torn_bytes += tb
        res.torn_records += tr
        for slot, payload in records:
            if slot <= res.snapshot_slot:
                continue
            res.records.append((slot, payload))
    return res

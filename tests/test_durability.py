"""Durability at scale: segmented WAL, crash points, chunked transfer.

Covers the claims of the segmented durability plane
(:mod:`repro.persist.segments`) and the durable replica-group journal:

- recovery is bounded by the snapshot cadence, not the history;
- a SIGKILL at any planted crash point (mid-record, either side of the
  snapshot rename, before and during prune) recovers to a
  fingerprint-identical state — exercised in real subprocesses via
  ``REPRO_CRASHPOINT`` — and one between a record's write and its fsync
  loses nothing acknowledged, on a single host and in a durable group;
- ``read_at`` views are snapshot-isolated no matter how much the live
  space churns;
- chunked state transfer survives a donor dying mid-stream (a *second*
  crash during recovery from the first), on both parallel backends;
- a durable replica group restarted from nothing replays its journal to
  the last fsynced slot — a journal of by-value records too, and plan ids
  whose defining record a compaction dropped or a reopen renumbered;
- the group commit's fence — no acknowledgement before fsync — holds for
  a plain ``out``, for an ``in`` woken by a later ``out``, for a
  fast-path ``rd`` and for ``quiesce``, and survives losing everything
  the disk had not been told to keep.
"""

import os
import pickle
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import AGS, Guard, Op, TimeoutError_, formal, ref
from repro.chaos import ChaosMonkey
from repro.core.spaces import MAIN_TS
from repro.persist import CRASHPOINT_ENV, SegmentedWALRuntime, replay_dir
from repro.persist.segments import SegmentedLog

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Subprocess victim: phase "populate" builds a clean directory and
#: prints the fingerprint; phase "compact"/"append"/"before_fsync"
#: re-opens it (with a crash point armed by the parent) and runs the
#: action that crosses it.
_VICTIM = """
import sys
from repro.core.spaces import MAIN_TS
from repro.persist import SegmentedWALRuntime

dir, phase = sys.argv[1], sys.argv[2]
if phase == "populate":
    rt = SegmentedWALRuntime(dir, segment_bytes=512)
    for i in range(60):
        rt.out(MAIN_TS, "seed", i)
    print(rt.state_machine.fingerprint(), flush=True)
    rt.close()
elif phase == "compact":
    rt = SegmentedWALRuntime.recover(dir, segment_bytes=512)
    rt.compact()          # dies at the armed point
    print("survived", flush=True)
elif phase == "append":
    rt = SegmentedWALRuntime.recover(dir, segment_bytes=512)
    rt.out(MAIN_TS, "extra", 1)   # dies mid-record
    print("survived", flush=True)
elif phase == "before_fsync":
    rt = SegmentedWALRuntime.recover(dir, segment_bytes=512)
    rt.out(MAIN_TS, "extra", 1)   # dies between the write and its fsync
    print("survived", flush=True)
"""

_CRASH_POINTS = [
    ("segment_mid_record", "append"),
    ("snapshot_before_rename", "compact"),
    ("snapshot_after_rename", "compact"),
    ("manifest_before_prune", "compact"),
    ("prune_partial", "compact"),
]


def _run_victim(tmp_path, phase, crashpoint=None, *, source=_VICTIM, dir="wal"):
    script = tmp_path / "victim.py"
    script.write_text(source)
    env = dict(os.environ, PYTHONPATH=_SRC)
    if crashpoint is not None:
        env[CRASHPOINT_ENV] = crashpoint
    else:
        env.pop(CRASHPOINT_ENV, None)
    return subprocess.run(
        [sys.executable, str(script), str(tmp_path / dir), phase],
        env=env, capture_output=True, text=True, timeout=60,
    )


class TestSegmentedRuntime:
    def test_rotation_and_recovery(self, tmp_path):
        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(d, segment_bytes=512, fsync=False)
        for i in range(80):
            rt.out(MAIN_TS, "x", i)
        before = rt.state_machine.fingerprint()
        assert rt.journal.log.status()["segments"] > 1  # really rotated
        rt.crash()
        back = SegmentedWALRuntime.recover(d, fsync=False)
        assert back.state_machine.fingerprint() == before
        assert back.replayed == 80
        back.close()

    def test_recovery_bounded_by_snapshot(self, tmp_path):
        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(d, segment_bytes=512, fsync=False)
        for i in range(100):
            rt.out(MAIN_TS, "x", i)
        assert rt.compact() == 100
        for i in range(7):
            rt.out(MAIN_TS, "delta", i)
        before = rt.state_machine.fingerprint()
        rt.crash()
        back = SegmentedWALRuntime.recover(d, fsync=False)
        # snapshot + 7 delta records — never the 100-command history
        assert back.replayed == 8
        assert back.snapshot_slot == 100
        assert back.state_machine.fingerprint() == before
        back.close()

    def test_plain_constructor_on_existing_dir_recovers(self, tmp_path):
        """Reopening with the constructor (not ``recover``) must not fork history."""
        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(d, fsync=False)
        for i in range(5):
            rt.out(MAIN_TS, "old", i)
        rt.compact()
        rt.out(MAIN_TS, "old", 5)
        rt.close()

        again = SegmentedWALRuntime(d, fsync=False)
        assert again.space_size(MAIN_TS) == 6
        again.out(MAIN_TS, "new", 1)
        again.out(MAIN_TS, "new", 2)
        before = again.state_machine.fingerprint()
        again.close()

        back = SegmentedWALRuntime(d, fsync=False)
        assert back.space_size(MAIN_TS) == 8
        assert back.state_machine.fingerprint() == before
        back.close()

    def test_compaction_prunes_covered_segments(self, tmp_path):
        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(d, segment_bytes=512, fsync=False)
        for i in range(100):
            rt.out(MAIN_TS, "x", i)
        segs_before = rt.journal.log.status()["segments"]
        rt.compact()
        st = rt.wal_status()
        assert st["segments"] < segs_before
        assert st["snapshots"] == 1
        rt.close()

    def test_torn_tail_discarded_and_reported(self, tmp_path):
        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(d, segment_bytes=1 << 20, fsync=False)
        for i in range(10):
            rt.out(MAIN_TS, "x", i)
        rt.crash()
        seg = sorted(p for p in os.listdir(d) if p.startswith("segment-"))[-1]
        path = os.path.join(d, seg)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 3)
        back = SegmentedWALRuntime.recover(d, fsync=False)
        assert back.replayed == 9
        assert back.torn_records == 1
        assert back.torn_bytes > 0
        back.close()

    def test_torn_snapshot_falls_back_to_older_snapshot(self, tmp_path):
        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(d, segment_bytes=512, fsync=False)
        for i in range(15):
            rt.out(MAIN_TS, "x", i)
        rt.compact()  # good snapshot at slot 15 (prunes covered segments)
        for i in range(15, 30):
            rt.out(MAIN_TS, "x", i)
        before = rt.state_machine.fingerprint()
        # a newer snapshot lands on disk (no prune), then gets torn —
        # e.g. the machine died while the page cache held its tail
        rt.journal.log.write_snapshot(30, pickle.dumps(rt.state_machine.snapshot()))
        rt.crash()
        snap = sorted(p for p in os.listdir(d) if p.startswith("snapshot-"))[-1]
        path = os.path.join(d, snap)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)
        back = SegmentedWALRuntime.recover(d, fsync=False)
        # newest snapshot unreadable → the slot-15 one + delta log win
        assert back.torn_snapshots == 1
        assert back.snapshot_slot == 15
        assert back.state_machine.fingerprint() == before
        back.close()

    def test_by_value_directory_still_opens(self, tmp_path):
        """What this runtime wrote before its records were frames — one
        by-value command a record, a snapshot with no plan table — opens
        unchanged, and the statements after it append PLANNED frames."""
        from repro.core.statemachine import ExecuteAGS, TSStateMachine

        d = str(tmp_path / "wal")
        statements = [AGS.atomic(Op.out(MAIN_TS, "old", i)) for i in range(12)]
        statements += [_take(MAIN_TS, "old")] * 3
        sm = TSStateMachine()
        log = SegmentedLog(d, fsync=False)
        for slot, ags in enumerate(statements, 1):
            cmd = ExecuteAGS(slot, -1, 0, ags)
            sm.apply(cmd)
            log.append(slot, cmd)
            if slot == 5:
                log.write_snapshot(5, pickle.dumps(sm.snapshot()))
        log.close()

        rt = SegmentedWALRuntime(d, fsync=False)
        assert rt.replayed == 1 + 10  # the snapshot and the records after it
        assert rt.state_machine.fingerprint() == sm.fingerprint()
        rt.out(MAIN_TS, "new", 1)
        assert rt.execute(_take(MAIN_TS, "new")).bindings == {"v": 1}
        live = rt.state_machine.fingerprint()
        rt.close()
        payloads = [payload for _slot, payload in replay_dir(d).records]
        assert all(type(p) is ExecuteAGS for p in payloads[:10])
        assert [p[0] for p in payloads[10:]] == ["PLANNED", "PLANNED"]

        back = SegmentedWALRuntime(d, fsync=False)
        assert back.state_machine.fingerprint() == live
        assert back.inp(MAIN_TS, "took", "new", 2) == ("took", "new", 2)
        back.close()

    def test_read_at_isolation_under_churn(self, tmp_path):
        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(d, fsync=False)
        for i in range(10):
            rt.out(MAIN_TS, "stable", i)
        slot = rt.retain_snapshot()
        view = rt.read_at(slot)
        assert view.count(MAIN_TS, "stable", formal(int)) == 10
        # churn the live space hard: consume everything, add new content
        for i in range(10):
            rt.inp(MAIN_TS, "stable", i)
        for i in range(50):
            rt.out(MAIN_TS, "churn", i)
        # the view is frozen at its slot: same answers as before
        assert view.count(MAIN_TS, "stable", formal(int)) == 10
        assert view.count(MAIN_TS, "churn", formal(int)) == 0
        assert rt.space_size(MAIN_TS) == 50
        rt.close()


class TestCrashPoints:
    @pytest.mark.parametrize("point,phase", _CRASH_POINTS)
    def test_sigkill_then_fingerprint_identical(self, tmp_path, point, phase):
        pop = _run_victim(tmp_path, "populate")
        assert pop.returncode == 0, pop.stderr
        before = int(pop.stdout.strip())

        victim = _run_victim(tmp_path, phase, crashpoint=point)
        assert victim.returncode == -signal.SIGKILL, (
            f"{point}: expected SIGKILL, got rc={victim.returncode} "
            f"out={victim.stdout!r} err={victim.stderr!r}"
        )
        assert "survived" not in victim.stdout

        back = SegmentedWALRuntime.recover(str(tmp_path / "wal"))
        assert back.state_machine.fingerprint() == before, point
        if point == "segment_mid_record":
            assert back.torn_records == 1  # the half-written append
        back.close()

    def test_crash_points_compose(self, tmp_path):
        """Two crashes in a row (mid-compaction, then mid-append) recover."""
        pop = _run_victim(tmp_path, "populate")
        before = int(pop.stdout.strip())
        assert (
            _run_victim(tmp_path, "compact", "snapshot_before_rename").returncode
            == -signal.SIGKILL
        )
        assert (
            _run_victim(tmp_path, "append", "segment_mid_record").returncode
            == -signal.SIGKILL
        )
        res = replay_dir(str(tmp_path / "wal"))
        assert res.snapshot is None  # the rename never happened
        back = SegmentedWALRuntime.recover(str(tmp_path / "wal"))
        assert back.state_machine.fingerprint() == before
        back.close()

    def test_single_host_before_fsync_keeps_or_loses_the_unacknowledged_out(
        self, tmp_path
    ):
        """The sixth crash point on the journaling runtime: killed between
        an ``out``'s write and its fsync, before it applied.  Recovery may
        keep that statement (the OS held the write) or lose it (power
        loss) — and nothing else."""
        pop = _run_victim(tmp_path, "populate")
        assert pop.returncode == 0, pop.stderr
        populated = int(pop.stdout.strip())
        d = str(tmp_path / "wal")
        twin = str(tmp_path / "twin")
        shutil.copytree(d, twin)
        rt = SegmentedWALRuntime(twin, fsync=False)
        rt.out(MAIN_TS, "extra", 1)
        with_out = rt.state_machine.fingerprint()
        rt.close()
        assert with_out != populated

        victim = _run_victim(tmp_path, "before_fsync", "journal_before_fsync")
        assert victim.returncode == -signal.SIGKILL, (
            f"expected SIGKILL, got rc={victim.returncode} "
            f"out={victim.stdout!r} err={victim.stderr!r}"
        )
        assert "survived" not in victim.stdout
        back = SegmentedWALRuntime.recover(d)
        assert back.state_machine.fingerprint() in (populated, with_out)
        back.close()
        # the plug pulled too: the un-synced record is gone, the rest is not
        assert _drop_records_past(d, 60) == 1
        back = SegmentedWALRuntime.recover(d)
        assert back.state_machine.fingerprint() == populated
        back.close()


class TestDurableGroup:
    def test_restart_recovers_to_last_slot(self, tmp_path):
        from repro.parallel import ThreadedReplicaRuntime

        d = str(tmp_path / "journal")
        rt = ThreadedReplicaRuntime(3, durable_dir=d)
        for i in range(40):
            rt.out(rt.main_ts, "j", i)
        rt.quiesce()
        before = set(rt.fingerprints())
        assert len(before) == 1
        rt.shutdown()

        back = ThreadedReplicaRuntime(3, durable_dir=d)
        back.quiesce()
        assert set(back.fingerprints()) == before
        assert back.group.journal_replayed == 40
        # the recovered group keeps journaling new commands
        back.out(back.main_ts, "post", 1)
        assert back.inp(back.main_ts, "post", 1) is not None
        back.shutdown()

    def test_compacted_journal_restart(self, tmp_path, monkeypatch):
        from repro.parallel import ThreadedReplicaRuntime
        from repro.replication.transfer import StateTransfer
        from repro.replication.worker import split_state

        d = str(tmp_path / "journal")
        rt = ThreadedReplicaRuntime(3, durable_dir=d)
        for i in range(50):
            rt.out(rt.main_ts, "j", i)
        rt.quiesce()
        assert rt.compact_journal() == [50]
        for i in range(5):
            rt.out(rt.main_ts, "delta", i)
        rt.quiesce()
        before = set(rt.fingerprints())
        rt.shutdown()

        # the snapshot enters the fresh replicas by the chunked install —
        # as one chunk at the default size, and spanning many at 64 bytes
        res = replay_dir(d)
        assert len(split_state(res.snapshot, res.snapshot_slot, 64)) > 1
        for chunk_bytes in (StateTransfer.chunk_bytes, 64):
            monkeypatch.setattr(StateTransfer, "chunk_bytes", chunk_bytes)
            back = ThreadedReplicaRuntime(3, durable_dir=d)
            back.quiesce()
            assert set(back.fingerprints()) == before
            # snapshot + 5 delta records, not the 50-command history
            assert back.group.journal_replayed == 6
            st = back.journal_status()[0]
            assert st["snapshot_slot"] == 50
            assert st["journal_slot"] == 55
            back.shutdown()

    def test_sharded_durable_restart(self, tmp_path):
        from repro.parallel import ThreadedReplicaRuntime

        d = str(tmp_path / "journal")
        rt = ThreadedReplicaRuntime(2, shards=2, durable_dir=d)
        for i in range(30):
            rt.out(rt.main_ts, "s", i)
        rt.quiesce()
        size = rt.space_size(rt.main_ts)
        before = set(rt.fingerprints())
        rt.shutdown()
        assert sorted(os.listdir(d)) == ["shard0", "shard1"]

        back = ThreadedReplicaRuntime(2, shards=2, durable_dir=d)
        back.quiesce()
        assert back.space_size(back.main_ts) == size == 30
        assert set(back.fingerprints()) == before
        assert len(back.journal_status()) == 2
        back.shutdown()

    def test_sharded_compaction_restart(self, tmp_path):
        from repro.core.matching import shard_of
        from repro.parallel import ThreadedReplicaRuntime

        d = str(tmp_path / "journal")
        rt = ThreadedReplicaRuntime(2, shards=2, durable_dir=d)
        ts = rt.main_ts
        keys = [f"k{i}" for i in range(30)]
        for i, key in enumerate(keys):
            rt.out(ts, key, i)
        rt.quiesce()
        homes = [shard_of(ts.id, key, 2) for key in keys]
        # one covered slot per shard: the outs that shard ordered
        slots = rt.compact_journal()
        assert slots == [homes.count(0), homes.count(1)]
        assert 0 not in slots  # the keys reach both shards
        rows = rt.journal_status()
        assert [row["shard"] for row in rows] == ["shard0", "shard1"]
        assert [row["snapshot_slot"] for row in rows] == slots
        # shard 1 read directly, as the benchmark's adapters read it
        held = rt.query(0, "space_tuples", ts, shard=1)
        assert sorted(held) == sorted(
            (key, i) for i, key in enumerate(keys) if homes[i] == 1
        )
        rt.out(ts, "after", 1)
        rt.quiesce()
        size = rt.space_size(ts)
        before = set(rt.fingerprints())
        rt.shutdown()

        back = ThreadedReplicaRuntime(2, shards=2, durable_dir=d)
        back.quiesce()
        assert back.space_size(back.main_ts) == size == 31
        assert set(back.fingerprints()) == before
        assert [row["snapshot_slot"] for row in back.journal_status()] == slots
        back.shutdown()

    def test_transfer_interrupted_by_second_crash_threaded(self):
        from repro.parallel import ThreadedReplicaRuntime

        rt = ThreadedReplicaRuntime(3)
        try:
            for i in range(150):
                rt.out(rt.main_ts, "item", i, "pad" * 20)
            rt.quiesce()
            g = rt.group
            g.transfer.chunk_bytes = 1024  # force a multi-chunk transfer
            monkey = ChaosMonkey(rt)
            g.crash_replica(2)  # first crash: the replica being recovered
            fired = monkey.kill_donor_mid_transfer(at_chunk=1)
            g.recover_replica(2)  # second crash fires mid-transfer
            donor = fired()
            assert donor is not None, "transfer finished before the kill"
            assert not g.alive[donor]  # the dead donor was declared
            rt.quiesce()
            assert g.converged()
            # the killed donor is itself recoverable afterwards
            g.recover_replica(donor)
            rt.quiesce()
            assert g.converged()
        finally:
            rt.shutdown()

    def test_transfer_interrupted_by_second_crash_multiproc(self):
        from repro.parallel import MultiprocessRuntime

        with MultiprocessRuntime(3) as rt:
            for i in range(100):
                rt.out(rt.main_ts, "item", i, "pad" * 20)
            rt.quiesce()
            g = rt.group
            g.transfer.chunk_bytes = 1024
            monkey = ChaosMonkey(rt)
            g.crash_replica(2)
            fired = monkey.kill_donor_mid_transfer(at_chunk=1)
            g.recover_replica(2)
            donor = fired()
            assert donor is not None
            assert not g.alive[donor]
            rt.quiesce()
            assert g.converged()


# ---------------------------------------------------------------------- #
# journal records: one batch each, in the pipe's PLANNED frame
# ---------------------------------------------------------------------- #


def _backend(name):
    from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime

    return ThreadedReplicaRuntime if name == "threaded" else MultiprocessRuntime


def _take(ts, key):
    """``< in(key, ?v) => out("took", key, v + 1) >``: built by hand, so the
    journal writes it as its skeleton's id and its constants."""
    return AGS.single(
        Guard.in_(ts, key, formal(int, "v")), [Op.out(ts, "took", key, ref("v") + 1)]
    )


class TestJournalRecords:
    def test_by_value_journal_still_opens(self, tmp_path):
        from repro.core.runtime import LocalRuntime
        from repro.core.statemachine import ExecuteAGS
        from repro.parallel import ThreadedReplicaRuntime
        from repro.replication.group import CLIENT_ORIGIN

        # what the journal held before it wrote frames: one command a record
        d = str(tmp_path / "journal")
        statements = [AGS.atomic(Op.out(MAIN_TS, "old", i)) for i in range(10)]
        statements += [_take(MAIN_TS, "old")] * 3
        cmds = [
            ExecuteAGS(i + 1, CLIENT_ORIGIN, 0, ags) for i, ags in enumerate(statements)
        ]
        log = SegmentedLog(d, fsync=False)
        log.append_many((i + 1, cmd) for i, cmd in enumerate(cmds))
        log.close()
        local = LocalRuntime()
        for cmd in cmds:
            local.state_machine.apply(cmd)

        with ThreadedReplicaRuntime(1, durable_dir=d) as rt:
            assert rt.group.journal_replayed == len(cmds)
            assert rt.fingerprints() == [local.state_machine.fingerprint()]
            rt.out(rt.main_ts, "new", 1)
            assert rt.execute(_take(rt.main_ts, "new")).bindings == {"v": 1}
            rt.quiesce()
            prints = rt.fingerprints()
        payloads = [payload for _slot, payload in replay_dir(d).records]
        assert all(type(p) is ExecuteAGS for p in payloads[: len(cmds)])
        assert [p[0] for p in payloads[len(cmds) :]] == ["PLANNED", "PLANNED"]
        with ThreadedReplicaRuntime(1, durable_dir=d) as rt:
            assert rt.fingerprints() == prints
            assert rt.inp(rt.main_ts, "took", "new", 2) == ("took", "new", 2)

    @pytest.mark.parametrize("backend", ["threaded", "multiproc"])
    def test_plan_defined_before_compaction_used_after(self, tmp_path, backend):
        cls, d = _backend(backend), str(tmp_path / "journal")
        with cls(2, durable_dir=d) as rt:
            ts = rt.main_ts
            rt.out(ts, "a", 1)
            rt.execute(_take(ts, "a"))  # the records that define both plans
            assert rt.compact_journal() == [2]
            rt.out(ts, "b", 5)
            rt.execute(_take(ts, "b"))  # plan ids only: defined in the snapshot
            rt.quiesce()
            prints = rt.fingerprints()
        with cls(2, durable_dir=d) as rt:
            assert rt.group.journal_replayed == 3  # the snapshot and two records
            assert rt.fingerprints() == prints
            assert rt.inp(rt.main_ts, "took", "b", 6) == ("took", "b", 6)

    @pytest.mark.parametrize("backend", ["threaded", "multiproc"])
    def test_reopen_twice_with_new_shapes_between(self, tmp_path, backend):
        cls, d = _backend(backend), str(tmp_path / "journal")
        with cls(2, durable_dir=d) as rt:
            ts = rt.main_ts
            rt.out(ts, "a", 1)  # out/2 is the journal's plan 0, the take plan 1
            rt.execute(_take(ts, "a"))
            rt.compact_journal()
            rt.out(ts, "a", 2)  # plan 0, defined only in the snapshot
            rt.quiesce()
            prints = rt.fingerprints()
        with cls(2, durable_dir=d) as rt:
            ts = rt.main_ts
            assert rt.fingerprints() == prints
            # the reopened journal numbers afresh: out/3 is now plan 0,
            # out/2 plan 1, the take plan 2 — each defined again here
            rt.out(ts, "b", 1, 2)
            rt.out(ts, "c", 4)
            rt.execute(_take(ts, "c"))
            rt.quiesce()
            prints = rt.fingerprints()
        with cls(2, durable_dir=d) as rt:
            ts = rt.main_ts
            assert rt.group.journal_replayed == 5  # the snapshot, then 1 + 3
            assert rt.fingerprints() == prints
            assert rt.execute(_take(ts, "a")).bindings == {"v": 2}
            assert rt.inp(ts, "b", 1, formal(int)) == ("b", 1, 2)
            assert rt.inp(ts, "took", "c", 5) == ("took", "c", 5)
            assert rt.converged()


# ---------------------------------------------------------------------- #
# group commit: no acknowledgement before fsync
# ---------------------------------------------------------------------- #


@pytest.fixture
def gate(monkeypatch):
    """``SegmentedLog.sync`` behind an Event — the one seam these tests fake.

    Set (open) by default; ``gate.clear()`` makes every fsync block until
    ``gate.set()``.  Reopened on teardown so a failing test cannot wedge
    a journal thread.
    """
    opened = threading.Event()
    opened.set()
    real = SegmentedLog.sync

    def sync(log):
        assert opened.wait(30.0), "the test never reopened the fsync gate"
        real(log)

    monkeypatch.setattr(SegmentedLog, "sync", sync)
    yield opened
    opened.set()


def _eventually(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _spawn(fn, *args, **kwargs):
    """Run ``fn`` on a thread; its result (or exception) lands in ``.out``."""
    out = []

    def run():
        try:
            out.append(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - handed to the test
            out.append(exc)

    t = threading.Thread(target=run, daemon=True)
    t.out = out
    t.start()
    return t


def _applied(rt):
    return [rt.query(r, "applied") for r in range(3)]


def _post_out(rt, *fields):
    rt.post_ags(AGS.atomic(Op.out(rt.main_ts, *fields)))


@pytest.fixture
def durable(tmp_path, gate):
    from repro.parallel import ThreadedReplicaRuntime

    rt = ThreadedReplicaRuntime(3, durable_dir=str(tmp_path / "journal"))
    yield rt
    gate.set()
    rt.shutdown()


class TestGroupCommitFence:
    def test_fence_out_not_acknowledged_before_fsync(self, durable, gate):
        rt = durable
        gate.clear()
        t = _spawn(rt.out, rt.main_ts, "x", 1)
        _eventually(lambda: _applied(rt) == [1, 1, 1])
        time.sleep(0.1)
        # applied by every replica, acknowledged to nobody
        assert t.is_alive()
        assert rt.journal_status()[0]["durable_slot"] == 0
        gate.set()
        t.join(10.0)
        assert not t.is_alive()
        assert rt.journal_status()[0]["durable_slot"] == 1

    def test_fence_woken_in_waits_for_the_waking_out(self, durable, gate):
        rt = durable
        t = _spawn(rt.in_, rt.main_ts, "late", formal(int))
        _eventually(lambda: rt.query(0, "blocked") == 1)
        rt.quiesce()  # the parked in_'s own slot is durable ...
        st = rt.journal_status()[0]
        assert st["durable_slot"] == st["journal_slot"] == 1
        gate.clear()
        _post_out(rt, "late", 7)  # ... the out that wakes it is not
        _eventually(lambda: _applied(rt) == [2, 2, 2])
        time.sleep(0.1)
        assert t.is_alive() and not t.out
        gate.set()
        t.join(10.0)
        assert t.out[0][1] == 7

    def test_fence_fast_path_rd_waits_for_the_write_it_saw(self, durable, gate):
        rt = durable
        gate.clear()
        _post_out(rt, "cfg", 5)
        _eventually(lambda: _applied(rt) == [1, 1, 1])
        t = _spawn(rt.rd, rt.main_ts, "cfg", formal(int))
        time.sleep(0.2)
        assert t.is_alive() and not t.out
        gate.set()
        t.join(10.0)
        assert t.out[0][1] == 5
        counters = rt.metrics_snapshot()["counters"]
        # answered by one replica off the total order, and still held
        assert counters["read_fastpath"] == 1
        assert counters["read_fallback"] == 0

    def test_fence_quiesce_returns_only_when_durable(self, durable, gate):
        rt = durable
        gate.clear()
        for i in range(5):
            _post_out(rt, "q", i)
        t = _spawn(rt.quiesce)
        _eventually(lambda: _applied(rt) == [5, 5, 5])
        time.sleep(0.1)
        assert t.is_alive()
        gate.set()
        t.join(10.0)
        assert t.out == [None]
        st = rt.journal_status()[0]
        assert st["durable_slot"] == st["journal_slot"] == 5
        assert rt.metrics_snapshot()["gauges"]["journal_lag"] == 0

    def test_fence_release_is_in_applied_order(self, durable, gate):
        """One fsync covering three slots releases them oldest first —
        whatever order the replicas' frames arrived in, and with a
        CancelRequest's completion among them."""
        rt = durable
        g = rt.group
        delivered = []
        # held frames are released through the journal's handle on the
        # group's delivery — and here every frame is held
        real_complete = g.journal._complete

        def spy(replica_id, rid, result):
            delivered.append(rid)
            real_complete(replica_id, rid, result)

        g.journal._complete = spy
        g.requests.tell(0, "sleep", 0.5)  # replica 0 answers last
        gate.clear()
        # slot 1 parks, the timeout orders a CancelRequest at slot 2,
        # whose completion (the in_'s "cancelled") is produced there
        t_in = _spawn(rt.in_, rt.main_ts, "never", formal(int), timeout=0.05)
        _eventually(lambda: rt.query(1, "applied") == 2)
        t_out = _spawn(rt.out, rt.main_ts, "x", 1)  # slot 3
        _eventually(lambda: _applied(rt) == [3, 3, 3])
        _eventually(lambda: len(g.journal._held) == 6)
        held = list(g.journal._held)
        arrival = [h[0] for h in held]
        assert arrival != sorted(arrival)  # replica 0's frames came last
        slot_of = {rid: h[0] for h in held for rid, _result in h[2]}
        assert t_in.is_alive() and t_out.is_alive()
        gate.set()
        t_in.join(10.0)
        t_out.join(10.0)
        assert isinstance(t_in.out[0], TimeoutError_)
        assert t_in.out[0].outcome == "cancelled"
        assert t_out.out == [None]
        order = [slot_of[rid] for rid in delivered]
        assert order == [2, 2, 2, 3, 3, 3]

    def test_many_clients_under_a_short_switch_interval(self, durable):
        """More clients than cores, threads switching every 10 µs: every
        statement completes exactly once, the watermark only climbs, and
        when the dust settles nothing is left parked."""
        rt = durable
        g = rt.group
        n_clients, rounds = 8, 40
        watermarks = [[] for _ in range(n_clients)]

        def client(c):
            for i in range(rounds):
                rt.out(rt.main_ts, "s", c, i)
                watermarks[c].append(g.journal._durable)
                assert rt.rd(rt.main_ts, "s", c, i) is not None
                assert rt.in_(rt.main_ts, "s", c, formal(int))[2] == i
            return "done"

        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [_spawn(client, c) for c in range(n_clients)]
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(before)
        assert [t.out for t in threads] == [["done"]] * n_clients
        for seen in watermarks:
            assert seen == sorted(seen) and seen[0] >= 1
        rt.quiesce()
        st = rt.journal_status()[0]
        # every out and in_ took a slot (a read only if it fell back)
        assert st["durable_slot"] == st["journal_slot"] >= 2 * n_clients * rounds
        assert g.journal._held == []
        assert rt.space_size(rt.main_ts) == 0

    def test_journal_stage_is_visible(self, durable):
        from repro.obs import render_budget

        rt = durable
        for i in range(20):
            rt.out(rt.main_ts, "m", i)
        rt.quiesce()
        snap = rt.metrics_snapshot()
        assert snap["histograms"]["journal_fsync"]["count"] >= 1
        # one sample per COMPS frame, zero-length when it did not park
        assert snap["histograms"]["journal_commit_wait"]["count"] >= 20
        assert snap["gauges"]["journal_lag"] == 0
        assert "journal fsync" in render_budget(snap)

    def test_no_thread_and_nothing_held_with_fsync_off(self, tmp_path):
        from repro.obs import render_budget
        from repro.parallel import ThreadedReplicaRuntime

        rt = ThreadedReplicaRuntime(
            2, durable_dir=str(tmp_path / "journal"), durable_fsync=False
        )
        try:
            assert rt.group.journal._thread is None and not rt.group.journal.fenced
            for i in range(10):
                rt.out(rt.main_ts, "m", i)
            st = rt.journal_status()[0]
            assert st["durable_slot"] == st["journal_slot"] == 10
            snap = rt.metrics_snapshot()
            assert snap["histograms"]["journal_fsync"]["count"] == 0
            assert "journal fsync" not in render_budget(snap)
        finally:
            rt.shutdown()

    def test_journal_thread_death_fails_the_group(self, tmp_path, monkeypatch):
        from repro import RuntimeFailure
        from repro.parallel import ThreadedReplicaRuntime

        def broken(log):
            raise OSError("disk on fire")

        monkeypatch.setattr(SegmentedLog, "sync", broken)
        rt = ThreadedReplicaRuntime(2, durable_dir=str(tmp_path / "journal"))
        try:
            with pytest.raises(RuntimeFailure, match="journal thread died"):
                rt.out(rt.main_ts, "x", 1)
            with pytest.raises(RuntimeFailure):
                rt.out(rt.main_ts, "x", 2)
        finally:
            rt.shutdown()


class TestCleanShutdown:
    @pytest.mark.parametrize("backend", ["threaded", "multiproc"])
    def test_shutdown_after_burst_loses_nothing(self, tmp_path, backend):
        from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime

        cls = ThreadedReplicaRuntime if backend == "threaded" else MultiprocessRuntime
        d = str(tmp_path / "journal")
        rt = cls(3, durable_dir=d)
        for i in range(300):
            _post_out(rt, "burst", i)
        rt.shutdown()  # no quiesce: the sequencer may not have flushed yet

        back = cls(3, durable_dir=d)
        try:
            assert back.space_size(back.main_ts) == 300
            assert back.group.journal_replayed == 300
        finally:
            back.shutdown()


#: Subprocess victim for the sixth crash point.  Prints one line per
#: *acknowledged* statement, with the durable slot it saw afterwards.
_GROUP_VICTIM = """
import sys, threading
from repro.parallel import ThreadedReplicaRuntime

dir, phase = sys.argv[1], sys.argv[2]
rt = ThreadedReplicaRuntime(3, durable_dir=dir)

def acked_out(tag, i):
    rt.out(rt.main_ts, tag, i)
    durable = rt.journal_status()[0]["durable_slot"]
    print("ACK", tag, i, durable, flush=True)

if phase == "populate":
    for i in range(25):
        acked_out("seed", i)
    rt.shutdown()
else:
    # dies in the journal thread, between the write and the first fsync,
    # with these four written, broadcast and (probably) applied
    threads = [
        threading.Thread(target=acked_out, args=("doomed", i), daemon=True)
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    print("survived", flush=True)
"""


def _drop_records_past(dir, slot):
    """Power loss: keep only the journal records at or below *slot*.

    A SIGKILL leaves behind whatever the OS was holding; losing the
    suffix nobody fsynced is what pulling the plug would have done.
    Returns the number of records dropped.
    """
    dropped = 0
    for name in sorted(os.listdir(dir)):
        if not name.startswith("segment-"):
            continue
        path = os.path.join(dir, name)
        with open(path, "rb") as f:
            data = f.read()
        keep = off = 0
        while off + 4 <= len(data):
            (length,) = struct.unpack(">I", data[off : off + 4])
            end = off + 4 + length
            if end > len(data):
                break
            if pickle.loads(data[off + 4 : end])[0] <= slot:
                keep = end
            else:
                dropped += 1
            off = end
        with open(path, "r+b") as f:
            f.truncate(keep)
    return dropped


class TestCrashBeforeFsync:
    def test_journal_before_fsync_loses_nothing_acknowledged(self, tmp_path):
        from repro.parallel import ThreadedReplicaRuntime

        def run(phase, crashpoint=None):
            return _run_victim(
                tmp_path, phase, crashpoint, source=_GROUP_VICTIM, dir="journal"
            )

        pop = run("populate")
        assert pop.returncode == 0, pop.stderr
        victim = run("crash", "journal_before_fsync")
        assert victim.returncode == -signal.SIGKILL, (
            f"expected SIGKILL, got rc={victim.returncode} "
            f"out={victim.stdout!r} err={victim.stderr!r}"
        )
        assert "survived" not in victim.stdout

        acks = [
            line.split()
            for line in (pop.stdout + victim.stdout).splitlines()
            if line.startswith("ACK ")
        ]
        acked = {(tag, int(i)) for _ack, tag, i, _durable in acks}
        assert len(acked) >= 25
        last_durable = max(int(durable) for *_rest, durable in acks)

        d = str(tmp_path / "journal")
        # the victim died holding written, un-synced records: pull the plug
        assert _drop_records_past(d, last_durable) >= 1

        back = ThreadedReplicaRuntime(3, durable_dir=d)
        try:
            for tag, i in acked:
                assert back.rdp(back.main_ts, tag, i) is not None, (tag, i)
            assert back.space_size(back.main_ts) == len(acked)
            assert back.converged()
        finally:
            back.shutdown()

"""Durability at scale: segmented WAL, crash points, chunked transfer.

Covers the claims of the segmented durability plane
(:mod:`repro.persist.segments`) and the durable replica-group journal:

- recovery is bounded by the snapshot cadence, not the history;
- a SIGKILL at any planted crash point (mid-record, either side of the
  snapshot rename, before and during prune) recovers to a
  fingerprint-identical state — exercised in real subprocesses via
  ``REPRO_CRASHPOINT``;
- ``read_at`` views are snapshot-isolated no matter how much the live
  space churns;
- chunked state transfer survives a donor dying mid-stream (a *second*
  crash during recovery from the first), on both parallel backends;
- a durable replica group restarted from nothing replays its journal to
  the last fsynced slot.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro import formal
from repro.chaos import ChaosMonkey
from repro.core.spaces import MAIN_TS
from repro.persist import CRASHPOINT_ENV, SegmentedWALRuntime, replay_dir

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Subprocess victim: phase "populate" builds a clean directory and
#: prints the fingerprint; phase "compact"/"append" re-opens it (with a
#: crash point armed by the parent) and runs the action that crosses it.
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
"""

_CRASH_POINTS = [
    ("segment_mid_record", "append"),
    ("snapshot_before_rename", "compact"),
    ("snapshot_after_rename", "compact"),
    ("manifest_before_prune", "compact"),
    ("prune_partial", "compact"),
]


def _run_victim(tmp_path, phase, crashpoint=None):
    script = tmp_path / "victim.py"
    script.write_text(_VICTIM)
    env = dict(os.environ, PYTHONPATH=_SRC)
    if crashpoint is not None:
        env[CRASHPOINT_ENV] = crashpoint
    else:
        env.pop(CRASHPOINT_ENV, None)
    return subprocess.run(
        [sys.executable, str(script), str(tmp_path / "wal"), phase],
        env=env, capture_output=True, text=True, timeout=60,
    )


class TestSegmentedRuntime:
    def test_rotation_and_recovery(self, tmp_path):
        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(d, segment_bytes=512, fsync=False)
        for i in range(80):
            rt.out(MAIN_TS, "x", i)
        before = rt.state_machine.fingerprint()
        assert rt.log.status()["segments"] > 1  # really rotated
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
        segs_before = rt.log.status()["segments"]
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
        import pickle

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
        rt.log.write_snapshot(30, pickle.dumps(rt.state_machine.snapshot()))
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

    def test_background_compactor_count_trigger(self, tmp_path):
        import time

        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(
            d, segment_bytes=512, fsync=False, compact_every=20
        )
        for i in range(25):
            rt.out(MAIN_TS, "x", i)
        deadline = time.monotonic() + 10.0
        while rt.snapshots_written == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert rt.snapshots_written >= 1
        assert rt.snapshot_slot >= 20
        rt.close()

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
        from repro.replication import ReplicaGroup
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
        for chunk_bytes in (ReplicaGroup.transfer_chunk_bytes, 64):
            monkeypatch.setattr(ReplicaGroup, "transfer_chunk_bytes", chunk_bytes)
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

    def test_transfer_interrupted_by_second_crash_threaded(self):
        from repro.parallel import ThreadedReplicaRuntime

        rt = ThreadedReplicaRuntime(3)
        try:
            for i in range(150):
                rt.out(rt.main_ts, "item", i, "pad" * 20)
            rt.quiesce()
            g = rt.group
            g.transfer_chunk_bytes = 1024  # force a multi-chunk transfer
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
            g.transfer_chunk_bytes = 1024
            monkey = ChaosMonkey(rt)
            g.crash_replica(2)
            fired = monkey.kill_donor_mid_transfer(at_chunk=1)
            g.recover_replica(2)
            donor = fired()
            assert donor is not None
            assert not g.alive[donor]
            rt.quiesce()
            assert g.converged()

"""Tests for the journaled stable tuple space (the A5 design alternative)."""

import os
import threading

import pytest

from repro import AGS, Guard, Op, formal, ref
from repro.core.spaces import MAIN_TS
from repro.core.statemachine import ExecuteAGS
from repro.persist import SegmentedWALRuntime


@pytest.fixture
def wal_dir(tmp_path):
    return str(tmp_path / "ts.wal")


class TestLogging:
    def test_basic_roundtrip_still_works(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        rt.out(MAIN_TS, "x", 1)
        assert rt.in_(MAIN_TS, "x", formal(int)) == ("x", 1)
        assert rt.wal_status()["journal_slot"] == 2  # two records
        rt.close()

    def test_crash_and_recover_restores_tuples(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        for i in range(5):
            rt.out(MAIN_TS, "data", i)
        rt.in_(MAIN_TS, "data", 2)
        h = rt.create_space("aux")
        rt.out(h, "k", "v")
        before = rt.state_machine.fingerprint()
        rt.crash()

        back = SegmentedWALRuntime.recover(wal_dir)
        assert back.state_machine.fingerprint() == before
        assert sorted(t[1] for t in back.space_tuples(MAIN_TS)) == [0, 1, 3, 4]
        assert back.space_tuples(h) == [("k", "v")]
        back.close()

    def test_parked_statements_survive_recovery(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        # park a statement through the journaling hook directly (no
        # client thread to race)
        with rt._lock:
            rt._apply(ExecuteAGS(999, -1, 0, AGS.single(Guard.in_(MAIN_TS, "later"))))
        rt.crash()
        back = SegmentedWALRuntime.recover(wal_dir)
        assert len(back.state_machine.blocked) == 1
        # the parked obligation still consumes the next matching tuple
        back.out(MAIN_TS, "later")
        assert back.space_size(MAIN_TS) == 0
        back.close()

    def test_recovery_after_atomic_updates(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        rt.out(MAIN_TS, "c", 0)
        incr = AGS.single(
            Guard.in_(MAIN_TS, "c", formal(int, "v")),
            [Op.out(MAIN_TS, "c", ref("v") + 1)],
        )
        for _ in range(7):
            rt.execute(incr)
        rt.crash()
        back = SegmentedWALRuntime.recover(wal_dir)
        assert back.rd(MAIN_TS, "c", formal(int)) == ("c", 7)
        back.close()

    def test_recovered_runtime_keeps_logging(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        rt.out(MAIN_TS, "a", 1)
        rt.crash()
        mid = SegmentedWALRuntime.recover(wal_dir, fsync=False)
        mid.out(MAIN_TS, "b", 2)
        mid.crash()
        back = SegmentedWALRuntime.recover(wal_dir)
        names = sorted(t[0] for t in back.space_tuples(MAIN_TS))
        assert names == ["a", "b"]
        back.close()

    def test_torn_final_record_discarded(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        rt.out(MAIN_TS, "a", 1)
        rt.out(MAIN_TS, "b", 2)
        segment = rt.journal.log.active_segment
        rt.crash()
        # simulate a crash mid-write: truncate the last few bytes
        with open(segment, "r+b") as f:
            f.truncate(os.path.getsize(segment) - 3)
        back = SegmentedWALRuntime.recover(wal_dir)
        assert back.replayed == 1
        assert back.space_tuples(MAIN_TS) == [("a", 1)]
        back.close()

    def test_fsync_mode_works(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=True)
        rt.out(MAIN_TS, "durable", 1)
        rt.crash()
        back = SegmentedWALRuntime.recover(wal_dir)
        assert back.space_tuples(MAIN_TS) == [("durable", 1)]
        back.close()

    def test_timed_out_in_leaves_nothing_parked(self, wal_dir):
        # the timed-out in_ was journaled as a parked statement; the
        # cancellation must reach the real machine so a later out is not
        # swallowed by a waiter nobody is waiting on
        from repro import TimeoutError_

        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        with pytest.raises(TimeoutError_):
            rt.in_(MAIN_TS, "never", timeout=0.05)
        assert len(rt.state_machine.blocked) == 0
        rt.out(MAIN_TS, "never")
        assert rt.inp(MAIN_TS, "never") is not None
        rt.close()

    @pytest.mark.parametrize("out_before_restart", [True, False])
    def test_timed_out_in_stays_withdrawn_after_recovery(
        self, wal_dir, out_before_restart
    ):
        # the cancellation is journaled like any command, so replay does
        # not park the withdrawn in_ again to eat the next matching out —
        # whether that out came before the restart or after it
        from repro import TimeoutError_

        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        with pytest.raises(TimeoutError_):
            rt.in_(MAIN_TS, "job", 1, timeout=0.05)
        if out_before_restart:
            rt.out(MAIN_TS, "job", 1)
        live = rt.state_machine.fingerprint()
        rt.crash()
        back = SegmentedWALRuntime.recover(wal_dir)
        assert back.state_machine.fingerprint() == live
        if not out_before_restart:
            back.out(MAIN_TS, "job", 1)
        assert back.rdp(MAIN_TS, "job", 1) == ("job", 1)
        back.close()

    def test_fsyncs_show_in_journal_fsync(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=True)
        for i in range(3):
            rt.out(MAIN_TS, "durable", i)
        # one fsync per command, on the submitting thread
        assert rt.metrics_snapshot()["histograms"]["journal_fsync"]["count"] == 3
        rt.close()


class TestCompaction:
    def test_compact_preserves_state(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        for i in range(20):
            rt.out(MAIN_TS, "x", i)
        for i in range(10):
            rt.in_(MAIN_TS, "x", i)
        before = rt.state_machine.fingerprint()
        assert rt.compact() == 30  # 30 records became 1 snapshot
        rt.crash()
        back = SegmentedWALRuntime.recover(wal_dir)
        assert back.state_machine.fingerprint() == before
        assert back.replayed == 1
        back.close()

    def test_appends_after_compaction_replay(self, wal_dir):
        rt = SegmentedWALRuntime(wal_dir, fsync=False)
        rt.out(MAIN_TS, "old", 1)
        rt.compact()
        rt.out(MAIN_TS, "new", 2)
        rt.crash()
        back = SegmentedWALRuntime.recover(wal_dir)
        names = sorted(t[0] for t in back.space_tuples(MAIN_TS))
        assert names == ["new", "old"]
        back.close()

    def test_compaction_under_concurrent_churn(self, wal_dir):
        # small segments, so rotation and pruning race the churning writer
        rt = SegmentedWALRuntime(wal_dir, fsync=False, segment_bytes=4096)
        for i in range(100):
            rt.out(MAIN_TS, "resident", i)
        errors = []

        def churn():
            try:
                for i in range(1500):
                    rt.out(MAIN_TS, "churn", i)
                    if i % 3:  # every third out is left behind
                        assert rt.inp(MAIN_TS, "churn", i) == ("churn", i)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        t = threading.Thread(target=churn)
        t.start()
        slots = []
        while t.is_alive():
            slot = rt.compact()
            if slot is not None:
                slots.append(slot)
        t.join(timeout=60)
        assert not t.is_alive() and errors == []
        assert len(slots) > 1 and slots == sorted(slots)
        rt.out(MAIN_TS, "after", 1)  # a delta past the last snapshot
        live = rt.state_machine.fingerprint()
        rt.crash()
        back = SegmentedWALRuntime.recover(wal_dir)
        assert back.snapshot_slot == slots[-1]
        assert back.state_machine.fingerprint() == live
        assert back.space_size(MAIN_TS) == 100 + 500 + 1
        back.close()

"""Backend-specific tests for the real-parallelism runtimes.

The semantics shared by every backend (Linda ops, AGS atomicity, crash
tolerance, convergence, metrics) live in ``test_backend_contract.py``;
this file keeps only behaviour unique to one backend — ordered
cancellation, cross-process pickling, snapshot recovery — and the
threads each configuration starts (DESIGN.md's component table).
"""

import threading

import pytest

from repro import AGS, Guard, Op, TimeoutError_, formal, ref
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime


class TestThreadedReplicas:
    @pytest.fixture
    def rt(self):
        rt = ThreadedReplicaRuntime(n_replicas=3)
        yield rt
        rt.shutdown()

    def test_timeout_via_ordered_cancel(self, rt):
        with pytest.raises(TimeoutError_):
            rt.in_(rt.main_ts, "never", timeout=0.1)
        # the cancelled statement must not consume later tuples
        rt.out(rt.main_ts, "never")
        assert rt.inp(rt.main_ts, "never") is not None

    def test_crash_origin_replica(self, rt):
        rt.crash_replica(0)
        rt.out(rt.main_ts, "alive", 1)
        assert rt.in_(rt.main_ts, "alive", formal(int)) == ("alive", 1)


class TestMultiprocess:
    @pytest.fixture
    def rt(self):
        with MultiprocessRuntime(n_replicas=3) as rt:
            yield rt

    def test_ags_pickles_across_process_boundary(self, rt):
        rt.out(rt.main_ts, "c", 10)
        res = rt.execute(AGS.single(
            Guard.in_(rt.main_ts, "c", formal(int, "v")),
            [Op.out(rt.main_ts, "c", ref("v") * 3)],
        ))
        assert res.succeeded and res["v"] == 10
        assert rt.rd(rt.main_ts, "c", formal(int)) == ("c", 30)

    def test_timeout(self, rt):
        with pytest.raises(TimeoutError_):
            rt.in_(rt.main_ts, "never", timeout=0.1)

    def test_kill_then_recover_replica(self, rt):
        for i in range(5):
            rt.out(rt.main_ts, "pre", i)
        rt.crash_replica(1)
        for i in range(5):
            rt.out(rt.main_ts, "mid", i)
        rt.recover_replica(1)
        for i in range(3):
            rt.out(rt.main_ts, "post", i)
        assert rt.converged()
        assert len(rt.fingerprints()) == 3  # all three replicas live again
        # recovery tuple deposited, like on the simulated cluster
        assert rt.inp(rt.main_ts, "ft_recovery", 1) is not None

    def test_recovered_replica_blocked_statements_work(self, rt):
        rt.crash_replica(2)
        rt.recover_replica(2)
        h = rt.eval_(lambda proc: proc.in_(proc.main_ts, "later", formal(int)))
        rt.out(rt.main_ts, "later", 4)
        assert h.join(timeout=30) == ("later", 4)
        assert rt.converged()


def _threads_started(make):
    """The names of the threads that constructing a runtime starts."""
    before = set(threading.enumerate())
    rt = make()
    try:
        return sorted(t.name for t in threading.enumerate() if t not in before)
    finally:
        rt.shutdown()


class TestThreadsStarted:
    REPLICAS = ["replica-0.0", "replica-1.0", "replica-2.0"]

    def test_threaded(self):
        assert _threads_started(lambda: ThreadedReplicaRuntime(3)) == [
            *self.REPLICAS, "sequencer"
        ]

    def test_failure_detection_adds_the_monitor(self):
        started = _threads_started(
            lambda: ThreadedReplicaRuntime(3, detect_failures=True)
        )
        assert started == ["liveness-monitor", *self.REPLICAS, "sequencer"]

    def test_fsynced_journal_adds_its_thread(self, tmp_path):
        started = _threads_started(
            lambda: ThreadedReplicaRuntime(3, durable_dir=str(tmp_path))
        )
        assert started == ["journal", *self.REPLICAS, "sequencer"]

    def test_multiproc(self):
        assert _threads_started(lambda: MultiprocessRuntime(3)) == [
            "mp-collector-0.0", "mp-collector-1.0", "mp-collector-2.0",
            "mp-pipe-drain", "sequencer",
        ]

"""Backend-specific tests for the real-parallelism runtimes.

The semantics shared by every backend (Linda ops, AGS atomicity, crash
tolerance, convergence, metrics) live in ``test_backend_contract.py``;
this file keeps only behaviour unique to one backend — ordered
cancellation, cross-process pickling, snapshot recovery — the threads
each configuration starts (DESIGN.md's component table), and the wait
objects a statement parks on: a ``Latch``, never a Python-level
``Event``, ``Condition`` or ``Queue``.
"""

import queue
import threading
import time

import pytest

from repro import AGS, Guard, Op, TimeoutError_, formal, ref
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime
from repro.sync import Latch


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


class TestLatch:
    """What a parked statement waits on: ``Event.wait``'s contract, one setter."""

    def test_a_set_from_another_thread_wakes_the_waiter(self):
        latch = Latch()
        timer = threading.Timer(0.01, latch.set)
        timer.start()
        assert latch.wait(5.0)
        timer.join(5.0)

    def test_every_wait_after_the_set_returns_true(self):
        latch = Latch()
        latch.set()
        assert [latch.wait(t) for t in (None, 0, -1, 0.01, None)] == [True] * 5

    def test_a_timed_wait_returns_false(self):
        latch = Latch()
        t0 = time.monotonic()
        assert latch.wait(0.02) is False
        assert time.monotonic() - t0 >= 0.015

    def test_zero_and_negative_return_at_once_and_none_blocks_as_event_does(self):
        for timeout in (0, 0.0, -1, -0.5):
            assert Latch().wait(timeout) is threading.Event().wait(timeout) is False
        latch, woke = Latch(), []
        waiter = threading.Thread(target=lambda: woke.append(latch.wait(None)))
        waiter.start()
        waiter.join(0.05)
        assert waiter.is_alive() and woke == []
        latch.set()
        waiter.join(5.0)
        assert woke == [True]

    def test_a_second_set_raises(self):
        # every setter pops the registration first, so a second set is a bug
        latch = Latch()
        latch.set()
        with pytest.raises(RuntimeError):
            latch.set()
        assert latch.wait(0)


def _statement_mix(rt, rounds):
    """*rounds* × (``out``, fast-path ``rd``, ``in_``, one AGS)."""
    ts = rt.main_ts
    bump = AGS.single(
        Guard.in_(ts, "ctr", formal(int, "v")), [Op.out(ts, "ctr", ref("v") + 1)]
    )
    for i in range(rounds):
        rt.out(ts, "hot", i)
        assert rt.rd(ts, "hot", i) == ("hot", i)
        assert rt.in_(ts, "hot", i) == ("hot", i)
        assert rt.execute(bump).succeeded


class TestHotPathAllocations:
    """No statement builds a Python-level ``Event``, ``Condition`` or ``Queue``."""

    @pytest.mark.parametrize(
        "make", [ThreadedReplicaRuntime, MultiprocessRuntime], ids=["threaded", "multiproc"]
    )
    def test_200_statements_build_none(self, make, monkeypatch):
        built = []

        def counting(mod, name):
            cls = getattr(mod, name)

            def __init__(self, *args, **kwargs):
                built.append((name, threading.current_thread().name))
                cls.__init__(self, *args, **kwargs)

            monkeypatch.setattr(mod, name, type(name, (cls,), {"__init__": __init__}))

        with make(3) as rt:
            rt.out(rt.main_ts, "ctr", 0)
            _statement_mix(rt, 2)  # warm: every plan compiled
            fast = rt.metrics_snapshot()["counters"]["read_fastpath"]
            counting(threading, "Event")
            counting(threading, "Condition")
            counting(queue, "Queue")
            _statement_mix(rt, 50)
            monkeypatch.undo()
            assert rt.metrics_snapshot()["counters"]["read_fastpath"] == fast + 50
        assert built == []

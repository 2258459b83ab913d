"""Failure detection, self-healing recovery, and chaos injection.

These tests falsify the liveness plane's claims the hard way: replicas
are killed *behind the group's back* (SIGKILL on the multiprocess
backend, a halted worker thread on the threaded one) so only the
failure detector can notice — no cooperative ``crash_replica``
bookkeeping, no client conveniently timing out.  The poison-command and
internal-thread-death tests cover the other two fault classes the
replication layer promises to survive: a command whose apply raises on
every replica, and the group's own service threads dying mid-flight.

State-machine duplicate suppression (the at-most-once substrate under
the client retry helper) is unit-tested at the bottom, alongside the
transport incarnation fence that keeps a dead replica's last words from
being attributed to its successor.
"""

import os
import signal
import threading
import time

import pytest

from repro import AGS, Guard, Op, TimeoutError_, formal
from repro._errors import CommandFailed, RuntimeFailure
from repro.chaos import ChaosMonkey
from repro.core.spaces import MAIN_TS
from repro.core.statemachine import (
    FAILURE_TAG,
    CancelRequest,
    ExecuteAGS,
    TSStateMachine,
)
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime
from repro.replication import LivenessPolicy
from repro.replication.group import CLIENT_ORIGIN
from repro.replication.transport import InMemoryTransport

# Tight timings so tests run in seconds; suspect_after still comfortably
# exceeds a healthy replica's heartbeat turnaround.
POLICY = LivenessPolicy(
    probe_interval=0.05,
    suspect_after=0.3,
    auto_recover=True,
    backoff_initial=0.05,
    backoff_max=0.5,
)

BACKENDS = ["threaded", "multiproc"]


def _make_runtime(backend: str, *, liveness=POLICY):
    if backend == "threaded":
        return ThreadedReplicaRuntime(n_replicas=3, detect_failures=liveness)
    return MultiprocessRuntime(n_replicas=3, detect_failures=liveness)


@pytest.fixture(params=BACKENDS)
def rt(request):
    runtime = _make_runtime(request.param)
    yield runtime
    runtime.shutdown()


def _failure_tuples(runtime, replica_id):
    tuples = runtime.query(replica_id, "space_tuples", MAIN_TS)
    return [t for t in tuples if t and t[0] == FAILURE_TAG]


class TestDetection:
    """Non-cooperative kills: only the detector can notice."""

    def test_kill_detected_without_cooperative_calls(self, rt):
        monkey = ChaosMonkey(rt)
        for i in range(10):
            rt.out(rt.main_ts, "pre", i)
        monkey.kill_replica(1)
        # no further group traffic: detection must come from the monitor's
        # own pings + transport probes, not from a client tripping over
        # the corpse
        elapsed = monkey.wait_detected(1, timeout=5.0)
        assert elapsed < POLICY.suspect_after + 4 * POLICY.probe_interval + 1.0
        # the monitor flips the alive mask (what wait_detected polls) a
        # few instructions before it counts the detection
        deadline = time.monotonic() + 2.0
        snap = rt.metrics_snapshot()
        while (
            not snap["histograms"]["detection_latency"]["count"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
            snap = rt.metrics_snapshot()
        assert snap["counters"]["failures_detected"] >= 1
        assert snap["histograms"]["detection_latency"]["count"] >= 1

    def test_failure_tuple_once_per_survivor_same_slot(self, rt):
        monkey = ChaosMonkey(rt)
        monkey.kill_replica(2)
        monkey.wait_detected(2, timeout=5.0)
        monkey.wait_recovered(2, timeout=10.0)
        rt.quiesce()
        # exactly one ordered HostFailed: every replica (survivors and the
        # reincarnated victim, which caught up by state transfer) holds
        # exactly one failure tuple, and their full states agree
        for replica_id in range(3):
            failures = _failure_tuples(rt, replica_id)
            assert len(failures) == 1, (replica_id, failures)
            assert failures[0][1] == 2
        assert rt.converged()

    def test_in_flight_call_survives_kill(self, rt):
        monkey = ChaosMonkey(rt)
        got = []

        def blocked_reader():
            got.append(rt.in_(rt.main_ts, "await", formal(int), timeout=15.0))

        t = threading.Thread(target=blocked_reader)
        t.start()
        time.sleep(0.2)  # let the guard reach the replicas and park
        monkey.kill_replica(1)
        monkey.wait_detected(1, timeout=5.0)
        rt.out(rt.main_ts, "await", 7)
        t.join(timeout=15.0)
        assert not t.is_alive()
        assert got == [("await", 7)]

    def test_auto_recovery_rejoins_and_converges(self, rt):
        monkey = ChaosMonkey(rt)
        for i in range(5):
            rt.out(rt.main_ts, "pre", i)
        monkey.kill_replica(1)
        monkey.wait_detected(1, timeout=5.0)
        for i in range(5):
            rt.out(rt.main_ts, "mid", i)
        monkey.wait_recovered(1, timeout=10.0)
        for i in range(5):
            rt.out(rt.main_ts, "post", i)
        assert rt.converged()
        assert len(rt.fingerprints()) == 3
        snap = rt.metrics_snapshot()
        assert snap["counters"]["auto_recoveries"] >= 1
        assert snap["gauges"]["live_replicas"] == 3

    def test_delay_is_not_death(self, rt):
        """A slow replica must not be shot: the probe still passes."""
        monkey = ChaosMonkey(rt)
        monkey.delay_replica(1, POLICY.suspect_after * 2)
        time.sleep(POLICY.suspect_after * 3)
        assert rt.group.alive == [True, True, True]
        assert rt.metrics_snapshot()["counters"].get("failures_detected", 0) == 0
        rt.out(rt.main_ts, "after-delay", 1)
        assert rt.converged()

    def test_runtime_never_writes_to_the_callers_policy(self):
        """A policy without ``auto_recover`` is shared as it is: a runtime
        built from it never self-heals, and never writes to it."""
        policy = LivenessPolicy(
            probe_interval=0.05, suspect_after=0.3,
            backoff_initial=0.05, backoff_max=0.5,
        )
        rt = ThreadedReplicaRuntime(2, detect_failures=policy)
        try:
            monkey = ChaosMonkey(rt)
            monkey.kill_replica(1)
            monkey.wait_detected(1, timeout=5.0)
            time.sleep(policy.backoff_max + 4 * policy.probe_interval)
            assert rt.group.alive == [True, False]
            assert rt.metrics_snapshot()["counters"].get("auto_recoveries", 0) == 0
        finally:
            rt.shutdown()
        assert policy.auto_recover is False

    def test_stopped_replica_cannot_wedge_the_group(self):
        """SIGSTOP, not SIGKILL: the replica stops reading its command pipe.

        A transport write that blocked on the full pipe would park the
        sequencer inside the sequencer lock: every later call would hang,
        and so would declaring the replica dead, which takes the same
        lock.  Silence alone never kills (the process probe still
        passes), so the detector declares the replica dead only once the
        stopped process is killed — with its backlog still pending.
        """
        rt = _make_runtime("multiproc")
        try:
            monkey = ChaosMonkey(rt)
            transport = rt.group.transport
            pid = transport.processes[1].pid
            os.kill(pid, signal.SIGSTOP)
            payload = "x" * 1024
            for i in range(300):  # several times what the pipe holds
                out = AGS.atomic(Op.out(rt.main_ts, "stalled", i, payload))
                assert not rt.execute(out, timeout=30.0).aborted
            assert transport.depth(1) > 0
            assert rt.group.alive == [True, True, True]
            os.kill(pid, signal.SIGKILL)
            monkey.wait_detected(1, timeout=5.0)
            for i in range(5):
                rt.out(rt.main_ts, "mid", i)
            monkey.wait_recovered(1, timeout=10.0)
            assert rt.converged()
            assert len(rt.fingerprints()) == 3
        finally:
            rt.shutdown()


class TestKillMidBatch:
    """SIGKILL while a batch is in flight: the paper's fail-silent crash."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_churn_through_kill(self, backend):
        rt = _make_runtime(backend)
        monkey = ChaosMonkey(rt)
        stop = threading.Event()
        completed = [0]

        def churn():
            k = 0
            while not stop.is_set():
                rt.out(rt.main_ts, "churn", k)
                rt.in_(rt.main_ts, "churn", k)
                completed[0] += 1
                k += 1

        t = threading.Thread(target=churn)
        t.start()
        try:
            time.sleep(0.2)  # guarantee batches are genuinely in flight
            monkey.kill_replica(1)
            monkey.wait_detected(1, timeout=5.0)
            monkey.wait_recovered(1, timeout=10.0)
            time.sleep(0.2)  # churn across the healed group
        finally:
            stop.set()
            t.join(timeout=30.0)
        try:
            assert not t.is_alive()
            before_kill = completed[0]
            assert before_kill > 0
            rt.quiesce()
            assert rt.converged()
            for replica_id in range(3):
                assert len(_failure_tuples(rt, replica_id)) == 1
        finally:
            rt.shutdown()


class TestPoisonCommand:
    """A command whose apply raises must fail the client, not the group."""

    def test_poison_fails_client_replicas_stay_identical(self, rt):
        monkey = ChaosMonkey(rt)
        rt.out(rt.main_ts, "before", 1)
        exc = monkey.poison_command()
        assert isinstance(exc, CommandFailed)
        assert "TypeError" in str(exc)
        # every replica skipped the poison identically: still converged,
        # all three live, and the group still does real work
        assert rt.converged()
        assert rt.group.alive == [True, True, True]
        rt.out(rt.main_ts, "after", 2)
        assert rt.in_(rt.main_ts, "after", formal(int)) == ("after", 2)


class TestInternalThreadDeath:
    """The group's own service threads dying must not wedge clients."""

    @pytest.fixture
    def threaded(self):
        runtime = ThreadedReplicaRuntime(n_replicas=3)
        yield runtime
        runtime.shutdown()

    def test_sequencer_death_fails_parked_and_future_calls(self, threaded):
        monkey = ChaosMonkey(threaded)
        errors = []

        def parked():
            try:
                threaded.in_(threaded.main_ts, "never", formal(int), timeout=30.0)
            except RuntimeFailure as exc:
                errors.append(exc)

        t = threading.Thread(target=parked)
        t.start()
        time.sleep(0.2)
        monkey.kill_sequencer()
        t.join(timeout=10.0)
        assert not t.is_alive(), "parked call wedged after sequencer death"
        assert len(errors) == 1
        # subsequent calls fail fast instead of queueing into the void
        t0 = time.monotonic()
        with pytest.raises(RuntimeFailure):
            threaded.out(threaded.main_ts, "x", 1)
        assert time.monotonic() - t0 < 1.0


class TestRetries:
    """client retry helper: at-most-once even across resubmission."""

    @pytest.fixture
    def threaded(self):
        runtime = ThreadedReplicaRuntime(n_replicas=3)
        yield runtime
        runtime.shutdown()

    def test_duplicate_submission_applies_once(self, threaded):
        group = threaded.group
        cmd = ExecuteAGS(
            group.next_request_id(),
            CLIENT_ORIGIN,
            0,
            AGS.atomic(Op.out(MAIN_TS, "dup", 1)),
        )
        first = group.call(cmd, 10.0)
        replay = group.call(cmd, 10.0)
        assert first == replay  # memoized completion, not a re-execution
        assert threaded.inp(threaded.main_ts, "dup", formal(int)) is not None
        assert threaded.inp(threaded.main_ts, "dup", formal(int)) is None

    def test_cancelled_statement_retries_fresh(self, threaded):
        group = threaded.group
        cmd = ExecuteAGS(
            group.next_request_id(),
            CLIENT_ORIGIN,
            0,
            AGS.single(Guard.in_(MAIN_TS, "late", formal(int, "v"))),
        )
        with pytest.raises(TimeoutError_) as exc_info:
            group.call(cmd, 0.1)
        # provably withdrawn: the ordered cancel won, so resubmitting the
        # same request id re-executes instead of replaying the cancel
        assert exc_info.value.outcome == "cancelled"
        threaded.out(threaded.main_ts, "late", 9)
        # every replica reports the cancel; let the slower two finish, or
        # theirs can reach the resubmission's waiter first (the stale
        # cancel ``retries`` exists for — this call passes none)
        threaded.quiesce()
        result = group.call(cmd, 10.0)
        assert result.succeeded and result["v"] == 9

    def test_retries_kwarg_eventually_succeeds_no_double_apply(self, threaded):
        group = threaded.group

        def deposit():
            time.sleep(0.4)
            threaded.out(threaded.main_ts, "eventually", 1)

        depositor = threading.Thread(target=deposit)
        depositor.start()
        cmd = ExecuteAGS(
            group.next_request_id(),
            CLIENT_ORIGIN,
            0,
            AGS.single(Guard.in_(MAIN_TS, "eventually", formal(int))),
        )
        result = group.call(cmd, 0.15, retries=8)
        depositor.join()
        assert result.succeeded
        # consumed exactly once despite up to 8 resubmissions of one rid
        assert threaded.inp(threaded.main_ts, "eventually", formal(int)) is None
        assert threaded.converged()


class TestStateMachineDedup:
    """The duplicate-suppression memo under the retry helper."""

    def _out(self, rid, *fields):
        return ExecuteAGS(rid, 0, 0, AGS.atomic(Op.out(MAIN_TS, *fields)))

    @staticmethod
    def _tuples(sm):
        return [t.fields for t in sm.registry.store(MAIN_TS).to_list()]

    def test_memo_replays_without_reexecution(self):
        sm = TSStateMachine()
        cmd = self._out(1, "t", 1)
        first = sm.apply(cmd)
        again = sm.apply(cmd)
        assert len(first) == 1 and len(again) == 1
        assert again[0].result == first[0].result
        # one execution: exactly one tuple in the space
        assert len(self._tuples(sm)) == 1

    def test_duplicate_of_parked_statement_is_dropped(self):
        sm = TSStateMachine()
        guard = ExecuteAGS(
            1, 0, 0, AGS.single(Guard.in_(MAIN_TS, "w", formal(int)))
        )
        assert sm.apply(guard) == []  # parks
        assert sm.apply(guard) == []  # duplicate: dropped, not double-parked
        woken = sm.apply(self._out(2, "w", 5))
        # the single park wakes exactly once
        assert [c.request_id for c in woken if c.request_id == 1] == [1]

    def test_cancellation_is_not_memoized(self):
        sm = TSStateMachine()
        guard = ExecuteAGS(
            1, 0, 0, AGS.single(Guard.in_(MAIN_TS, "c", formal(int)))
        )
        sm.apply(guard)
        cancelled = sm.apply(CancelRequest(2, 0, 1))
        assert len(cancelled) == 1 and not cancelled[0].result.succeeded
        sm.apply(self._out(3, "c", 8))
        # the same rid re-executes fresh — and now finds its tuple
        redone = sm.apply(guard)
        assert len(redone) == 1 and redone[0].result.succeeded

    def test_memo_survives_snapshot_roundtrip(self):
        sm = TSStateMachine()
        cmd = self._out(1, "s", 1)
        original = sm.apply(cmd)
        clone = TSStateMachine.from_snapshot(sm.snapshot())
        replay = clone.apply(cmd)
        assert replay[0].result == original[0].result
        assert len(self._tuples(clone)) == 1
        assert clone.fingerprint() == sm.fingerprint()


class TestIncarnationFence:
    """A dead replica's last words must not reach the group."""

    def test_stale_incarnation_items_are_dropped(self):
        transport = InMemoryTransport(2)
        delivered = []
        transport.start(lambda rid, item: delivered.append((rid, item)))
        try:
            # heartbeat answers: the monitor's qid-0 "applied" query
            transport._deliver(0, 0, ("QUERY", 0, 0, 0))
            transport.stop_replica(0)  # bumps the incarnation first
            transport._deliver(0, 0, ("QUERY", 0, 0, 1))  # posthumous: fenced
            transport.restart_replica(0)
            transport._deliver(0, 0, ("QUERY", 0, 0, 2))  # still the old incarnation
            transport._deliver(0, 1, ("QUERY", 0, 0, 3))  # the successor's voice
        finally:
            transport.shutdown([True, True])
        fenced = [item for _, item in delivered if item[0] == "QUERY"]
        assert fenced == [("QUERY", 0, 0, 0), ("QUERY", 0, 0, 3)]

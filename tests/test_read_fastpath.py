"""The read fast path and the replication core's timeout/leak fixes.

Covers the read-only classifier, read-your-writes through the fast lane,
every rung of the fallback ladder (miss, crash, ordered timeout), and the
regression suite for the bookkeeping leaks: the group's waiters, the read
lane's registrations and the pending requests must be empty after every
way a call or query can end.
"""

import sys
import threading

import pytest

from repro import AGS, Guard, Op, TimeoutError_, formal, ref
from repro.core.spaces import MAIN_TS
from repro.core.statemachine import CancelRequest, ExecuteAGS
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime
from repro.replication.group import CLIENT_ORIGIN

BACKENDS = {
    "threaded": ThreadedReplicaRuntime,
    "multiproc": MultiprocessRuntime,
}


@pytest.fixture(params=sorted(BACKENDS))
def rt(request):
    rt = BACKENDS[request.param](n_replicas=3)
    yield rt
    rt.shutdown()


@pytest.fixture
def trt():
    rt = ThreadedReplicaRuntime(n_replicas=3)
    yield rt
    rt.shutdown()


def assert_clean(group):
    """The leak regression: no registration survives its call."""
    assert not group._waiters
    assert not group.reads._reads
    assert not group.requests._pending


class TestReadOnlyClassifier:
    def test_rd_and_rdp_forms_are_read_only(self):
        assert AGS.single(Guard.rd(MAIN_TS, "x", formal(int))).read_only
        assert AGS.single(Guard.rdp(MAIN_TS, "x", formal(int))).read_only
        assert AGS.single(
            Guard.rd(MAIN_TS, "x", formal(int, "v")),
            [Op.rd(MAIN_TS, "y", formal(int)), Op.rdp(MAIN_TS, "z")],
        ).read_only

    def test_consuming_and_writing_forms_are_not(self):
        assert not AGS.single(Guard.in_(MAIN_TS, "x", formal(int))).read_only
        assert not AGS.single(Guard.inp(MAIN_TS, "x")).read_only
        assert not AGS.single(
            Guard.rd(MAIN_TS, "x", formal(int)), [Op.out(MAIN_TS, "y", 1)]
        ).read_only
        assert not AGS.single(
            Guard.rd(MAIN_TS, "x", formal(int)), [Op.in_(MAIN_TS, "y")]
        ).read_only
        # an unconditional write: TRUE guard does not make it read-only
        assert not AGS.atomic(Op.out(MAIN_TS, "x", 1)).read_only

    def test_disjunction_read_only_iff_every_branch_is(self):
        ro = AGS(
            [
                AGS.single(Guard.rd(MAIN_TS, "a")).branches[0],
                AGS.single(Guard.rdp(MAIN_TS, "b")).branches[0],
            ]
        )
        assert ro.read_only
        mixed = AGS(
            [
                AGS.single(Guard.rd(MAIN_TS, "a")).branches[0],
                AGS.single(Guard.in_(MAIN_TS, "b")).branches[0],
            ]
        )
        assert not mixed.read_only


class TestFastPathSemantics:
    def test_read_your_writes(self, rt):
        for k in range(20):
            rt.out(rt.main_ts, "ryw", k)
            assert rt.rd(rt.main_ts, "ryw", k) == ("ryw", k)
        counters = rt.metrics_snapshot()["counters"]
        assert counters.get("read_fastpath", 0) >= 20
        assert_clean(rt.group)

    def test_rdp_takes_fast_path(self, rt):
        rt.out(rt.main_ts, "probe", 1)
        assert rt.rdp(rt.main_ts, "probe", formal(int)) == ("probe", 1)
        assert rt.rdp(rt.main_ts, "absent") is None
        counters = rt.metrics_snapshot()["counters"]
        assert counters.get("read_fastpath", 0) >= 2
        assert_clean(rt.group)

    def test_blocking_read_falls_back_to_ordered_park(self, rt):
        """A rd whose guard cannot fire locally must not spin or hang."""
        waiter = rt.eval_(
            lambda proc: proc.rd(proc.main_ts, "later", formal(int))
        )
        rt.out(rt.main_ts, "later", 7)
        assert waiter.join(timeout=30) == ("later", 7)
        counters = rt.metrics_snapshot()["counters"]
        assert counters.get("read_fallback", 0) >= 1
        assert_clean(rt.group)

    def test_reads_never_mutate_state(self, rt):
        rt.out(rt.main_ts, "keep", 1)
        for _ in range(10):
            assert rt.rd(rt.main_ts, "keep", formal(int)) == ("keep", 1)
        rt.quiesce()
        assert rt.space_size(rt.main_ts) == 1
        assert rt.converged()

    def test_escape_hatch_forces_ordered(self):
        rt = ThreadedReplicaRuntime(n_replicas=3, read_fastpath=False)
        try:
            rt.out(rt.main_ts, "x", 1)
            assert rt.rd(rt.main_ts, "x", formal(int)) == ("x", 1)
            counters = rt.metrics_snapshot()["counters"]
            assert counters.get("read_fastpath", 0) == 0
        finally:
            rt.shutdown()


class TestTimeoutBookkeeping:
    def test_fast_read_timeout_leaves_no_registrations(self, rt):
        with pytest.raises(TimeoutError_):
            rt.rd(rt.main_ts, "never", timeout=0.2)
        assert_clean(rt.group)
        # the timed-out read consumed nothing and blocks nothing
        rt.out(rt.main_ts, "never")
        assert rt.inp(rt.main_ts, "never") is not None
        assert_clean(rt.group)

    def test_ordered_timeout_leaves_no_registrations(self, rt):
        with pytest.raises(TimeoutError_):
            rt.in_(rt.main_ts, "never", timeout=0.2)
        assert_clean(rt.group)
        # satellite regression: the cancelled `in` never consumes a tuple
        rt.out(rt.main_ts, "never")
        assert rt.inp(rt.main_ts, "never") is not None
        assert_clean(rt.group)

    def test_unresponsive_group_pops_waiter(self, trt, monkeypatch):
        """The cancel-grace expiry must not leak the waiter (satellite 1)."""
        monkeypatch.setattr(
            "repro.replication.group._CANCEL_GRACE_S", 0.2
        )
        for i in range(3):
            trt.crash_replica(i, notify=False)
        with pytest.raises(TimeoutError_, match="unresponsive"):
            trt.in_(trt.main_ts, "never", timeout=0.1)
        assert_clean(trt.group)

    def test_completion_racing_cancel_returns_result(self, rt):
        """Satellite 4: a completion that lands between the guard timeout
        and the CancelRequest being sequenced is the call's result — the
        client must return the tuple, not raise."""
        group = rt.group
        orig_post = group.post
        fired = []

        def post(cmd):
            if isinstance(cmd, CancelRequest) and not fired:
                fired.append(True)
                # sequence a matching out *ahead* of the cancel: the in_
                # fires first, so the cancel arrives after completion
                orig_post(
                    ExecuteAGS(
                        group.next_request_id(),
                        CLIENT_ORIGIN,
                        0,
                        AGS.atomic(Op.out(rt.main_ts, "late", 1)),
                    )
                )
            orig_post(cmd)

        rt.group.post = post
        try:
            assert rt.in_(rt.main_ts, "late", formal(int), timeout=0.3) == (
                "late",
                1,
            )
        finally:
            rt.group.post = orig_post
        rt.quiesce()
        # consumed exactly once, by the call that returned it
        assert rt.inp(rt.main_ts, "late", formal(int)) is None
        assert_clean(rt.group)
        assert rt.converged()


class TestQueryBookkeeping:
    def test_query_fails_fast_on_crashed_replica(self, trt):
        trt.crash_replica(1)
        with pytest.raises(TimeoutError_, match="crashed"):
            trt.group.query(1, "applied")
        assert_clean(trt.group)

    def test_crash_answers_pending_queries(self, trt, monkeypatch):
        """A query in flight when its replica dies ends promptly, and the
        registration is reaped (satellite 2)."""
        transport = trt.group.transport
        orig_send = transport.send
        dropped = []

        def send(replica_id, item):
            if item[0] == "QUERY" and replica_id == 0 and not dropped:
                dropped.append(item)  # swallow it: the query now hangs
                return
            orig_send(replica_id, item)

        monkeypatch.setattr(transport, "send", send)
        failer = threading.Timer(0.3, trt.crash_replica, (0,))
        failer.start()
        try:
            with pytest.raises(TimeoutError_):
                trt.group.query(0, "applied", timeout=10.0)
        finally:
            failer.cancel()
        assert_clean(trt.group)

    def test_query_timeout_reaps_registration(self, trt, monkeypatch):
        transport = trt.group.transport
        orig_send = transport.send

        def send(replica_id, item):
            if item[0] == "QUERY":
                return  # never delivered: force the timeout path
            orig_send(replica_id, item)

        monkeypatch.setattr(transport, "send", send)
        with pytest.raises(TimeoutError_, match="did not answer"):
            trt.group.query(2, "applied", timeout=0.2)
        assert_clean(trt.group)

    def test_fingerprints_tolerate_mid_iteration_crash(self, trt):
        group = trt.group
        orig_query = group.query

        def query(replica_id, what, arg=None, timeout=30.0):
            if replica_id == 1 and group.alive[1]:
                group.crash_replica(1, notify=False)
            return orig_query(replica_id, what, arg, timeout=timeout)

        group.query = query
        try:
            prints = group.fingerprints()
        finally:
            group.query = orig_query
        assert len(prints) == 2  # replica 1 skipped, not an error
        assert len(set(prints)) == 1


class TestCrashRaces:
    def test_read_racing_crash_completes_via_fallback(self, trt):
        """A read sent to a replica that dies mid-flight is rerouted
        through the total order — it completes, it never hangs."""
        trt.out(trt.main_ts, "r", 1)
        transport = trt.group.transport
        orig_send = transport.send
        crashed = []

        def send(replica_id, item):
            if item[0] == "READS" and not crashed:
                crashed.append(replica_id)
                trt.group.crash_replica(replica_id, notify=False)
            orig_send(replica_id, item)

        transport.send = send
        try:
            assert trt.rd(trt.main_ts, "r", formal(int)) == ("r", 1)
        finally:
            transport.send = orig_send
        assert crashed, "the crash injection never ran"
        counters = trt.metrics_snapshot()["counters"]
        assert counters.get("read_fallback", 0) >= 1
        assert_clean(trt.group)

    def test_crash_replica_is_idempotent(self, trt):
        trt.crash_replica(0)
        trt.crash_replica(0)  # second call: silent no-op under the lock
        assert trt.group.alive == [False, True, True]
        trt.out(trt.main_ts, "still", 1)
        assert trt.rd(trt.main_ts, "still", formal(int)) == ("still", 1)
        assert trt.converged()

    def test_reads_in_flight_across_crash_and_recovery(self):
        """converged() after a mixed read/write run with a crash and a
        recovery injected mid-stream (the acceptance scenario)."""
        with MultiprocessRuntime(n_replicas=3) as rt:
            mid = threading.Event()

            def body(c):
                for k in range(30):
                    rt.out(rt.main_ts, "mix", c, k)
                    assert rt.rd(rt.main_ts, "mix", c, formal(int)) is not None
                    if k == 15:
                        mid.set()

            def fault():
                mid.wait(30.0)
                rt.crash_replica(2)
                rt.recover_replica(2)

            clients = [
                threading.Thread(target=body, args=(c,)) for c in range(3)
            ]
            injector = threading.Thread(target=fault)
            injector.start()
            for t in clients:
                t.start()
            for t in clients:
                t.join(60.0)
                assert not t.is_alive()
            injector.join(60.0)
            rt.quiesce()
            assert rt.converged()
            assert len(rt.fingerprints()) == 3
            assert_clean(rt.group)


class TestConcurrentReaders:
    """More reader threads than CPUs, so several share one replica's lane
    and their sends into it interleave, beside an ordered writer."""

    READERS, READS, KEYS, INCREMENTS = 8, 200, 16, 50

    def test_every_read_answered_on_the_fast_path(self, rt):
        for k in range(self.KEYS):
            rt.out(rt.main_ts, "res", k, k * k)
        rt.out(rt.main_ts, "ctr", 0)
        bump = AGS.single(
            Guard.in_(rt.main_ts, "ctr", formal(int, "v")),
            [Op.out(rt.main_ts, "ctr", ref("v") + 1)],
        )
        errors: list[BaseException] = []

        def reader(r):
            try:
                for i in range(self.READS):
                    k = (r + i) % self.KEYS
                    got = rt.rd(rt.main_ts, "res", k, formal(int))
                    assert got == ("res", k, k * k), got
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def writer():
            try:
                for _ in range(self.INCREMENTS):
                    assert rt.execute(bump).succeeded
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(r,))
            for r in range(self.READERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the sends inside one lane
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        counters = rt.metrics_snapshot()["counters"]
        assert counters.get("read_fastpath", 0) == self.READERS * self.READS
        assert counters.get("read_fallback", 0) == 0
        assert rt.inp(rt.main_ts, "ctr", formal(int)) == ("ctr", self.INCREMENTS)
        rt.quiesce()
        assert rt.converged()
        assert len(rt.fingerprints()) == 3
        assert_clean(rt.group)

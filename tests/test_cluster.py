"""Integration tests for the simulated FT-Linda cluster.

These exercise the full stack the paper describes: the FT-Linda library
over Consul's ordered multicast and membership, over the (simulated)
Ethernet — including crash, takeover, recovery and state transfer.
"""

import pytest

from repro import AGS, FAILURE_TAG, Guard, Op, Resilience, formal, ref
from repro.consul import ClusterConfig, SimCluster
from repro.core.spaces import MAIN_TS

LIMIT = 60_000_000.0  # 60 virtual seconds


@pytest.fixture
def cluster():
    return SimCluster(ClusterConfig(n_hosts=3, seed=11))


def run_proc(cluster, host, genfn, *args):
    p = cluster.spawn(host, genfn, *args)
    cluster.run_until(p.finished, limit=LIMIT)
    if p.error is not None:
        raise p.error
    return p.finished.value


class TestBasicReplication:
    def test_out_replicates_everywhere(self, cluster):
        def prog(view):
            yield view.out(view.main_ts, "x", 1)

        run_proc(cluster, 0, prog)
        cluster.settle()
        for h in range(3):
            assert cluster.replica(h).space_size(MAIN_TS) == 1
        assert cluster.converged()

    def test_in_across_hosts(self, cluster):
        def waiter(view):
            t = yield view.in_(view.main_ts, "d", formal(int))
            return t

        def sender(view):
            yield view.out(view.main_ts, "d", 5)

        pw = cluster.spawn(0, waiter)
        cluster.run(until=200_000)
        cluster.spawn(2, sender)
        cluster.run_until(pw.finished, limit=LIMIT)
        assert pw.finished.value == ("d", 5)

    def test_atomic_increment_from_many_hosts(self, cluster):
        def incr(view, n):
            for _ in range(n):
                yield view.execute(AGS.single(
                    Guard.in_(view.main_ts, "c", formal(int, "v")),
                    [Op.out(view.main_ts, "c", ref("v") + 1)],
                ))

        def init(view):
            yield view.out(view.main_ts, "c", 0)

        run_proc(cluster, 0, init)
        procs = [cluster.spawn(h, incr, 10) for h in range(3)]
        cluster.run_until_all(procs, limit=LIMIT)
        cluster.settle()
        tuples = cluster.replica(1).space_tuples(MAIN_TS)
        assert ("c", 30) in tuples
        assert cluster.converged()

    def test_strong_inp_semantics(self, cluster):
        def prog(view):
            miss = yield view.inp(view.main_ts, "zzz", formal(int))
            yield view.out(view.main_ts, "zzz", 1)
            hit = yield view.inp(view.main_ts, "zzz", formal(int))
            return miss, hit

        miss, hit = run_proc(cluster, 1, prog)
        assert miss is None
        assert hit == ("zzz", 1)

class TestMessageCounting:
    """The paper's headline property: one multicast message per AGS.

    These clusters use a heartbeat period longer than the test horizon so
    the only frames on the wire are the ordering protocol's own.
    """

    def make_quiet_cluster(self):
        # heartbeat period longer than the test horizon: no chatter at all
        from repro.consul.config import ConsulConfig

        cfg = ClusterConfig(
            n_hosts=3,
            seed=2,
            consul=ConsulConfig(
                hb_interval_us=10_000_000.0, suspect_timeout_us=40_000_000.0
            ),
        )
        return SimCluster(cfg)

    def test_ags_from_sequencer_is_one_broadcast(self):
        c = self.make_quiet_cluster()

        def prog(view):
            yield view.out(view.main_ts, "x", 1)

        p = c.spawn(0, prog)
        c.run_until(p.finished, limit=LIMIT)
        s = c.segment.stats
        assert s.broadcast_frames == 1
        assert s.unicast_frames == 0

    def test_ags_from_non_sequencer_is_req_plus_broadcast(self):
        c = self.make_quiet_cluster()

        def prog(view):
            yield view.out(view.main_ts, "x", 1)

        p = c.spawn(2, prog)
        c.run_until(p.finished, limit=LIMIT)
        s = c.segment.stats
        assert s.broadcast_frames == 1
        assert s.unicast_frames == 1  # the REQ to the sequencer

    def test_n_op_ags_still_one_broadcast(self):
        c = self.make_quiet_cluster()

        def prog(view):
            ops = [Op.out(view.main_ts, "t", i) for i in range(10)]
            yield view.execute(AGS.atomic(*ops))

        p = c.spawn(0, prog)
        c.run_until(p.finished, limit=LIMIT)
        assert c.segment.stats.broadcast_frames == 1


class TestFailure:
    def test_failure_tuple_deposited_once(self, cluster):
        def watch(view):
            t = yield view.in_(view.main_ts, FAILURE_TAG, formal(int))
            return t

        p = cluster.spawn(0, watch)
        cluster.run(until=300_000)
        cluster.crash(2)
        cluster.run_until(p.finished, limit=LIMIT)
        assert p.finished.value == (FAILURE_TAG, 2)
        cluster.settle(2_000_000)
        # exactly one failure tuple was deposited (it was consumed above)
        assert cluster.replica(0).space_size(MAIN_TS) == 0

    def test_crashed_hosts_blocked_statement_dropped(self, cluster):
        def waiter(view):
            yield view.in_(view.main_ts, "never", formal(int))

        cluster.spawn(2, waiter)
        cluster.run(until=300_000)
        assert len(cluster.replica(0).sm.blocked) == 1
        cluster.crash(2)
        cluster.settle(2_000_000)
        assert len(cluster.replica(0).sm.blocked) == 0

    def test_sequencer_crash_takeover(self):
        c = SimCluster(ClusterConfig(n_hosts=4, seed=3))

        def producer(view, tag, n):
            for i in range(n):
                yield view.out(view.main_ts, tag, i)

        p1 = c.spawn(1, producer, "a", 8)
        p2 = c.spawn(3, producer, "b", 8)
        c.run(until=30_000)
        c.crash(0)  # the sequencer
        c.run_until_all([p1, p2], limit=LIMIT)
        c.settle(2_000_000)
        assert c.converged()
        live = c.live_hosts()
        assert all(sorted(c.membership(h).view) == [1, 2, 3] for h in live)
        # all 16 producer tuples plus exactly one failure tuple
        assert c.replica(1).space_size(MAIN_TS) == 17

    def test_client_crash_mid_request_no_corruption(self, cluster):
        def spam(view):
            for i in range(100):
                yield view.out(view.main_ts, "s", i)

        cluster.spawn(1, spam)
        cluster.run(until=20_000)
        cluster.crash(1)
        cluster.settle(3_000_000)
        assert cluster.converged()


class TestRecovery:
    def test_state_transfer_restores_everything(self, cluster):
        def writer(view, n):
            for i in range(n):
                yield view.out(view.main_ts, "x", i)

        run_proc(cluster, 0, writer, 3)
        cluster.crash(2)
        cluster.settle(2_000_000)
        run_proc(cluster, 0, writer, 4)  # written while 2 is down
        cluster.recover(2)
        r2 = cluster.replica(2)
        cluster.run_until(r2.recovered_event, limit=LIMIT)
        cluster.settle(2_000_000)
        assert not r2.recovering
        assert cluster.converged()
        assert r2.space_size(MAIN_TS) == cluster.replica(0).space_size(MAIN_TS)

    def test_recovered_host_can_issue_requests(self, cluster):
        cluster.crash(1)
        cluster.settle(2_000_000)
        cluster.recover(1)
        r1 = cluster.replica(1)
        cluster.run_until(r1.recovered_event, limit=LIMIT)

        def prog(view):
            yield view.out(view.main_ts, "back", 1)
            t = yield view.in_(view.main_ts, "back", formal(int))
            return t

        assert run_proc(cluster, 1, prog) == ("back", 1)
        cluster.settle()
        assert cluster.converged()

    def test_recovery_tuple_deposited(self, cluster):
        cluster.crash(2)
        cluster.settle(2_000_000)
        cluster.recover(2)

        def watch(view):
            t = yield view.in_(view.main_ts, "ft_recovery", formal(int))
            return t

        p = cluster.spawn(0, watch)
        cluster.run_until(p.finished, limit=LIMIT)
        assert p.finished.value == ("ft_recovery", 2)

    def test_blocked_statements_survive_recovery_of_other_host(self, cluster):
        def waiter(view):
            t = yield view.in_(view.main_ts, "later", formal(int))
            return t

        p = cluster.spawn(0, waiter)
        cluster.run(until=300_000)
        cluster.crash(2)
        cluster.settle(2_000_000)
        cluster.recover(2)
        r2 = cluster.replica(2)
        cluster.run_until(r2.recovered_event, limit=LIMIT)
        # recovered replica knows about the parked statement via snapshot
        assert len(r2.sm.blocked) == 1

        def sender(view):
            yield view.out(view.main_ts, "later", 7)

        cluster.spawn(1, sender)
        cluster.run_until(p.finished, limit=LIMIT)
        assert p.finished.value == ("later", 7)
        cluster.settle()
        assert cluster.converged()


class TestSpacesDistributed:
    def test_stable_space_created_on_all_replicas(self, cluster):
        def prog(view):
            h = yield view.create_space("jobs")
            yield view.out(h, "j", 1)
            return h

        h = run_proc(cluster, 0, prog)
        cluster.settle()
        for host in range(3):
            assert cluster.replica(host).space_size(h) == 1

    def test_volatile_space_is_host_local_and_free(self, cluster):
        baseline = cluster.segment.stats.frames

        def prog(view):
            h = yield view.create_space("scratch", Resilience.VOLATILE)
            yield view.out(h, "v", 1)
            t = yield view.in_(h, "v", formal(int))
            return h, t

        h, t = run_proc(cluster, 1, prog)
        assert t == ("v", 1)
        # volatile traffic generates no frames beyond membership chatter
        data_frames = cluster.segment.stats.frames - baseline
        # allow heartbeat frames only: none of them are unicast REQs
        assert cluster.segment.stats.unicast_frames == 0
        assert cluster.replica(1).volatile.registry.exists(h)
        assert not cluster.replica(0).volatile.registry.exists(h)

    def test_mixed_domain_ags_rejected(self, cluster):
        from repro import AGSError

        def prog(view):
            vol = yield view.create_space("v", Resilience.VOLATILE)
            try:
                yield view.execute(AGS.atomic(
                    Op.out(view.main_ts, "a", 1), Op.out(vol, "b", 2)
                ))
            except AGSError:
                return "rejected"
            return "accepted"

        assert run_proc(cluster, 0, prog) == "rejected"

    def test_volatile_spaces_die_with_host(self, cluster):
        def prog(view):
            h = yield view.create_space("scratch", Resilience.VOLATILE)
            yield view.out(h, "v", 1)
            return h

        h = run_proc(cluster, 1, prog)
        assert cluster.replica(1).volatile.registry.exists(h)
        cluster.crash(1)
        cluster.settle(2_000_000)
        cluster.recover(1)
        cluster.run_until(cluster.replica(1).recovered_event, limit=LIMIT)
        assert not cluster.replica(1).volatile.registry.exists(h)


class TestDeterminism:
    def test_same_seed_same_history(self):
        def scenario(seed):
            c = SimCluster(ClusterConfig(n_hosts=3, seed=seed))

            def writer(view, tag):
                for i in range(5):
                    yield view.out(view.main_ts, tag, i)

            procs = [c.spawn(h, writer, f"t{h}") for h in range(3)]
            c.run(until=100_000)
            c.crash(2)
            c.run_until_all([p for p in procs[:2]], limit=LIMIT)
            c.settle(2_000_000)
            return (
                c.replica(0).stable_fingerprint(),
                c.segment.stats.snapshot(),
                c.sim.now,
            )

        assert scenario(9) == scenario(9)

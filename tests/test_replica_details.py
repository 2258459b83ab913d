"""Distributed details: spaces, scoping and volatile semantics on the cluster."""

import pytest

from repro import AGS, Guard, Op, Resilience, Scope, formal, ref
from repro.consul import ClusterConfig, SimCluster
from repro.core.spaces import MAIN_TS

LIMIT = 240_000_000.0


@pytest.fixture
def cluster():
    return SimCluster(ClusterConfig(n_hosts=3, seed=71))


def run_proc(cluster, host, genfn, *args):
    p = cluster.spawn(host, genfn, *args)
    cluster.run_until(p.finished, limit=LIMIT)
    if p.error is not None:
        raise p.error
    return p.finished.value


class TestStableSpacesDistributed:
    def test_destroy_replicated(self, cluster):
        def prog(view):
            h = yield view.create_space("tmp")
            yield view.out(h, "x", 1)
            yield view.destroy_space(h)
            return h

        h = run_proc(cluster, 0, prog)
        cluster.settle()
        for host in range(3):
            assert not cluster.replica(host).sm.registry.exists(h)
        assert cluster.converged()

    def test_op_on_destroyed_space_aborts_identically(self, cluster):
        def prog(view):
            h = yield view.create_space("tmp")
            yield view.destroy_space(h)
            res = yield view.execute(AGS.atomic(Op.out(h, "x", 1)))
            return res

        res = run_proc(cluster, 1, prog)
        assert res.aborted
        cluster.settle()
        assert cluster.converged()  # the abort happened the same way everywhere

    def test_private_stable_space_scoping_across_hosts(self, cluster):
        def owner(view):
            h = yield view.create_space("mine", Resilience.STABLE, Scope.PRIVATE)
            yield view.out(h, "secret", 1)
            yield view.out(view.main_ts, "handle", h)
            return h

        h = run_proc(cluster, 0, owner)

        def intruder(view):
            t = yield view.in_(view.main_ts, "handle", formal())
            res = yield view.execute(AGS.atomic(Op.out(t[1], "spy", 1)))
            return res

        # the intruder runs under a different process id on another host
        p = cluster.spawn(2, intruder, process_id=99999)
        cluster.run_until(p.finished, limit=LIMIT)
        res = p.finished.value
        assert res.aborted  # scope violation, rolled back identically
        cluster.settle()
        assert cluster.converged()
        assert cluster.replica(1).space_size(h) == 1  # only the secret

    def test_handles_travel_in_tuples(self, cluster):
        def creator(view):
            h = yield view.create_space("box")
            yield view.out(view.main_ts, "box-is", h)

        def user(view):
            t = yield view.in_(view.main_ts, "box-is", formal())
            yield view.out(t[1], "content", 9)
            return t[1]

        run_proc(cluster, 0, creator)
        h = run_proc(cluster, 2, user)
        cluster.settle()
        assert cluster.replica(1).space_size(h) == 1


class TestVolatileSemantics:
    def test_volatile_blocking_in_wakes_locally(self, cluster):
        def prog(view):
            h = yield view.create_space("v", Resilience.VOLATILE)
            # start a waiter on the same host
            return h

        h = run_proc(cluster, 1, prog)

        def waiter(view):
            t = yield view.in_(h, "later", formal(int))
            return t

        def sender(view):
            yield view.out(h, "later", 3)

        pw = cluster.spawn(1, waiter)
        cluster.run(until=cluster.sim.now + 50_000)
        cluster.spawn(1, sender)
        cluster.run_until(pw.finished, limit=LIMIT)
        assert pw.finished.value == ("later", 3)

    def test_volatile_ops_cost_no_frames(self, cluster):
        def prog(view):
            h = yield view.create_space("v", Resilience.VOLATILE)
            for i in range(20):
                yield view.out(h, "x", i)
            n = 0
            while True:
                t = yield view.inp(h, "x", formal(int))
                if t is None:
                    break
                n += 1
            return n

        unicast0 = cluster.segment.stats.unicast_frames
        assert run_proc(cluster, 2, prog) == 20
        # nothing but heartbeat broadcasts crossed the wire
        assert cluster.segment.stats.unicast_frames == unicast0

    def test_volatile_handle_from_other_host_aborts(self, cluster):
        def creator(view):
            h = yield view.create_space("v", Resilience.VOLATILE)
            return h

        h = run_proc(cluster, 0, creator)

        def other(view):
            res = yield view.execute(AGS.atomic(Op.out(h, "x", 1)))
            return res

        res = run_proc(cluster, 2, other)
        assert res.aborted  # host 2 has no such volatile space

    def test_volatile_destroy(self, cluster):
        def prog(view):
            h = yield view.create_space("v", Resilience.VOLATILE)
            yield view.out(h, "x", 1)
            yield view.destroy_space(h)
            res = yield view.execute(AGS.atomic(Op.out(h, "y", 1)))
            return res

        res = run_proc(cluster, 1, prog)
        assert res.aborted


class TestBlockedStatementDetails:
    def test_blocked_disjunction_across_hosts(self, cluster):
        def waiter(view):
            from repro.core.ags import Branch

            res = yield view.execute(AGS([
                Branch(Guard.in_(view.main_ts, "alpha", formal(int, "a")), []),
                Branch(Guard.in_(view.main_ts, "beta", formal(int, "b")),
                       [Op.out(view.main_ts, "converted", ref("b"))]),
            ]))
            return res

        pw = cluster.spawn(0, waiter)
        cluster.run(until=300_000)

        def sender(view):
            yield view.out(view.main_ts, "beta", 5)

        cluster.spawn(2, sender)
        cluster.run_until(pw.finished, limit=LIMIT)
        assert pw.finished.value.fired == 1
        cluster.settle()
        assert cluster.converged()
        tuples = cluster.replica(1).space_tuples(MAIN_TS)
        assert ("converted", 5) in tuples

    def test_many_blocked_wake_in_submission_order(self, cluster):
        order = []

        def waiter(view, tag):
            t = yield view.in_(view.main_ts, "token", formal(int))
            order.append((tag, t[1]))

        procs = []
        for i, host in enumerate((0, 1, 2)):
            procs.append(cluster.spawn(host, waiter, i))
            cluster.run(until=cluster.sim.now + 100_000)

        def sender(view):
            for i in range(3):
                yield view.out(view.main_ts, "token", i)

        cluster.spawn(1, sender)
        cluster.run_until_all(procs, limit=LIMIT)
        # oldest blocked statement gets the oldest token
        assert order == [(0, 0), (1, 1), (2, 2)]

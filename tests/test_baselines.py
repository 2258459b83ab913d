"""Tests for the baseline systems (plain Linda, 2PC replicated TS)."""

import pytest

from repro import AGS, AGSError, Guard, Op, formal, ref
from repro.baselines import PlainLindaRuntime, TwoPhaseCluster, TwoPhaseConfig
from repro.core.tuples import Pattern


class TestPlainLinda:
    @pytest.fixture
    def rt(self):
        return PlainLindaRuntime()

    def test_single_ops_work(self, rt):
        rt.out(rt.main_ts, "x", 1)
        assert rt.in_(rt.main_ts, "x", formal(int)) == ("x", 1)

    def test_multi_op_statement_rejected(self, rt):
        with pytest.raises(AGSError):
            rt.execute(AGS.single(
                Guard.in_(rt.main_ts, "c", formal(int, "v")),
                [Op.out(rt.main_ts, "c", ref("v") + 1)],
            ))

    def test_disjunction_rejected(self, rt):
        from repro.core.ags import Branch

        with pytest.raises(AGSError):
            rt.execute(AGS([
                Branch(Guard.in_(rt.main_ts, "a"), []),
                Branch(Guard.in_(rt.main_ts, "b"), []),
            ]))

    def test_guard_plus_body_rejected(self, rt):
        with pytest.raises(AGSError):
            rt.execute(AGS.single(
                Guard.in_(rt.main_ts, "a"), [Op.out(rt.main_ts, "b")]
            ))

    def test_single_guard_only_allowed(self, rt):
        rt.out(rt.main_ts, "a")
        res = rt.execute(AGS.single(Guard.in_(rt.main_ts, "a"), []))
        assert res.succeeded

    def test_no_failure_notification(self, rt):
        with pytest.raises(AGSError):
            rt.inject_failure(3)

    def test_weak_probes_miss_deterministically(self):
        a = PlainLindaRuntime(weak_probe_miss_rate=0.5, seed=9)
        b = PlainLindaRuntime(weak_probe_miss_rate=0.5, seed=9)
        for r in (a, b):
            r.out(r.main_ts, "p", 1)
        seq_a = [a.rdp(a.main_ts, "p", formal(int)) is None for _ in range(40)]
        seq_b = [b.rdp(b.main_ts, "p", formal(int)) is None for _ in range(40)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)
        assert a.false_negatives == sum(seq_a)

    def test_weak_inp_miss_leaves_tuple(self):
        rt = PlainLindaRuntime(weak_probe_miss_rate=1.0, seed=1)
        rt.out(rt.main_ts, "p", 1)
        assert rt.inp(rt.main_ts, "p", formal(int)) is None
        # the tuple was NOT consumed by the false miss
        rt.weak_probe_miss_rate = 0.0
        assert rt.inp(rt.main_ts, "p", formal(int)) == ("p", 1)

    def test_zero_rate_is_exact(self, rt):
        rt.out(rt.main_ts, "p", 1)
        assert all(
            rt.rdp(rt.main_ts, "p", formal(int)) is not None for _ in range(50)
        )


def _incr_update():
    def puts(bindings):
        return [("count", bindings[0]["v"] + 1)]

    return [Pattern(("count", formal(int, "v")))], puts


class TestTwoPhase:
    def make(self, n=3, seed=0):
        c = TwoPhaseCluster(TwoPhaseConfig(n_hosts=n, seed=seed))
        c.seed_tuple("count", 0)
        return c

    def run_updates(self, c, hosts):
        takes, puts = _incr_update()
        evs = [c.update(h, takes, puts) for h in hosts]
        for ev in evs:
            c.sim.run_until_event(ev, limit=120_000_000)
        c.sim.run(until=c.sim.now + 200_000)

    def test_sequential_updates_converge(self):
        c = self.make()
        for h in (0, 1, 2):
            self.run_updates(c, [h])
        assert c.converged()
        m = c.store_of(1).find(Pattern(("count", formal(int, "v"))), remove=False)
        assert m.binding["v"] == 3

    def test_concurrent_conflicting_updates_all_commit(self):
        c = self.make(seed=4)
        self.run_updates(c, [0, 1, 2, 0, 1, 2])
        assert c.converged()
        m = c.store_of(0).find(Pattern(("count", formal(int, "v"))), remove=False)
        assert m.binding["v"] == 6
        assert c.stats.commits == 6

    def test_conflicts_cause_aborts_and_retries(self):
        c = self.make(seed=1)
        self.run_updates(c, [0, 1, 2] * 3)
        assert c.stats.aborts > 0 or c.stats.retries > 0
        assert c.converged()

    def test_message_cost_grows_with_replicas(self):
        frames = {}
        for n in (2, 4, 8):
            c = TwoPhaseCluster(TwoPhaseConfig(n_hosts=n, seed=2))
            c.seed_tuple("count", 0)
            takes, puts = _incr_update()
            ev = c.update(0, takes, puts)
            c.sim.run_until_event(ev, limit=60_000_000)
            c.sim.run(until=c.sim.now + 200_000)
            frames[n] = c.segment.stats.frames
        # 2 broadcasts + (n-1) votes
        assert frames[2] == 3
        assert frames[4] == 5
        assert frames[8] == 9

    def test_locks_released_after_abort(self):
        c = self.make(seed=7)
        # two concurrent conflicting updates: one aborts and retries; at
        # the end no locks may remain anywhere
        self.run_updates(c, [0, 1])
        for r in c.replicas:
            assert r.locks == {}
            assert r.granted == {}

    def test_multi_take_update(self):
        c = TwoPhaseCluster(TwoPhaseConfig(n_hosts=3, seed=3))
        c.seed_tuple("a", 1)
        c.seed_tuple("b", 2)

        def puts(bindings):
            return [("sum", bindings[0]["x"] + bindings[1]["y"])]

        ev = c.update(
            1,
            [Pattern(("a", formal(int, "x"))), Pattern(("b", formal(int, "y")))],
            puts,
        )
        c.sim.run_until_event(ev, limit=60_000_000)
        c.sim.run(until=c.sim.now + 200_000)
        assert c.converged()
        m = c.store_of(2).find(Pattern(("sum", formal(int, "v"))), remove=False)
        assert m.binding["v"] == 3


class TestRPCClients:
    def test_rpc_client_full_op_set(self):
        from repro.consul import ClusterConfig, SimCluster

        c = SimCluster(ClusterConfig(n_hosts=3, n_clients=2, seed=17))

        def prog(view):
            yield view.out(view.main_ts, "k", 1)
            t1 = yield view.rd(view.main_ts, "k", formal(int))
            t2 = yield view.inp(view.main_ts, "k", formal(int))
            t3 = yield view.inp(view.main_ts, "k", formal(int))
            return t1, t2, t3

        p = c.spawn(4, prog)  # second RPC client (server = replica 1)
        c.run_until(p.finished, limit=120_000_000)
        t1, t2, t3 = p.finished.value
        assert t1 == ("k", 1) and t2 == ("k", 1) and t3 is None

    def test_rpc_client_blocking_in(self):
        from repro.consul import ClusterConfig, SimCluster

        c = SimCluster(ClusterConfig(n_hosts=3, n_clients=1, seed=18))

        def waiter(view):
            t = yield view.in_(view.main_ts, "later", formal(int))
            return t

        def sender(view):
            yield view.out(view.main_ts, "later", 7)

        pw = c.spawn(3, waiter)
        c.run(until=400_000)
        c.spawn(1, sender)
        c.run_until(pw.finished, limit=120_000_000)
        assert pw.finished.value == ("later", 7)

    def test_rpc_client_cannot_create_spaces(self):
        from repro.consul import ClusterConfig, SimCluster

        c = SimCluster(ClusterConfig(n_hosts=2, n_clients=1, seed=19))
        with pytest.raises(NotImplementedError):
            c.view(2).create_space("nope")

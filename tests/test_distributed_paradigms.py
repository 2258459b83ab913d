"""The Sec. 4 paradigms on the full distributed stack.

Unlike tests/test_paradigms.py (threads + injected failure tuples), these
run over the simulated replica group where the failure tuple comes from
the *real* chain: host crash → heartbeat silence → suspicion → ordered
HostFailed → state machine deposits the tuple.  This is the paper's
actual end-to-end story.  The worker/monitor/collector roles come from
:mod:`repro.paradigms.simstyle`.
"""

from repro import AGS, Guard, Op, formal, ref
from repro.consul import ClusterConfig, SimCluster
from repro.paradigms import simstyle
from repro.sim.process import hold

LIMIT = 600_000_000.0


def make(n_hosts=4, seed=0):
    return SimCluster(ClusterConfig(n_hosts=n_hosts, seed=seed))


def seed_tasks(cluster, payloads):
    p = cluster.spawn(0, simstyle.seed_bag, payloads)
    cluster.run_until(p.finished, limit=LIMIT)
    return p.finished.value


def stop_workers(cluster, bag, n):
    cluster.spawn(0, simstyle.poison, bag, n)


class TestDistributedBagOfTasks:
    def test_no_failures_all_tasks_complete(self):
        c = make(seed=41)
        bag = seed_tasks(c, list(range(8)))
        workers = [c.spawn(h, simstyle.ft_worker, bag, h) for h in (1, 2, 3)]
        pc = c.spawn(0, simstyle.collector, 8)
        c.run_until(pc.finished, limit=LIMIT)
        results = pc.finished.value
        assert sorted(p for p, _ in results) == list(range(8))
        assert all(r == p * p for p, r in results)
        stop_workers(c, bag, 3)
        c.run_until_all(workers, limit=LIMIT)
        c.settle(2_000_000)
        assert c.converged()

    def test_host_crash_recycles_in_progress_task(self):
        c = make(seed=43)
        bag = seed_tasks(c, list(range(8)))
        pm = c.spawn(0, simstyle.failure_monitor, bag, 1)
        # worker on host 3 freezes holding its second task; we then crash
        # host 3 — the REAL membership protocol produces the failure tuple
        c.spawn(3, lambda v: simstyle.ft_worker(v, bag, 30, freeze_after=1),
                name="doomed")
        live_workers = [c.spawn(h, simstyle.ft_worker, bag, h) for h in (1, 2)]
        pc = c.spawn(0, simstyle.collector, 8)
        c.run(until=c.sim.now + 80_000)
        c.crash(3)
        c.run_until(pc.finished, limit=LIMIT)
        results = pc.finished.value
        assert sorted(p for p, _ in results) == list(range(8))  # nothing lost
        assert pm.finished.triggered or not pm.error
        stop_workers(c, bag, 2)
        c.run_until_all(live_workers, limit=LIMIT)
        c.settle(3_000_000)
        assert c.converged()

    def test_two_host_crashes(self):
        c = make(n_hosts=5, seed=47)
        bag = seed_tasks(c, list(range(10)))
        c.spawn(0, simstyle.failure_monitor, bag, 2)
        c.spawn(3, lambda v: simstyle.ft_worker(v, bag, 30, freeze_after=0))
        c.spawn(4, lambda v: simstyle.ft_worker(v, bag, 40, freeze_after=1))
        survivors = [c.spawn(h, simstyle.ft_worker, bag, h) for h in (1, 2)]
        pc = c.spawn(0, simstyle.collector, 10)
        c.run(until=c.sim.now + 60_000)
        c.crash(3)
        c.run(until=c.sim.now + 400_000)
        c.crash(4)
        c.run_until(pc.finished, limit=LIMIT)
        results = pc.finished.value
        assert sorted(p for p, _ in results) == list(range(10))
        stop_workers(c, bag, 2)
        c.run_until_all(survivors, limit=LIMIT)
        c.settle(3_000_000)
        assert c.converged()

    def test_custom_compute_function(self):
        c = make(seed=49)
        bag = seed_tasks(c, [2, 3, 4])
        w = c.spawn(
            1, lambda v: simstyle.ft_worker(v, bag, 1, compute=lambda t: t + 100)
        )
        pc = c.spawn(0, simstyle.collector, 3)
        c.run_until(pc.finished, limit=LIMIT)
        assert sorted(r for _p, r in pc.finished.value) == [102, 103, 104]
        stop_workers(c, bag, 1)
        c.run_until(w.finished, limit=LIMIT)
        assert w.finished.value == 3


class TestDistributedConsensusShape:
    """The consensus construction, sim-side, across hosts."""

    @staticmethod
    def _participant(view, pid, name="agree"):
        from repro.core.ags import Branch as B

        yield view.out(view.main_ts, name, "proposal", pid, pid * 100)
        res = yield view.execute(AGS([
            B(Guard.rd(view.main_ts, name, "decision",
                       formal(object, "d")), []),
            B(Guard.in_(view.main_ts, name, "proposal",
                        formal(int, "pid"), formal(object, "v")),
              [Op.out(view.main_ts, name, "decision", ref("v"))]),
        ]))
        return res["d"] if res.fired == 0 else res["v"]

    def test_agreement_across_hosts(self):
        c = make(seed=51)
        procs = [c.spawn(h, self._participant, h) for h in range(3)]
        c.run_until_all(procs, limit=LIMIT)
        values = {p.finished.value for p in procs}
        assert len(values) == 1
        assert values.pop() in {0, 100, 200}

    def test_agreement_survives_proposer_crash(self):
        c = make(seed=53)

        def proposer_only(view, pid):
            yield view.out(view.main_ts, "agree", "proposal", pid, pid * 100)
            yield hold(10_000_000_000.0)  # never decides

        c.spawn(2, proposer_only, 2)
        c.run(until=c.sim.now + 50_000)
        c.crash(2)  # the first proposer dies before deciding
        p = c.spawn(1, self._participant, 1)
        c.run_until(p.finished, limit=LIMIT)
        assert p.finished.value in (100, 200)  # someone's proposal won
        c.settle(3_000_000)
        assert c.converged()

"""Statement plans across membership change, restart, replay and sharding.

On the process transport a planned statement crosses the pipe as ``(plan
id, actuals)`` and a plan's definition rides once.  The one way that can
go wrong is a replica being handed an id it was never sent the definition
of — so these tests walk every way a replica comes to have an empty plan
table (crash and recover, SIGKILL and auto-recover, a whole group rebuilt
from its journal) with shapes first used before, during and after, and
require the replicas to end identical.  Multiprocess throughout: the
threaded transport has no wire format to get wrong.
"""

import threading
import time

from repro import formal
from repro.chaos import ChaosMonkey
from repro.core.ags import OpCode
from repro.core.matching import shard_of
from repro.parallel import MultiprocessRuntime
from repro.replication import LivenessPolicy

POLICY = LivenessPolicy(
    probe_interval=0.05,
    suspect_after=0.3,
    auto_recover=True,
    backoff_initial=0.05,
    backoff_max=0.5,
)


def _park(rt, *pattern):
    """Start a thread blocked in ``in_(main, *pattern)``; wait until parked."""
    got = []
    t = threading.Thread(
        target=lambda: got.append(rt.in_(rt.main_ts, *pattern, timeout=60)),
        daemon=True,
    )
    t.start()
    deadline = time.monotonic() + 30
    while rt.query(rt.group.live_replicas()[0], "blocked") != 1:
        assert time.monotonic() < deadline, "the in_ never parked"
        time.sleep(0.01)
    return t, got


def _plans_known(rt):
    return [rt.query(i, "plans") for i in range(rt.group.n_replicas)]


def test_recovered_replica_is_sent_every_plan_it_is_asked_to_run():
    with MultiprocessRuntime(n_replicas=3) as rt:
        ts = rt.main_ts
        rt.out(ts, "a", 1)  # out/2: defined on all three
        rt.crash_replica(1)
        rt.out(ts, "b", 1, 2)  # out/3: a new shape, first used with replica 1 down
        t, got = _park(rt, "wake", formal(int))  # in/2: new too, and parked
        rt.recover_replica(1)  # the parked plan crosses in the snapshot, by value
        assert _plans_known(rt) == [3, 0, 3]
        # replica 1 has seen no definition, and the sender numbers plans
        # afresh: out/3 is now id 0 (it was 1), out/2 id 1 (it was 0) —
        # the survivors must take the new definitions too
        rt.out(ts, "b", 3, 4)
        rt.out(ts, "wake", 7)
        t.join(30)
        assert got == [("wake", 7)]
        assert rt.converged()
        assert len(rt.fingerprints()) == 3
        assert rt.space_size(ts) == 5  # a, b, b, the failure and the recovery tuple
        # it knows exactly the plans used since it came back
        assert _plans_known(rt) == [3, 2, 3]
        # and serves a fast-path read — a plan travelling by value, so no
        # table entry needed — once it is the only replica there is
        rt.crash_replica(0, notify=False)
        rt.crash_replica(2, notify=False)
        assert rt.rd(ts, "b", 3, formal(int)) == ("b", 3, 4)
        counters = rt.metrics_snapshot()["counters"]
        assert counters["read_fastpath"] >= 1
        assert counters.get("read_fallback", 0) == 0


def test_auto_recovered_replica_after_sigkill():
    with MultiprocessRuntime(n_replicas=3, detect_failures=POLICY) as rt:
        ts = rt.main_ts
        monkey = ChaosMonkey(rt)
        for i in range(5):
            rt.out(ts, "pre", i)
        t, got = _park(rt, "wake", formal(int))
        monkey.kill_replica(1)  # behind the group's back
        monkey.wait_detected(1, timeout=10.0)
        rt.out(ts, "mid", 1, 2)  # a shape replica 1's successor will not know
        monkey.wait_recovered(1, timeout=20.0)
        for i in range(5):
            rt.out(ts, "post", i)
        rt.out(ts, "mid", 3, 4)
        assert rt.in_(ts, "pre", 0) == ("pre", 0)
        rt.out(ts, "wake", 9)
        t.join(30)
        assert got == [("wake", 9)]
        assert rt.converged()
        assert len(rt.fingerprints()) == 3
        assert rt.inp(ts, "never", formal(int)) is None
        assert rt.metrics_snapshot()["counters"]["auto_recoveries"] >= 1


def test_durable_reopen_replays_planned_commands(tmp_path):
    journal = str(tmp_path / "journal")
    with MultiprocessRuntime(n_replicas=2, durable_dir=journal) as rt:
        ts = rt.main_ts
        scratch = rt.create_space("scratch")
        for i in range(20):
            rt.out(ts, "k", i)
            rt.out(scratch, "k", i, (i, "nested"))
        for i in range(0, 20, 2):
            assert rt.in_(ts, "k", i) == ("k", i)
        rt.move(scratch, ts, "k", formal(int), formal(tuple))
        rt.quiesce()
        sizes = (rt.space_size(ts), rt.space_size(scratch))
        prints = rt.fingerprints()
        assert sizes == (30, 0)
    with MultiprocessRuntime(n_replicas=2, durable_dir=journal) as rt:
        # every journal record is a plan and its actuals, by value; the
        # replay broadcasts them, so they cross the pipe as plan ids again
        assert rt.group.journal_replayed > 0
        assert (rt.space_size(ts), rt.space_size(scratch)) == sizes
        assert rt.fingerprints() == prints
        # each record unpickled to a statement of its own; equal ones
        # share a plan id: out/2, out/3, in/2 and the move
        assert _plans_known(rt) == [4, 4]
        assert len(rt.group.transport._announced) == 4
        rt.out(ts, "k", 99)
        assert rt.in_(ts, "k", 99) == ("k", 99)
        assert rt.converged()


def test_sharded_plan_routes_where_the_statement_by_value_did():
    with MultiprocessRuntime(n_replicas=1, shards=4) as rt:
        ts = rt.main_ts
        homes = set()
        for key in ("alpha", "beta", "gamma", "delta", 7, ("t", 1)):
            home = shard_of(ts.id, key, 4)  # what the by-value classifier computes
            homes.add(home)
            plan, actuals = rt._plan(OpCode.OUT, (ts,), (key, 1))
            assert rt.sharded.shard_of_ags(plan.ags, actuals) == home
            assert rt.sharded.shard_of_ags(plan.ags) is None  # the holes decide it
            rt.out(ts, key, 1)
            assert [g.space_size(ts) for g in rt.shard_groups] == [
                int(k == home) for k in range(4)
            ]
            assert rt.in_(ts, key, formal(int)) == (key, 1)
            assert rt.space_size(ts) == 0
        assert len(homes) > 1  # the keys above do spread
        # a wildcard first field pins nothing: still the cross-shard rung
        plan, actuals = rt._plan(OpCode.INP, (ts,), (formal(), 2))
        assert rt.sharded.shard_of_ags(plan.ags, actuals) is None
        rt.out(ts, "alpha", 2)
        assert rt.inp(ts, formal(), 2) == ("alpha", 2)
        assert rt.inp(ts, formal(), 2) is None

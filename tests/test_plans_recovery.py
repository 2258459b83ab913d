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

import functools
import threading
import time

from repro import AGS, Guard, Op, formal, ref
from repro.chaos import ChaosMonkey
from repro.core.ags import OpCode
from repro.core.matching import shard_of
from repro.core.statemachine import ExecuteAGS
from repro.parallel import MultiprocessRuntime
from repro.persist.segments import replay_dir
from repro.replication import LivenessPolicy
from repro.replication.journal import replay_commands

POLICY = LivenessPolicy(
    probe_interval=0.05,
    suspect_after=0.3,
    auto_recover=True,
    backoff_initial=0.05,
    backoff_max=0.5,
)


def _park(rt, *pattern, statement=None):
    """Start a thread blocked in ``in_(main, *pattern)`` — or in
    ``execute(statement)`` — and wait until it is parked."""
    got = []
    if statement is None:
        call = functools.partial(rt.in_, rt.main_ts, *pattern, timeout=60)
    else:
        call = functools.partial(rt.execute, statement, timeout=60)
    t = threading.Thread(target=lambda: got.append(call()), daemon=True)
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
        # every journal record is plan ids and actuals under the journal's
        # own numbering; the replay expands and broadcasts them, so they
        # cross the pipe as the sender's plan ids again
        assert rt.group.journal_replayed > 0
        assert (rt.space_size(ts), rt.space_size(scratch)) == sizes
        assert rt.fingerprints() == prints
        # equal statements share a plan id: out/2, out/3, in/2 and the move
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
            assert rt.shard_of_ags(plan.ags, actuals) == home
            assert rt.shard_of_ags(plan.ags) is None  # the holes decide it
            rt.out(ts, key, 1)
            assert [g.space_size(ts) for g in rt.shard_groups] == [
                int(k == home) for k in range(4)
            ]
            assert rt.in_(ts, key, formal(int)) == (key, 1)
            assert rt.space_size(ts) == 0
        assert len(homes) > 1  # the keys above do spread
        # a wildcard first field pins nothing: still the cross-shard rung
        plan, actuals = rt._plan(OpCode.INP, (ts,), (formal(), 2))
        assert rt.shard_of_ags(plan.ags, actuals) is None
        rt.out(ts, "alpha", 2)
        assert rt.inp(ts, formal(), 2) == ("alpha", 2)
        assert rt.inp(ts, formal(), 2) is None


# --------------------------------------------------------------------------- #
# the same walks with statements a program builds itself: they cross the pipe
# as (skeleton id, constants), so a fresh replica must be sent the skeletons
# --------------------------------------------------------------------------- #


def _out(ts, *fields):
    return AGS.atomic(Op.out(ts, *fields))


def _waiter(ts):
    """``< in("wake", ?v) => out("woke", v + 1) >``: one constant nested in
    an expression, so the parked skeleton has a hole there too."""
    return AGS.single(
        Guard.in_(ts, "wake", formal(int, "v")), [Op.out(ts, "woke", ref("v") + 1)]
    )


def test_hand_built_statements_across_crash_and_recovery():
    with MultiprocessRuntime(n_replicas=3) as rt:
        ts = rt.main_ts
        rt.execute(_out(ts, "a", 1))  # out/2: defined on all three
        rt.crash_replica(1)
        rt.execute(_out(ts, "b", 1, 2))  # out/3: first used with replica 1 down
        t, got = _park(rt, statement=_waiter(ts))  # new too, and parked
        rt.recover_replica(1)  # the parked skeleton crosses in the snapshot, by value
        assert _plans_known(rt) == [3, 0, 3]
        rt.execute(_out(ts, "b", 3, 4))  # out/3 again: now id 0, defined afresh
        rt.execute(_out(ts, "wake", 7))
        t.join(30)
        assert [r.bindings for r in got] == [{"v": 7}]
        assert rt.converged()
        assert len(rt.fingerprints()) == 3 and len(set(rt.fingerprints())) == 1
        assert _plans_known(rt) == [3, 2, 3]  # it knows what was used since
        assert rt.inp(ts, "woke", formal(int)) == ("woke", 8)
        assert rt.inp(ts, "wake", formal(int)) is None


def test_hand_built_statements_across_sigkill_and_auto_recovery():
    with MultiprocessRuntime(n_replicas=3, detect_failures=POLICY) as rt:
        ts = rt.main_ts
        monkey = ChaosMonkey(rt)
        for i in range(5):
            rt.execute(_out(ts, "pre", i))
        t, got = _park(rt, statement=_waiter(ts))
        monkey.kill_replica(1)  # behind the group's back
        monkey.wait_detected(1, timeout=10.0)
        rt.execute(_out(ts, "mid", 1, 2))  # a shape replica 1's successor will not know
        monkey.wait_recovered(1, timeout=20.0)
        for i in range(5):
            rt.execute(_out(ts, "post", i))
        rt.execute(_out(ts, "mid", 3, 4))
        rt.execute(_out(ts, "wake", 9))
        t.join(30)
        assert [r.bindings for r in got] == [{"v": 9}]
        assert rt.converged()
        assert len(rt.fingerprints()) == 3 and len(set(rt.fingerprints())) == 1
        assert rt.inp(ts, "woke", formal(int)) == ("woke", 10)
        assert rt.metrics_snapshot()["counters"]["auto_recoveries"] >= 1


def test_durable_reopen_replays_hand_built_statements(tmp_path):
    journal = str(tmp_path / "journal")
    with MultiprocessRuntime(n_replicas=2, durable_dir=journal) as rt:
        ts = rt.main_ts
        for i in range(20):
            rt.execute(_out(ts, "k", i, (i, "nested")))
        for i in range(0, 20, 2):
            res = rt.execute(AGS.single(
                Guard.in_(ts, "k", i, formal(tuple, "t")),
                [Op.out(ts, "done", ref("t"), ref("t") + (i * i,))],
            ))
            assert res.bindings == {"t": (i, "nested")}
        rt.quiesce()
        size, prints = rt.space_size(ts), rt.fingerprints()
        assert size == 20
    # the journal holds the statements as the pipe does, as skeleton ids and
    # actuals; they read back as 30 statements, each its skeleton and constants
    res = replay_dir(journal)
    assert all(payload[0] == "PLANNED" for _slot, payload in res.records)
    records = [cmd for _slot, cmd in replay_commands(res)]
    assert len(records) == 30
    assert all(type(cmd) is ExecuteAGS and cmd.actuals for cmd in records)
    with MultiprocessRuntime(n_replicas=2, durable_dir=journal) as rt:
        # the replay broadcasts them, through the one rule: two skeletons
        assert rt.group.journal_replayed == 30
        assert rt.space_size(ts) == size
        assert rt.fingerprints() == prints
        assert _plans_known(rt) == [2, 2]
        assert len(rt.group.transport._announced) == 2
        assert rt.inp(ts, "done", (4, "nested"), formal(tuple)) == (
            "done", (4, "nested"), (4, "nested", 16)
        )
        assert rt.converged()


def test_sharded_hand_built_statement_routes_where_it_did_by_value():
    """Routing reads the statement as submitted, upstream of the wire."""
    with MultiprocessRuntime(n_replicas=1, shards=4) as rt:
        ts = rt.main_ts
        homes = set()
        for n, key in enumerate(("alpha", "beta", "gamma", "delta", 7, ("t", 1))):
            home = shard_of(ts.id, key, 4)  # what the parent commit's classifier picks
            homes.add(home)
            take = AGS.single(
                Guard.in_(ts, key, formal(int, "v")), [Op.out(ts, key, "seen", ref("v") + n)]
            )
            assert rt.shard_of_ags(_out(ts, key, n)) == home
            assert rt.shard_of_ags(take) == home
            rt.execute(_out(ts, key, n))
            assert [g.space_size(ts) for g in rt.shard_groups] == [
                int(k == home) for k in range(4)
            ]
            assert rt.execute(take).bindings == {"v": n}
            assert rt.in_(ts, key, "seen", formal(int)) == (key, "seen", 2 * n)
            assert rt.space_size(ts) == 0
        assert len(homes) > 1  # the keys above do spread
        # each shard's sender announced only what was routed to it: the two
        # hand-built skeletons and the bare in_'s plan, never more
        tables = [len(g.transport._announced) for g in rt.shard_groups]
        assert all(n == (3 if k in homes else 0) for k, n in enumerate(tables)), tables

"""Unit tests for the deterministic TS state machine."""

import pytest

from repro import AGS, Branch, Guard, Op, formal, ref
from repro.core.spaces import MAIN_TS, Resilience, Scope
from repro.core.statemachine import (
    FAILURE_TAG,
    CreateSpace,
    DestroySpace,
    ExecuteAGS,
    HostFailed,
    HostRecovered,
    TSStateMachine,
)
from repro.core.tuples import Pattern


@pytest.fixture
def sm():
    return TSStateMachine()


def run_ags(sm, ags, rid=1, host=0, pid=0):
    return sm.apply(ExecuteAGS(rid, host, pid, ags))


def store(sm, handle=MAIN_TS):
    return sm.registry.store(handle)


class TestBasicOps:
    def test_out_deposits(self, sm):
        comps = run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "x", 1)))
        assert len(comps) == 1
        assert comps[0].result.succeeded
        assert store(sm).to_list() == [("x", 1)]

    def test_in_withdraws_and_binds(self, sm):
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "x", 42)))
        comps = run_ags(sm, AGS.single(Guard.in_(MAIN_TS, "x", formal(int, "v"))), rid=2)
        assert comps[0].result.bindings == {"v": 42}
        assert len(store(sm)) == 0

    def test_rd_does_not_withdraw(self, sm):
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "x", 42)))
        comps = run_ags(sm, AGS.single(Guard.rd(MAIN_TS, "x", formal(int, "v"))), rid=2)
        assert comps[0].result.bindings == {"v": 42}
        assert len(store(sm)) == 1

    def test_blocking_in_parks_until_out(self, sm):
        comps = run_ags(sm, AGS.single(Guard.in_(MAIN_TS, "x", formal(int, "v"))))
        assert comps == []
        assert len(sm.blocked) == 1
        comps = run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "x", 5)), rid=2)
        rids = {c.request_id for c in comps}
        assert rids == {1, 2}
        assert sm.blocked == []

    def test_probe_guard_never_blocks(self, sm):
        comps = run_ags(sm, AGS.single(Guard.inp(MAIN_TS, "x", formal(int))))
        assert len(comps) == 1
        assert not comps[0].result.succeeded
        assert comps[0].result.fired is None

    def test_wake_order_is_fifo(self, sm):
        run_ags(sm, AGS.single(Guard.in_(MAIN_TS, "x", formal(int, "v"))), rid=1)
        run_ags(sm, AGS.single(Guard.in_(MAIN_TS, "x", formal(int, "v"))), rid=2)
        comps = run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "x", 7)), rid=3)
        woken = [c.request_id for c in comps if c.request_id != 3]
        assert woken == [1]  # oldest blocked statement gets the tuple

    def test_one_out_wakes_chain(self, sm):
        # stmt1 waits for a->outs b ; stmt2 waits for b
        run_ags(
            sm,
            AGS.single(Guard.in_(MAIN_TS, "a"), [Op.out(MAIN_TS, "b")]),
            rid=1,
        )
        run_ags(sm, AGS.single(Guard.in_(MAIN_TS, "b")), rid=2)
        comps = run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "a")), rid=3)
        assert {c.request_id for c in comps} == {1, 2, 3}


class TestAtomicity:
    def test_fetch_and_increment(self, sm):
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "c", 0)))
        for i in range(10):
            run_ags(
                sm,
                AGS.single(
                    Guard.in_(MAIN_TS, "c", formal(int, "v")),
                    [Op.out(MAIN_TS, "c", ref("v") + 1)],
                ),
                rid=10 + i,
            )
        m = store(sm).find(Pattern(("c", formal(int, "v"))), remove=False)
        assert m.binding["v"] == 10

    def test_body_in_abort_rolls_back_everything(self, sm):
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "a", 1)))
        before = sm.fingerprint()
        comps = run_ags(
            sm,
            AGS.single(
                Guard.in_(MAIN_TS, "a", formal(int, "x")),
                [
                    Op.out(MAIN_TS, "b", 2),
                    Op.in_(MAIN_TS, "missing", formal(int, "y")),
                    Op.out(MAIN_TS, "c", 3),
                ],
            ),
            rid=2,
        )
        res = comps[0].result
        assert res.aborted
        assert not res.succeeded
        assert sm.fingerprint() == before  # guard withdraw also rolled back

    def test_rollback_restores_matching_priority(self, sm):
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "a", 1)))
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "a", 2)), rid=2)
        run_ags(
            sm,
            AGS.single(
                Guard.in_(MAIN_TS, "a", formal(int, "x")),
                [Op.in_(MAIN_TS, "nope")],
            ),
            rid=3,
        )
        m = store(sm).find(Pattern(("a", formal(int, "v"))), remove=False)
        assert m.binding["v"] == 1

    def test_body_probe_failure_does_not_abort(self, sm):
        comps = run_ags(
            sm,
            AGS.single(
                Guard.true(),
                [
                    Op.inp(MAIN_TS, "maybe", formal(int)),
                    Op.out(MAIN_TS, "done", 1),
                ],
            ),
        )
        res = comps[0].result
        assert res.succeeded
        assert res.probe_results == {0: False}
        assert store(sm).contains(Pattern(("done", 1)))

    def test_body_probe_binding_used_later_aborts_when_missed(self, sm):
        comps = run_ags(
            sm,
            AGS.single(
                Guard.true(),
                [
                    Op.inp(MAIN_TS, "maybe", formal(int, "v")),
                    Op.out(MAIN_TS, "copy", ref("v")),
                ],
            ),
        )
        assert comps[0].result.aborted
        assert len(store(sm)) == 0


class TestDisjunction:
    def test_branch_order_priority(self, sm):
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "a", 1), Op.out(MAIN_TS, "b", 2)))
        ags = AGS([
            Branch(Guard.in_(MAIN_TS, "a", formal(int, "x")), []),
            Branch(Guard.in_(MAIN_TS, "b", formal(int, "y")), []),
        ])
        comps = run_ags(sm, ags, rid=2)
        assert comps[0].result.fired == 0

    def test_second_branch_fires_when_first_blocked(self, sm):
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "b", 2)))
        ags = AGS([
            Branch(Guard.in_(MAIN_TS, "a", formal(int, "x")), []),
            Branch(Guard.in_(MAIN_TS, "b", formal(int, "y")), []),
        ])
        comps = run_ags(sm, ags, rid=2)
        assert comps[0].result.fired == 1
        assert comps[0].result.bindings == {"y": 2}

    def test_probe_or_default_pattern(self, sm):
        ags = AGS([
            Branch(Guard.inp(MAIN_TS, "job", formal(int, "j")), []),
            Branch(Guard.true(), [Op.out(MAIN_TS, "idle", 1)]),
        ])
        comps = run_ags(sm, ags)
        assert comps[0].result.fired == 1
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "job", 9)), rid=2)
        comps = run_ags(sm, ags, rid=3)
        assert comps[0].result.fired == 0
        assert comps[0].result.bindings == {"j": 9}

    def test_all_blocking_disjunction_parks(self, sm):
        ags = AGS([
            Branch(Guard.in_(MAIN_TS, "a"), []),
            Branch(Guard.in_(MAIN_TS, "b"), []),
        ])
        assert run_ags(sm, ags) == []
        comps = run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "b")), rid=2)
        woken = [c for c in comps if c.request_id == 1]
        assert woken and woken[0].result.fired == 1


class TestMoveCopy:
    def test_move_transfers_all_matches(self, sm):
        h = sm.registry.create("dst")
        for i in range(4):
            run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "t", i)), rid=i)
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "other", 1)), rid=10)
        run_ags(sm, AGS.atomic(Op.move(MAIN_TS, h, "t", formal(int))), rid=11)
        assert len(store(sm)) == 1
        assert [t[1] for t in store(sm, h).to_list()] == [0, 1, 2, 3]

    def test_copy_preserves_source(self, sm):
        h = sm.registry.create("dst")
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "t", 1)))
        run_ags(sm, AGS.atomic(Op.copy(MAIN_TS, h, "t", formal(int))), rid=2)
        assert len(store(sm)) == 1
        assert len(store(sm, h)) == 1

    def test_move_wakes_blocked_statements(self, sm):
        h = sm.registry.create("dst")
        run_ags(sm, AGS.single(Guard.in_(h, "t", formal(int, "v"))), rid=1)
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "t", 3)), rid=2)
        comps = run_ags(sm, AGS.atomic(Op.move(MAIN_TS, h, "t", formal(int))), rid=3)
        assert any(c.request_id == 1 for c in comps)


class TestSpaceCommands:
    def test_create_space_returns_handle(self, sm):
        comps = sm.apply(CreateSpace(1, 0, "s", Resilience.STABLE, Scope.SHARED, None))
        h = comps[0].result
        assert sm.registry.exists(h)

    def test_destroy_space(self, sm):
        h = sm.registry.create("s")
        comps = sm.apply(DestroySpace(1, 0, h))
        assert comps[0].result is True
        assert not sm.registry.exists(h)


class TestFailureCommands:
    def test_host_failed_deposits_failure_tuple(self, sm):
        sm.apply(HostFailed(1, 0, 2))
        assert store(sm).contains(Pattern((FAILURE_TAG, 2)))

    def test_host_failed_wakes_failure_watchers(self, sm):
        run_ags(sm, AGS.single(Guard.in_(MAIN_TS, FAILURE_TAG, formal(int, "h"))))
        comps = sm.apply(HostFailed(2, 0, 5))
        assert comps and comps[0].result.bindings == {"h": 5}

    def test_host_failed_drops_dead_hosts_blocked_statements(self, sm):
        sm.apply(ExecuteAGS(1, 3, 0, AGS.single(Guard.in_(MAIN_TS, "never"))))
        assert len(sm.blocked) == 1
        sm.apply(HostFailed(2, 0, 3))
        assert sm.blocked == []

    def test_host_recovered_deposits_recovery_tuple(self, sm):
        sm.apply(HostRecovered(1, 0, 2))
        assert store(sm).contains(Pattern(("ft_recovery", 2)))


class TestDeterminismAndSnapshots:
    def test_identical_command_streams_converge(self):
        cmds = [
            ExecuteAGS(1, 0, 0, AGS.atomic(Op.out(MAIN_TS, "x", 1))),
            ExecuteAGS(2, 1, 0, AGS.single(Guard.in_(MAIN_TS, "x", formal(int, "v")),
                                           [Op.out(MAIN_TS, "x", ref("v") + 1)])),
            HostFailed(3, 0, 2),
            ExecuteAGS(4, 0, 0, AGS.atomic(Op.out(MAIN_TS, "y", 2))),
        ]
        a, b = TSStateMachine(), TSStateMachine()
        for c in cmds:
            a.apply(c)
        for c in cmds:
            b.apply(c)
        assert a.fingerprint() == b.fingerprint()

    def test_snapshot_roundtrip_includes_blocked(self, sm):
        run_ags(sm, AGS.atomic(Op.out(MAIN_TS, "x", 1)))
        run_ags(sm, AGS.single(Guard.in_(MAIN_TS, "never")), rid=2)
        clone = TSStateMachine.from_snapshot(sm.snapshot())
        assert clone.fingerprint() == sm.fingerprint()
        # the cloned blocked statement wakes identically
        c1 = sm.apply(ExecuteAGS(3, 0, 0, AGS.atomic(Op.out(MAIN_TS, "never"))))
        c2 = clone.apply(ExecuteAGS(3, 0, 0, AGS.atomic(Op.out(MAIN_TS, "never"))))
        assert [c.request_id for c in c1] == [c.request_id for c in c2]
        assert sm.fingerprint() == clone.fingerprint()

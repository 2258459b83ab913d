"""Edge cases of the runtime API and AGS execution semantics."""

import pickle

import pytest

from repro import (
    AGS,
    AGSResult,
    Branch,
    Guard,
    HostFailedError,
    LocalRuntime,
    Op,
    Resilience,
    Scope,
    ScopeError,
    SpaceError,
    formal,
    ref,
    register_function,
)
from repro.core.ags import Const, Expr
from repro.core.statemachine import CancelRequest, ExecuteAGS, TSStateMachine
from repro.core.spaces import MAIN_TS


@pytest.fixture
def rt():
    return LocalRuntime()


class TestErrorSurfacing:
    def test_wrapper_raises_scope_error(self, rt):
        h = rt.create_space("p", Resilience.STABLE, Scope.PRIVATE, owner=1)
        with pytest.raises(ScopeError):
            rt.view(2).out(h, "x", 1)

    def test_host_failed_error_survives_pickling(self):
        back = pickle.loads(pickle.dumps(HostFailedError(3)))
        assert type(back) is HostFailedError
        assert back.host_id == 3
        assert str(back) == "host 3 has failed"

    def test_execute_returns_aborted_without_raising(self, rt):
        res = rt.execute(AGS.single(Guard.true(), [Op.in_(MAIN_TS, "missing")]))
        assert res.aborted
        assert not res.succeeded

    def test_destroyed_space_aborts(self, rt):
        h = rt.create_space("tmp")
        rt.destroy_space(h)
        res = rt.execute(AGS.atomic(Op.out(h, "x", 1)))
        assert res.aborted
        assert isinstance(res.error, SpaceError)
        with pytest.raises(SpaceError):
            rt.out(h, "x", 1)

    def test_out_invalid_value_aborts_cleanly(self, rt):
        register_function("edges_make_list", lambda: (1, 2))
        # valid tuple result is fine; now a function producing a list field
        register_function("edges_make_bad", lambda: [1, 2])
        res = rt.execute(AGS.atomic(
            Op.out(MAIN_TS, "v", Expr("edges_make_bad", ()))
        ))
        assert res.aborted
        assert rt.space_size(MAIN_TS) == 0


class TestDynamicSpaceHandles:
    def test_ts_handle_bound_by_guard_used_in_body(self, rt):
        aux = rt.create_space("aux")
        rt.out(MAIN_TS, "where", aux)
        res = rt.execute(AGS.single(
            Guard.rd(MAIN_TS, "where", formal(object, "dest")),
            [Op.out(ref("dest"), "delivered", 1)],
        ))
        assert res.succeeded
        assert rt.space_size(aux) == 1

    def test_move_with_dynamic_destination(self, rt):
        aux = rt.create_space("aux")
        rt.out(MAIN_TS, "target", aux)
        rt.out(MAIN_TS, "item", 1)
        rt.out(MAIN_TS, "item", 2)
        res = rt.execute(AGS.single(
            Guard.in_(MAIN_TS, "target", formal(object, "dst")),
            [Op.move(MAIN_TS, ref("dst"), "item", formal(int))],
        ))
        assert res.succeeded
        assert rt.space_size(aux) == 2

    def test_non_handle_in_ts_position_aborts(self, rt):
        rt.out(MAIN_TS, "where", 42)  # an int, not a handle
        res = rt.execute(AGS.single(
            Guard.rd(MAIN_TS, "where", formal(int, "dest")),
            [Op.out(ref("dest"), "boom", 1)],
        ))
        assert res.aborted


class TestRegisteredFunctions:
    def test_custom_function_in_ags(self, rt):
        register_function("edges_clamp", lambda v, lo, hi: max(lo, min(hi, v)))
        rt.out(MAIN_TS, "v", 150)
        rt.execute(AGS.single(
            Guard.in_(MAIN_TS, "v", formal(int, "x")),
            [Op.out(MAIN_TS, "v", Expr("edges_clamp", (ref("x"), Const(0), Const(100))))],
        ))
        assert rt.rd(MAIN_TS, "v", formal(int)) == ("v", 100)

    def test_builtin_tuple_and_nth(self, rt):
        rt.execute(AGS.atomic(
            Op.out(MAIN_TS, "pair", Expr("tuple", (Const(1), Const(2))))
        ))
        t = rt.in_(MAIN_TS, "pair", formal(tuple))
        assert t[1] == (1, 2)
        rt.execute(AGS.atomic(
            Op.out(MAIN_TS, "first", Expr("nth", (Const((7, 8)), Const(0))))
        ))
        assert rt.in_(MAIN_TS, "first", formal(int)) == ("first", 7)


class TestAGSResultAPI:
    def test_getitem_and_get(self):
        r = AGSResult(0, {"x": 5})
        assert r["x"] == 5
        assert r.get("x") == 5
        assert r.get("y", "dflt") == "dflt"
        with pytest.raises(KeyError):
            r["y"]

    def test_reprs(self):
        assert "no branch" in repr(AGSResult(None))
        assert "branch=1" in repr(AGSResult(1, {"a": 2}))


class TestCancellation:
    def test_cancel_request_removes_blocked(self):
        sm = TSStateMachine()
        sm.apply(ExecuteAGS(1, 0, 0, AGS.single(Guard.in_(MAIN_TS, "never"))))
        assert len(sm.blocked) == 1
        comps = sm.apply(CancelRequest(2, 0, 1))
        assert len(sm.blocked) == 0
        assert comps[0].request_id == 1
        assert comps[0].result.error == "cancelled"

    def test_cancel_missing_is_noop(self):
        sm = TSStateMachine()
        assert sm.apply(CancelRequest(1, 0, 999)) == []

    def test_cancel_is_deterministic_across_replicas(self):
        def run():
            sm = TSStateMachine()
            sm.apply(ExecuteAGS(1, 0, 0, AGS.single(Guard.in_(MAIN_TS, "x"))))
            sm.apply(CancelRequest(2, 0, 1))
            sm.apply(ExecuteAGS(3, 0, 0, AGS.atomic(Op.out(MAIN_TS, "x"))))
            return sm.fingerprint(), len(sm.registry.store(MAIN_TS))

        assert run() == run()
        # the cancelled statement must not have taken the tuple
        _fp, size = run()
        assert size == 1


class TestProcessViewSurface:
    def test_view_exposes_all_ops(self, rt):
        v = rt.view(7)
        v.out(MAIN_TS, "a", 1)
        assert v.rd(MAIN_TS, "a", formal(int)) == ("a", 1)
        assert v.rdp(MAIN_TS, "a", formal(int)) is not None
        assert v.inp(MAIN_TS, "a", formal(int)) == ("a", 1)
        h = v.create_space("mine", scope=Scope.PRIVATE)
        v.out(h, "secret", 1)
        v.move(MAIN_TS, MAIN_TS, "nothing", formal())
        v.copy(MAIN_TS, MAIN_TS, "nothing", formal())
        v.destroy_space(h)
        assert v.main_ts == MAIN_TS
        assert v.process_id == 7

    def test_eval_with_explicit_process_id(self, rt):
        h = rt.eval_(lambda proc: proc.process_id, process_id=1234)
        assert h.join(timeout=10) == 1234

    def test_nested_eval(self, rt):
        def parent(proc):
            child = proc.eval_(lambda p: "grandchild-result")
            return child.join(timeout=10)

        assert rt.eval_(parent).join(timeout=20) == "grandchild-result"


class TestDisjunctionSemantics:
    def test_branch_priority_is_stable_under_blocking(self, rt):
        # both branches become satisfiable simultaneously by one out:
        # the earlier branch must win
        results = []

        def waiter(proc):
            res = proc.execute(AGS([
                Branch(Guard.in_(MAIN_TS, "x", formal(int, "a")), []),
                Branch(Guard.in_(MAIN_TS, "x", formal(int, "b")), []),
            ]))
            results.append(res.fired)

        h = rt.eval_(waiter)
        rt.out(MAIN_TS, "x", 1)
        h.join(timeout=10)
        assert results == [0]

    def test_three_way_disjunction(self, rt):
        rt.out(MAIN_TS, "c", 3)
        res = rt.execute(AGS([
            Branch(Guard.in_(MAIN_TS, "a", formal(int)), []),
            Branch(Guard.in_(MAIN_TS, "b", formal(int)), []),
            Branch(Guard.in_(MAIN_TS, "c", formal(int, "v")), []),
        ]))
        assert res.fired == 2
        assert res["v"] == 3

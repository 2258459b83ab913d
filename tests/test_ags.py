"""Unit tests for AGS construction, operands and validation."""

import pytest

from repro import (
    AGS,
    AGSError,
    Branch,
    Const,
    Expr,
    FormalBindingError,
    Guard,
    NotDeterministicError,
    Op,
    OpCode,
    formal,
    ref,
    register_function,
)
from repro.core.ags import as_operand
from repro.core.spaces import MAIN_TS


class TestOperands:
    def test_const_evaluates_to_itself(self):
        assert Const(5).evaluate({}) == 5

    def test_const_rejects_invalid_values(self):
        with pytest.raises(AGSError):
            Const([1, 2])

    def test_formal_ref_reads_env(self):
        assert ref("x").evaluate({"x": 9}) == 9

    def test_formal_ref_unbound_raises(self):
        with pytest.raises(FormalBindingError):
            ref("x").evaluate({})

    def test_operator_sugar_builds_exprs(self):
        e = ref("x") + 1
        assert isinstance(e, Expr)
        assert e.evaluate({"x": 4}) == 5

    def test_arithmetic_suite(self):
        env = {"a": 7, "b": 2}
        assert (ref("a") - ref("b")).evaluate(env) == 5
        assert (ref("a") * ref("b")).evaluate(env) == 14
        assert (ref("a") // ref("b")).evaluate(env) == 3
        assert (ref("a") % ref("b")).evaluate(env) == 1
        assert (ref("a") / ref("b")).evaluate(env) == 3.5
        assert (-ref("a")).evaluate(env) == -7
        assert (1 + ref("b")).evaluate(env) == 3
        assert (10 - ref("b")).evaluate(env) == 8

    def test_free_names(self):
        e = (ref("x") + ref("y")) * 2
        assert e.free_names() == {"x", "y"}

    def test_unregistered_function_rejected(self):
        with pytest.raises(NotDeterministicError):
            Expr("launch_missiles", (Const(1),))

    def test_register_function(self):
        register_function("double_for_test", lambda v: v * 2)
        assert Expr("double_for_test", (Const(4),)).evaluate({}) == 8

    def test_register_duplicate_rejected(self):
        with pytest.raises(AGSError):
            register_function("add", lambda a, b: a + b)

    def test_as_operand_coercion(self):
        assert isinstance(as_operand(3), Const)
        r = ref("v")
        assert as_operand(r) is r


class TestOp:
    def test_out_rejects_formals(self):
        with pytest.raises(AGSError):
            Op.out(MAIN_TS, "x", formal(int))

    def test_move_requires_destination(self):
        with pytest.raises(AGSError):
            Op(OpCode.MOVE, MAIN_TS, ("x",))

    def test_single_ts_ops_reject_destination(self):
        with pytest.raises(AGSError):
            Op(OpCode.OUT, MAIN_TS, ("x",), ts2=MAIN_TS)

    def test_move_rejects_named_formals(self):
        with pytest.raises(AGSError):
            Op.move(MAIN_TS, MAIN_TS, "x", formal(int, "v"))

    def test_ops_need_fields(self):
        with pytest.raises(AGSError):
            Op.out(MAIN_TS)

    def test_binds_lists_named_formals(self):
        op = Op.in_(MAIN_TS, "t", formal(int, "a"), formal(str), formal(float, "b"))
        assert op.binds() == ("a", "b")

    def test_reads_collects_operand_names(self):
        op = Op.out(MAIN_TS, "t", ref("a") + ref("b"))
        assert op.reads() == {"a", "b"}

    def test_resolve_pattern_and_values(self):
        op = Op.in_(MAIN_TS, "t", ref("k"), formal(int, "v"))
        pat = op.resolve_pattern({"k": 5})
        assert pat.fields[1] == 5
        out = Op.out(MAIN_TS, "t", ref("v") + 1)
        assert out.compiled().tuple_({"v": 9}) == ("t", 10)


class TestGuard:
    def test_true_guard(self):
        g = Guard.true()
        assert not g.blocking
        assert g.binds() == ()

    def test_in_guard_blocking(self):
        assert Guard.in_(MAIN_TS, "x", formal(int)).blocking
        assert Guard.rd(MAIN_TS, "x").blocking

    def test_probe_guards_not_blocking(self):
        assert not Guard.inp(MAIN_TS, "x").blocking
        assert not Guard.rdp(MAIN_TS, "x").blocking

    def test_out_cannot_guard(self):
        with pytest.raises(AGSError):
            Guard(Guard.true().kind.__class__.OP, Op.out(MAIN_TS, "x"))


class TestBranchValidation:
    def test_body_can_use_guard_formals(self):
        b = Branch(
            Guard.in_(MAIN_TS, "c", formal(int, "v")),
            [Op.out(MAIN_TS, "c", ref("v") + 1)],
        )
        assert b.body[0].reads() == {"v"}

    def test_body_unbound_formal_rejected(self):
        with pytest.raises(FormalBindingError):
            Branch(Guard.true(), [Op.out(MAIN_TS, "c", ref("nope"))])

    def test_guard_cannot_reference_formals(self):
        with pytest.raises(FormalBindingError):
            Branch(Guard.in_(MAIN_TS, "c", ref("x")), [])

    def test_body_in_binds_for_later_ops(self):
        b = Branch(
            Guard.true(),
            [
                Op.in_(MAIN_TS, "a", formal(int, "x")),
                Op.out(MAIN_TS, "b", ref("x")),
            ],
        )
        assert len(b.body) == 2

    def test_rebinding_rejected(self):
        with pytest.raises(AGSError):
            Branch(
                Guard.in_(MAIN_TS, "a", formal(int, "x")),
                [Op.in_(MAIN_TS, "b", formal(int, "x"))],
            )

    def test_use_before_bind_in_body_rejected(self):
        with pytest.raises(FormalBindingError):
            Branch(
                Guard.true(),
                [
                    Op.out(MAIN_TS, "b", ref("x")),
                    Op.in_(MAIN_TS, "a", formal(int, "x")),
                ],
            )


class TestAGS:
    def test_needs_a_branch(self):
        with pytest.raises(AGSError):
            AGS([])

    def test_blocking_iff_all_guards_blocking(self):
        blocking = AGS.single(Guard.in_(MAIN_TS, "x"))
        assert blocking.blocking
        probing = AGS([
            Branch(Guard.in_(MAIN_TS, "x"), []),
            Branch(Guard.true(), []),
        ])
        assert not probing.blocking
        assert not AGS.single(Guard.inp(MAIN_TS, "x")).blocking

    def test_atomic_constructor(self):
        a = AGS.atomic(Op.out(MAIN_TS, "x", 1), Op.out(MAIN_TS, "y", 2))
        assert len(a.branches) == 1
        assert a.branches[0].guard.kind.value == "true"

    def test_bound_names(self):
        a = AGS.single(
            Guard.in_(MAIN_TS, "t", formal(int, "a")),
            [Op.in_(MAIN_TS, "u", formal(str, "b"))],
        )
        assert a.bound_names(0) == ("a", "b")

    def test_value_equality(self):
        mk = lambda: AGS.single(
            Guard.in_(MAIN_TS, "c", formal(int, "v")),
            [Op.out(MAIN_TS, "c", ref("v") + 1)],
        )
        assert mk() == mk()
        assert hash(mk()) == hash(mk())

    def test_picklable(self):
        import pickle

        a = AGS.single(
            Guard.in_(MAIN_TS, "c", formal(int, "v")),
            [Op.out(MAIN_TS, "c", ref("v") + 1)],
        )
        b = pickle.loads(pickle.dumps(a))
        assert b == a

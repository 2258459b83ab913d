"""A statement whose operand cannot be evaluated aborts and rolls back.

An operand fails to evaluate when a registered function raises (``10 //
x`` with ``x`` bound to 0) or when an actual is not a field value (a list
given for a plan's hole).  Either way the statement aborts — in the guard
and in the body alike — and everything it did is undone: a guard's ``in``
gives its tuple back.  Every replica evaluates the same operand on the
same values, so every replica aborts the same way; none raises out of its
apply loop, and a journal holding the statement replays it as an abort.
"""

from __future__ import annotations

import pytest

from repro import AGS, Guard, LocalRuntime, Op, formal, ref
from repro._errors import OperandError, TupleError
from repro.core.ags import Expr, Param
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime
from repro.persist import SegmentedWALRuntime

BACKENDS = {
    "local": LocalRuntime,
    "threaded": lambda: ThreadedReplicaRuntime(3),
    "multiproc": lambda: MultiprocessRuntime(2),
}


def divide_by_what_it_took(ts):
    """``< in(ts, "k", ?x) => out(ts, "r", 10 // x) >``"""
    return AGS.single(
        Guard.in_(ts, "k", formal(int, "x")),
        [Op.out(ts, "r", Expr("floordiv", [10, ref("x")]))],
    )


def probe_the_hole(ts, in_guard):
    """A plan whose body ``inp`` (after a guard ``in``) or whose guard
    ``inp`` reads its one actual."""
    if in_guard:
        return AGS.single(
            Guard.in_(ts, "k", formal(int, "x")), [Op.inp(ts, Param(0), formal(int))]
        )
    return AGS.single(Guard.inp(ts, Param(0), formal(int)))


def abort_everything(rt):
    """The three failing statements; what each returned."""
    ts = rt.main_ts
    rt.out(ts, "k", 0)
    return [
        rt.execute(divide_by_what_it_took(ts)),
        rt.execute(probe_the_hole(ts, in_guard=True), ([1],)),
        rt.execute(probe_the_hole(ts, in_guard=False), ({"a": 1},)),
    ]


def assert_aborted_and_rolled_back(rt, results):
    ts = rt.main_ts
    function, body_actual, guard_actual = results
    assert function.fired == 0 and isinstance(function.error, OperandError)
    # the same words on every backend, whatever form the statement travelled in
    assert str(function.error) == "floordiv: ZeroDivisionError: integer division or modulo by zero"
    assert body_actual.fired == 0 and isinstance(body_actual.error, TupleError)
    assert str(body_actual.error) == "field 0: list is not an allowed field type"
    assert guard_actual.fired == 0 and isinstance(guard_actual.error, TupleError)
    assert str(guard_actual.error) == "field 0: dict is not an allowed field type"
    # the guard's withdrawal was undone, twice; nothing was deposited
    assert rt.rdp(ts, "k", formal(int)) == ("k", 0)
    assert rt.rdp(ts, "r", formal()) is None
    # and the runtime goes on: the same statement fires once x is not 0
    rt.in_(ts, "k", 0)
    rt.out(ts, "k", 5)
    assert rt.execute(divide_by_what_it_took(ts)).succeeded
    assert rt.in_(ts, "r", formal(int)) == ("r", 2)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_failing_operand_aborts_and_rolls_back(backend):
    with BACKENDS[backend]() as rt:
        assert_aborted_and_rolled_back(rt, abort_everything(rt))
        if backend != "local":
            assert len(set(rt.fingerprints())) == 1


def test_a_classic_operation_raises_the_operands_error():
    with LocalRuntime() as rt:
        with pytest.raises(OperandError, match="ZeroDivisionError"):
            rt.out(rt.main_ts, "r", Expr("floordiv", [1, 0]))
        assert rt.rdp(rt.main_ts, "r", formal()) is None


def test_a_journal_holding_the_aborts_reopens(tmp_path):
    d = str(tmp_path / "wal")
    rt = SegmentedWALRuntime(d, fsync=False)
    results = abort_everything(rt)  # journaled before they applied
    fingerprint = rt.state_machine.fingerprint()
    rt.close()
    again = SegmentedWALRuntime(d, fsync=False)
    assert again.state_machine.fingerprint() == fingerprint
    assert_aborted_and_rolled_back(again, results)
    again.close()


def test_a_durable_group_holding_the_aborts_reopens(tmp_path):
    d = str(tmp_path / "journal")
    with ThreadedReplicaRuntime(2, durable_dir=d) as rt:
        results = abort_everything(rt)
        fingerprints = rt.fingerprints()
    with ThreadedReplicaRuntime(2, durable_dir=d) as back:
        assert back.fingerprints() == fingerprints
        assert_aborted_and_rolled_back(back, results)

"""Property-based tests for the replicated state machine's core contracts.

These are the invariants the whole FT-Linda design leans on (Sec. 5):

1. **determinism** — identical command sequences produce identical state
   on independent machines (this is what lets one multicast replace a
   commit protocol);
2. **snapshot transparency** — a replica built from a mid-stream snapshot
   and fed the remainder of the stream converges to the same state (this
   is what makes recovery state transfer sound);
3. **atomicity** — an aborted AGS leaves the fingerprint untouched;
4. **conservation** — out/in across arbitrary AGSs never duplicates or
   invents tuples.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import AGS, Branch, Guard, Op, formal, ref
from repro.core.spaces import MAIN_TS
from repro.core.ags import OpCode
from repro.core.statemachine import ExecuteAGS, HostFailed, TSStateMachine

# -- command stream strategy ------------------------------------------------- #

channels = st.sampled_from(["a", "b", "c"])
values = st.integers(min_value=0, max_value=5)


@st.composite
def ags_statement(draw):
    """A random small AGS over channels a/b/c in the main space."""
    kind = draw(st.sampled_from(
        ["out", "in", "inp_or_true", "incr", "transfer", "disjunct"]
    ))
    ch = draw(channels)
    v = draw(values)
    if kind == "out":
        return AGS.atomic(Op.out(MAIN_TS, ch, v))
    if kind == "in":
        # blocking withdraw; may park
        return AGS.single(Guard.in_(MAIN_TS, ch, formal(int, "x")))
    if kind == "inp_or_true":
        return AGS([
            Branch(Guard.inp(MAIN_TS, ch, formal(int, "x")),
                   [Op.out(MAIN_TS, "taken", ref("x"))]),
            Branch(Guard.true(), [Op.out(MAIN_TS, "idle", 0)]),
        ])
    if kind == "incr":
        return AGS.single(
            Guard.in_(MAIN_TS, ch, formal(int, "x")),
            [Op.out(MAIN_TS, ch, ref("x") + 1)],
        )
    if kind == "transfer":
        src, dst = draw(st.tuples(channels, channels))
        return AGS.single(
            Guard.in_(MAIN_TS, src, formal(int, "x")),
            [Op.out(MAIN_TS, dst, ref("x"))],
        )
    # disjunct
    other = draw(channels)
    return AGS([
        Branch(Guard.in_(MAIN_TS, ch, formal(int, "x")), []),
        Branch(Guard.in_(MAIN_TS, other, formal(int, "y")),
               [Op.out(MAIN_TS, ch, ref("y"))]),
    ])


@st.composite
def command_stream(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    cmds = []
    for rid in range(1, n + 1):
        if draw(st.integers(0, 9)) == 0:
            cmds.append(HostFailed(rid, 0, draw(st.integers(1, 3))))
        else:
            origin = draw(st.integers(0, 3))
            cmds.append(ExecuteAGS(rid, origin, 0, draw(ags_statement())))
    return cmds


# -- properties -------------------------------------------------------------- #


@given(command_stream())
@settings(max_examples=150, deadline=None)
def test_determinism_two_machines(cmds):
    a, b = TSStateMachine(), TSStateMachine()
    comps_a = [c for cmd in cmds for c in a.apply(cmd)]
    comps_b = [c for cmd in cmds for c in b.apply(cmd)]
    assert a.fingerprint() == b.fingerprint()
    assert [(c.request_id, c.result.fired, c.result.bindings) for c in comps_a] == [
        (c.request_id, c.result.fired, c.result.bindings)
        for c in comps_b
        if True
    ]


@given(command_stream(), st.integers(min_value=0, max_value=39))
@settings(max_examples=150, deadline=None)
def test_snapshot_then_replay_converges(cmds, cut):
    cut = min(cut, len(cmds))
    full = TSStateMachine()
    for cmd in cmds[:cut]:
        full.apply(cmd)
    restored = TSStateMachine.from_snapshot(full.snapshot())
    for cmd in cmds[cut:]:
        ca = full.apply(cmd)
        cb = restored.apply(cmd)
        assert [c.request_id for c in ca] == [c.request_id for c in cb]
    assert full.fingerprint() == restored.fingerprint()


@given(st.lists(st.tuples(channels, values), min_size=0, max_size=10), channels)
@settings(max_examples=100, deadline=None)
def test_aborted_ags_is_invisible(seeds, missing_ch):
    sm = TSStateMachine()
    rid = 0
    for ch, v in seeds:
        rid += 1
        sm.apply(ExecuteAGS(rid, 0, 0, AGS.atomic(Op.out(MAIN_TS, ch, v))))
    before = sm.fingerprint()
    # a branch guaranteed to fire (true guard) whose body aborts at the end
    doomed = AGS.single(
        Guard.true(),
        [
            Op.out(MAIN_TS, "scratch", 1),
            Op.out(MAIN_TS, "scratch", 2),
            Op.in_(MAIN_TS, "definitely-missing-" + missing_ch),
        ],
    )
    comps = sm.apply(ExecuteAGS(rid + 1, 0, 0, doomed))
    assert comps[0].result.aborted
    assert sm.fingerprint() == before


@given(command_stream())
@settings(max_examples=100, deadline=None)
def test_conservation_across_streams(cmds):
    """Tuples are conserved: the spaces hold exactly what was minted.

    Counted from the completions: a statement that committed withdrew one
    tuple if its fired guard is an ``in``/``inp`` and deposited one per
    ``out`` in the fired branch's body; a parked or aborted statement
    changed nothing.  Each ``HostFailed`` deposits one failure tuple, which
    no statement in the stream can withdraw.
    """
    sm = TSStateMachine()
    statements = {c.request_id: c.ags for c in cmds if isinstance(c, ExecuteAGS)}
    completed: list[int] = []
    deposits = sum(isinstance(c, HostFailed) for c in cmds)
    withdrawals = 0
    for cmd in cmds:
        for comp in sm.apply(cmd):
            if comp.request_id not in statements:
                continue
            completed.append(comp.request_id)
            result = comp.result
            if result.fired is None or result.error is not None:
                continue
            branch = statements[comp.request_id].branches[result.fired]
            guard = branch.guard.op
            withdrawals += guard is not None and guard.code.withdraws
            deposits += sum(op.code is OpCode.OUT for op in branch.body)
    assert sum(len(store) for _h, store in sm.registry) == deposits - withdrawals
    # each statement completes at most once, and only a statement that has
    # not completed can still be parked
    assert len(completed) == len(set(completed))
    parked = {b.command.request_id for b in sm.blocked}
    assert parked.isdisjoint(completed)

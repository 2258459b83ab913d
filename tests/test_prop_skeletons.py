"""Hand-built statements on the pipe against the path they replaced.

A broadcast no longer carries a statement by value: the encoder takes its
constants out, ships ``(skeleton id, actuals + constants)`` and the replica
process runs the skeleton.  The by-value path is kept *here*, as the
reference — the same items handed straight to :func:`replica_loop`, which
is what every replica saw at the parent commit — and generated programs
must produce the same emissions both ways: completions in the same order
(results, bindings, probe results, error types and messages), the same
fingerprint and the same parked waiters after every batch, and a snapshot
that restores to the same machine.
"""

from __future__ import annotations

import pickle

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import AGS, Guard, Op, formal, ref
from repro.core.ags import AGSResult, Branch, Const, Expr, GuardKind, OpCode
from repro.core.spaces import MAIN_TS, Resilience, Scope, TSHandle
from repro.core.tuples import Formal
from repro.core.statemachine import CreateSpace, ExecuteAGS, TSStateMachine
from repro.replication.worker import compact_batch, replica_loop, run_replica_process

SIDE = TSHandle(1, "side", Resilience.STABLE, Scope.SHARED)  # created first
GONE = TSHandle(9, "gone", Resilience.STABLE, Scope.SHARED)  # never created


# -- both ways ---------------------------------------------------------------- #


class _Frames:
    """The read end of a command pipe holding *frames*, then EOF."""

    def __init__(self, frames):
        self._frames = iter(frames)

    def recv_bytes(self):
        try:
            return next(self._frames)
        except StopIteration:
            raise EOFError from None


class _Replies:
    """The write end of a reply pipe: keeps what was sent, unpickled."""

    def __init__(self):
        self.items = []

    def send_bytes(self, blob):
        self.items.append(pickle.loads(blob))


def by_value(items):
    """What a replica emits when the items reach its loop as they are."""
    emitted = []
    replica_loop(0, iter([*items, None]).__next__, emitted.append)
    return emitted


def on_the_pipe(items, forget_at=None):
    """The same, through the encoder, pickle and the replica process's
    expansion; the sender forgets what it announced before item *forget_at*
    (as it does when some other replica restarts)."""
    announced: dict = {}
    frames = []
    for i, item in enumerate(items):
        if i == forget_at:
            announced.clear()
        if item[0] == "BATCH":  # PipeTransport.broadcast
            item = compact_batch(item, announced)
            entries = item[2] if item[0] == "PLANNED" else item[1]
            assert not any(type(e) is ExecuteAGS for e in entries)
        frames.append(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
    replies = _Replies()
    run_replica_process(0, _Frames(frames), replies)
    return replies.items, announced


def _waiters(waiters):
    return [{k: v for k, v in w.items() if k != "blocked_for"} for w in waiters]


def _outcome(result):
    """A completion's result as comparable data, values type-exact."""
    if isinstance(result, AGSResult):
        error = result.error
        if isinstance(error, Exception):
            error = (type(error).__name__, str(error))
        return (result.fired, repr(result.bindings), repr(result.probe_results), error)
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    return repr(result)


def comparable(emitted):
    out = []
    for item in emitted:
        if item[0] == "COMPS":
            out.append(("COMPS", [(rid, _outcome(r)) for rid, r in item[1]], item[2]))
        elif item[0] == "QUERY" and isinstance(item[3], dict):  # introspect
            out.append(("waiters", _waiters(item[3]["waiters"]), item[3]["spaces"]))
        elif item[0] == "QUERY" and isinstance(item[3], tuple):  # snapshot
            snapshot, applied = pickle.loads(pickle.dumps(item[3]))
            restored = TSStateMachine.from_snapshot(snapshot)
            out.append(
                ("restored", applied, restored.fingerprint(), _waiters(restored.waiters()))
            )
        else:
            out.append(item)
    return out


def items_of(statements, batch_sizes):
    """BATCH items of the given sizes over *statements*, a fingerprint and a
    waiter query after each, a snapshot at the end."""
    cmds = [CreateSpace(1, 0, SIDE.name, SIDE.resilience, SIDE.scope, None)]
    cmds += [ExecuteAGS(rid, 0, 0, ags) for rid, ags in enumerate(statements, 2)]
    items, qid, sizes = [], 0, iter(batch_sizes)
    while cmds:
        n = next(sizes, 1)
        items += [
            ("BATCH", cmds[:n], None),
            ("QUERY", qid, "fingerprint", None),
            ("QUERY", qid + 1, "introspect", None),
        ]
        cmds, qid = cmds[n:], qid + 2
    return [*items, ("QUERY", qid, "snapshot", None)]


def assert_same_both_ways(statements, batch_sizes=(), forget_at=None):
    items = items_of(statements, batch_sizes)
    want = comparable(by_value(items))
    emitted, announced = on_the_pipe(items, forget_at)
    assert comparable(emitted) == want
    fingerprints = [i[3] for i in want if i[0] == "QUERY"]
    assert want[-1][2] == fingerprints[-1]  # the snapshot restores to it
    return want, announced


# -- generated programs -------------------------------------------------------- #

scalars = st.one_of(
    st.booleans(),
    st.integers(0, 2),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from(["a", "b"]),
    st.sampled_from([b"", b"x"]),
    st.none(),
    st.sampled_from([MAIN_TS, SIDE, GONE]),
)
common = st.sampled_from([0, 1, "a", True, SIDE])  # few, so that patterns do match
values = st.one_of(
    common, common, common, scalars, st.tuples(scalars), st.tuples(scalars, st.tuples(scalars))
)
tags = st.sampled_from(["a", "a", "b"])
spaces = st.sampled_from([MAIN_TS] * 6 + [SIDE, SIDE, GONE])
formal_types = st.sampled_from(
    [object, object, int, int, str, TSHandle, bool, float, bytes, tuple, type(None)]
)


@st.composite
def operand(draw, bound, depth=2):
    """A constant, a bound formal, or an expression over them — total
    functions only, constants nested up to two deep."""
    kinds = ["const", "const"] + (["ref"] if bound else []) + (["expr"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return Const(draw(values))
    if kind == "ref":
        return ref(draw(st.sampled_from(bound)))
    fn = draw(st.sampled_from(["tuple", "eq", "ne", "not", "and", "or"]))
    n_args = 1 if fn == "not" else draw(st.integers(0, 3)) if fn == "tuple" else 2
    return Expr(fn, [draw(operand(bound, depth - 1)) for _ in range(n_args)])


@st.composite
def space(draw, bound):
    """A handle — or, in a body, a formal the branch bound (a handle or not)."""
    if bound and draw(st.integers(0, 5)) == 0:
        return ref(draw(st.sampled_from(bound)))
    return draw(spaces)


@st.composite
def pattern(draw, readable, names, aim, *, may_name):
    """Fields of a matching operation, aimed at the tuple *aim* when there
    is one.  A named formal takes the next unused name of the statement
    (*names*); *readable* are the formals a computed field may read —
    ``None`` in a guard, which may read nothing."""
    like = aim if aim is not None else [draw(tags)] + draw(st.lists(values, min_size=1, max_size=2))
    fields = []
    for value in like:
        how = draw(st.sampled_from(["value", "value", "typed", "untyped", "named", "named", "other"]))
        if how == "named" and may_name:
            names.append(f"n{len(names)}")
            fields.append(formal(draw(st.sampled_from([type(value), object])), names[-1]))
        elif how == "typed":
            fields.append(formal(type(value)))
        elif how == "untyped":
            fields.append(formal())
        elif how == "other":  # most likely no match: a computed field, or any formal
            fields.append(draw(operand(readable)) if readable is not None else formal(draw(formal_types)))
        else:
            fields.append(value)
    return fields


def _named(fields):
    return [f.name for f in fields if isinstance(f, Formal) and f.name is not None]


@st.composite
def branch(draw, names, deposited):
    """One ``guard => body`` whose formals take fresh names from *names* and
    whose matching operations mostly aim at one of the *deposited* tuples."""

    def aim():
        if deposited and draw(st.integers(0, 3)):
            return draw(st.sampled_from(deposited))
        return draw(spaces), None

    code = draw(st.sampled_from([None, OpCode.IN, OpCode.IN, OpCode.RD, OpCode.INP, OpCode.RDP]))
    bound: list = []  # what this branch has bound so far
    if code is None:
        guard = Guard.true()
    else:
        ts, like = aim()
        fields = draw(pattern(None, names, like, may_name=True))
        guard = Guard(GuardKind.OP, Op(code, ts, fields))
        bound += _named(fields)
    body = []
    for _ in range(draw(st.integers(0, 3))):
        code = draw(st.sampled_from(
            [OpCode.OUT, OpCode.OUT, OpCode.OUT, OpCode.IN, OpCode.RD, OpCode.INP,
             OpCode.RDP, OpCode.MOVE, OpCode.COPY]
        ))
        if code is OpCode.OUT:
            fields = [draw(tags)] + [
                draw(operand(bound)) for _ in range(draw(st.integers(1, 2)))
            ]
            body.append(Op(code, draw(space(bound)), fields))
            continue
        ts, like = aim()
        if bound and not draw(st.integers(0, 5)):
            ts = ref(draw(st.sampled_from(bound)))
        if code in (OpCode.MOVE, OpCode.COPY):
            fields = draw(pattern(bound, names, like, may_name=False))
            body.append(Op(code, ts, fields, draw(space(bound))))
        else:
            fields = draw(pattern(bound, names, like, may_name=True))
            body.append(Op(code, ts, fields))
            bound += _named(fields)
    return Branch(guard, body)


@st.composite
def statement(draw, deposited):
    names: list = []
    n_branches = draw(st.sampled_from([1, 1, 2]))
    return AGS([draw(branch(names, deposited)) for _ in range(n_branches)])


@st.composite
def programs(draw):
    """Deposits, and statements mostly aimed at what is deposited — some put
    *before* their tuple exists, where they park until the deposit wakes them."""
    program: list = []
    deposited: list = []  # (space, fields) of the plain outs
    for _ in range(draw(st.integers(1, 14))):
        if not deposited or draw(st.integers(0, 2)) == 0:
            ts = draw(st.sampled_from([MAIN_TS, MAIN_TS, SIDE]))
            fields = [draw(tags)] + draw(st.lists(values, min_size=1, max_size=2))
            deposited.append((ts, fields))
            program.append(AGS.atomic(Op.out(ts, *fields)))
        else:
            early = draw(st.integers(0, 2)) == 0
            at = draw(st.integers(0, len(program))) if early else len(program)
            program.insert(at, draw(statement(deposited)))
    return program


@given(
    programs(),
    st.lists(st.integers(1, 4), max_size=6),
    st.one_of(st.none(), st.integers(0, 20)),
)
@settings(max_examples=300, deadline=None)
def test_skeleton_and_actuals_equal_the_statement_by_value(program, batch_sizes, forget_at):
    assert_same_both_ways(program, batch_sizes, forget_at)


# -- the cases the issue names, pinned ----------------------------------------- #


def test_parking_waking_aborting_and_computed_operands_by_hand():
    ts = MAIN_TS
    program = [
        # a disjunction that parks on both guards
        AGS([
            Branch(Guard.in_(ts, "job", formal(int, "j")), [Op.out(SIDE, "got", ref("j"))]),
            Branch(Guard.rd(SIDE, "stop", formal(str, "why")), []),
        ]),
        # a second waiter, parked behind it on the same tuple
        AGS.single(Guard.in_(ts, "job", 4), [Op.out(ts, "late", 4)]),
        # a body that deposits, then aborts: the deposit is rolled back
        AGS.atomic(Op.out(ts, "ghost", 1), Op.in_(ts, "absent", formal(int, "v"))),
        # the out that wakes the first waiter (and not the second: it is gone)
        AGS.atomic(Op.out(ts, "job", 4)),
        # a space operand that is a formal reference, bound to a handle...
        AGS.atomic(Op.out(ts, "where", SIDE), Op.out(ts, "where", "nowhere")),
        AGS.single(
            Guard.in_(ts, "where", formal(TSHandle, "h")),
            [Op.out(ref("h"), "via", ref("h"), (1, ("deep", None)))],
        ),
        # ...and to something that is not one: a deterministic abort
        AGS.single(Guard.in_(ts, "where", formal(str, "h")), [Op.out(ref("h"), "x")]),
        # constants nested two deep, a probe that fails, move and copy
        AGS.single(
            Guard.rd(SIDE, "got", formal(int, "j")),
            [
                Op.inp(ts, "absent", formal(int, "never")),
                Op.out(ts, "calc", Expr("max", (ref("j") * 3, Const(10) + Const(1))), True, 1),
                Op.copy(SIDE, ts, "got", formal(int)),
                Op.move(ts, SIDE, "calc", formal(), True, formal(int)),
            ],
        ),
        # an unknown space
        AGS.atomic(Op.out(GONE, "x")),
    ]
    for sizes in ((), (9, 1), (3, 3, 3, 1)):
        want, announced = assert_same_both_ways(program, sizes, forget_at=len(sizes))
    comps = [c for item in want if item[0] == "COMPS" for c in item[1]]
    outcomes = dict(comps)
    assert [rid for rid, _ in comps] == [1, 4, 5, 2, 6, 7, 8, 9, 10]  # 2 woken by 5
    assert outcomes[2] == (0, "{'j': 4}", "{}", None)
    assert 3 not in outcomes  # still parked
    assert outcomes[4][3] == "body in found no match for Pattern('absent', ?v:int)"
    assert outcomes[8][3] == ("SpaceError", "operand 'nowhere' is not a tuple-space handle")
    assert outcomes[9] == (0, "{'j': 4}", "{0: False}", None)
    assert outcomes[10][3][0] == "SpaceError"
    # the only statement left parked reads, through its actuals, as written
    kind, waiters, _spaces = [i for i in want if i[0] == "waiters"][-1]
    assert [w["waiting_on"] for w in waiters] == [
        [{"op": "in", "space": "main#0", "template": "('job', 4)", "key": (0, "'job'", 2)}]
    ]
    assert len(announced) <= len(program)

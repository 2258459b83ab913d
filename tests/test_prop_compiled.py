"""An operation's compiled fields against the per-call build they replaced.

Each :class:`~repro.core.ags.Op` builds its pattern or ``out`` tuple from
a :class:`~repro.core.tuples.Recipe` worked out once.  The by-value
construction is kept *here*, as the reference: every field evaluated under
the environment, then handed to the public constructor — ``Pattern(fields)``
or ``LindaTuple(values)``, which walk, check and sign every position on
every call.  For generated operations, environments and actuals — invalid
actuals (lists, dicts, a formal, nested lists) and duplicate formal names
among them — both must give the same pattern or tuple, attribute by
attribute, or raise the same exception with the same message.

A formal reference reads a value bound by a match, which is a valid field
by construction; the environments here bind only such values.
"""

from __future__ import annotations

import sys
import threading

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro._errors import AGSError
from repro.core.ags import ACTUALS, Const, Expr, FormalRef, Op, OpCode, Param
from repro.core.spaces import MAIN_TS
from repro.core.tuples import Formal, LindaTuple, Pattern, formal, signature_of
from repro.parallel import ThreadedReplicaRuntime

# -- the reference: the per-call build the compiled form replaced ---------- #


def reference_pattern(op, env):
    return Pattern([f if isinstance(f, Formal) else f.evaluate(env) for f in op.fields])


def reference_tuple(op, env):
    return LindaTuple(tuple(f.evaluate(env) for f in op.fields))


def _typed(value):
    """*value* with its exact type at every depth (``1 != True`` here)."""
    if type(value) is tuple:
        return (tuple, tuple(_typed(v) for v in value))
    if isinstance(value, Formal):
        return (Formal, value.ftype, value.name)
    return (type(value), value)


def _pattern_view(p):
    return (
        _typed(p.fields), p.arity, p.signature, p.exact_signature,
        tuple((i, _typed(v)) for i, v in p.actual_positions),
        tuple((i, _typed(f)) for i, f in p.formal_positions),
        p.names, _typed(p.first_actual), hash(p),
    )


def _tuple_view(t):
    return (_typed(t.fields), t.signature, hash(t))


def outcome(build, view):
    try:
        return ("built", view(build()))
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return ("raised", type(exc).__name__, str(exc))


# -- generated operations ------------------------------------------------------ #

valid = st.one_of(
    st.booleans(), st.integers(-2, 2), st.sampled_from([0.0, 1.5]),
    st.sampled_from(["a", "k"]), st.sampled_from([b"", b"x"]), st.none(),
    st.just(MAIN_TS), st.tuples(st.integers(0, 1), st.sampled_from(["a", True])),
)
invalid = st.sampled_from([
    [1], {"a": 1}, [[1]], (1, [2]), {1, 2}, Formal(int), Formal(str, "a"), Formal(),
])
actual = st.one_of(valid, valid, valid, invalid)
names = st.sampled_from(["a", "b", "c"])  # few, so that names repeat
formal_types = st.sampled_from([object, int, str, bool, tuple, type(None)])


@st.composite
def operand(draw, depth=2):
    """A constant, a hole, a bound or unbound formal reference, or an
    expression over them (one that may fail, too)."""
    kinds = ["const", "param", "param", "ref"] + (["expr"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return Const(draw(valid))
    if kind == "param":
        return Param(draw(st.integers(0, 3)))  # 3: often no such actual
    if kind == "ref":
        return FormalRef(draw(st.sampled_from(["x", "y", "unbound"])))
    fn, arity = draw(st.sampled_from([("tuple", 2), ("add", 2), ("floordiv", 2), ("neg", 1)]))
    return Expr(fn, [draw(operand(depth - 1)) for _ in range(arity)])


@st.composite
def operation(draw):
    code = draw(st.sampled_from(list(OpCode)))
    fields = []
    for _ in range(draw(st.integers(1, 4))):
        if code is not OpCode.OUT and draw(st.integers(0, 2)) == 0:
            name = draw(st.one_of(st.none(), names))
            fields.append(Formal(draw(formal_types), name))
        else:
            fields.append(draw(operand()))
    dst = MAIN_TS if code in (OpCode.MOVE, OpCode.COPY) else None
    try:
        return Op(code, MAIN_TS, fields, dst)
    except AGSError:  # e.g. a named formal in a move: not an operation
        assume(False)


@st.composite
def environment(draw):
    env = {name: draw(valid) for name in ("x", "y") if draw(st.booleans())}
    if draw(st.integers(0, 4)):
        env[ACTUALS] = tuple(draw(st.lists(actual, max_size=4)))
    return env


@settings(max_examples=400, deadline=None)
@given(operation(), st.lists(environment(), min_size=1, max_size=3))
def test_compiled_fields_build_what_the_constructors_build(op, envs):
    recipe = op.compiled()
    for env in envs:  # the same operation, call after call
        if op.code is OpCode.OUT:
            want = outcome(lambda: reference_tuple(op, env), _tuple_view)
            got = outcome(lambda: recipe.tuple_(env), _tuple_view)
        else:
            want = outcome(lambda: reference_pattern(op, env), _pattern_view)
            got = outcome(lambda: op.resolve_pattern(env), _pattern_view)
        assert got == want


def test_a_formal_given_as_an_actual_is_a_wildcard_as_before():
    op = Op.in_(MAIN_TS, "k", Param(0), Formal(int, "a"))
    env = {ACTUALS: (Formal(str),)}
    assert _pattern_view(op.resolve_pattern(env)) == _pattern_view(reference_pattern(op, env))
    clash = {ACTUALS: (Formal(str, "a"),)}
    assert outcome(lambda: op.resolve_pattern(clash), _pattern_view) == (
        "raised", "TupleError", "duplicate formal name 'a' in pattern"
    )


def test_duplicate_names_are_found_once_and_raise_as_before():
    op = Op.rd(MAIN_TS, Formal(int, "a"), Param(0), Formal(str, "a"))
    assert op.compiled()._names is None  # found when the fields compiled
    for env in ({ACTUALS: (1,)}, {ACTUALS: ([1],)}, {}):
        assert outcome(lambda: op.resolve_pattern(env), _pattern_view) == outcome(
            lambda: reference_pattern(op, env), _pattern_view
        )


def test_the_tuples_an_out_builds_share_one_signature():
    out = Op.out(MAIN_TS, "k", Param(0))
    one, two = (out.compiled().tuple_({ACTUALS: (v,)}) for v in (1, 2))
    assert one.signature is two.signature
    assert one.signature == ("str", "int")
    assert out.compiled().tuple_({ACTUALS: ("x",)}).signature == ("str", "str")


def test_threads_sharing_one_recipe_sign_each_tuple_by_its_own_values():
    # every replica of a group applies the same command object, so one
    # recipe is built from by several threads at once; the plan of
    # ``out(ts, "k", v)`` is the same for an int v and a str v
    recipe = Op.out(MAIN_TS, "k", Param(0)).compiled()
    wrong = []

    def build():
        for v in [1, "s"] * 3000:
            t = recipe.tuple_({ACTUALS: (v,)})
            if t.signature != signature_of(t.fields):
                wrong.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_replicas_agree_on_tuples_of_either_type_through_one_plan():
    with ThreadedReplicaRuntime(3) as rt:
        ts = rt.main_ts
        for i in range(200):
            rt.out(ts, "k", i if i % 2 else f"s{i}")
        assert len(set(rt.fingerprints())) == 1
        # each tuple sits under its own signature, so a typed formal finds it
        got = [rt.inp(ts, "k", formal(t)) for t in (int, str) for _ in range(100)]
        assert None not in got
        assert rt.inp(ts, "k", formal()) is None
        assert len(set(rt.fingerprints())) == 1

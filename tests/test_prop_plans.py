"""Statement plans against the path they replaced.

The classic operations on :class:`~repro.core.runtime.BaseRuntime` no
longer build a statement per call: they fetch a plan by call-site shape
and submit it with the call's actuals.  The per-call build they replaced
is kept *here*, as the reference — each bare operation written out as the
explicit :class:`AGS` the parent commit constructed, run through
``execute`` — and generated programs must get the same results, raise the
same errors, report the same bindings and leave the same state both ways.
"""

from __future__ import annotations

import base64
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import AGS, Guard, LocalRuntime, Op, formal, ref
from repro._errors import FormalBindingError, RuntimeFailure
from repro.core.ags import ACTUALS, Branch, Const, Expr, Param
from repro.core.spaces import MAIN_TS, Resilience, Scope, TSHandle
from repro.core.statemachine import ExecuteAGS, TSStateMachine
from repro.core.tuples import Formal, LindaTuple
from repro.lcc import compile_ags, compile_program

OWNER = 7  # the process that owns the private space


# -- the reference: the per-call build, as the parent commit had it ---------- #


def _autoname(fields):
    out = []
    for i, f in enumerate(fields):
        if isinstance(f, Formal) and f.name is None:
            out.append(Formal(object if not f.typed else f.ftype, f"_f{i}"))
        else:
            out.append(f)
    return out


def _rebuild(fields, result):
    vals = []
    for f in fields:
        if isinstance(f, Formal):
            vals.append(result.bindings[f.name])
        elif hasattr(f, "evaluate"):
            vals.append(f.evaluate(result.bindings))
        else:
            vals.append(f)
    return LindaTuple(vals)


def _checked(res):
    if res.aborted:
        if isinstance(res.error, Exception):
            raise res.error
        raise RuntimeFailure(str(res.error))
    return res


def by_value(rt, seen, op, spaces, fields, pid):
    """One bare operation as an explicitly built AGS through ``execute``."""

    def run(ags, **kw):
        res = rt.execute(ags, process_id=pid, **kw)
        seen.append(dict(res.bindings))
        return _checked(res)

    if op == "out":
        run(AGS.atomic(Op.out(spaces[0], *fields)))
        return None
    if op in ("move", "copy"):
        build = Op.move if op == "move" else Op.copy
        run(AGS.atomic(build(spaces[0], spaces[1], *fields)))
        return None
    named = _autoname(fields)
    guard = getattr(Guard, "in_" if op == "in_" else op)
    kw = {"timeout": 0} if op in ("in_", "rd") else {}
    res = run(AGS.single(guard(spaces[0], *named)), **kw)
    if op in ("inp", "rdp") and not res.succeeded:
        return None
    return _rebuild(named, res)


class Recording(LocalRuntime):
    """A LocalRuntime that keeps the bindings of every result it produced."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def _submit(self, ags, process_id, **kw):
        res = super()._submit(ags, process_id, **kw)
        self.seen.append(dict(res.bindings))
        return res


def planned(rt, op, spaces, fields, pid):
    """The same operation through the runtime's own method."""
    kw = {"timeout": 0} if op in ("in_", "rd") else {}
    result = getattr(rt, op)(*spaces, *fields, process_id=pid, **kw)
    return None if op in ("out", "move", "copy") else result


# -- generated programs ------------------------------------------------------ #

# the three spaces both runtimes create first, so the handles are equal
SHARED = TSHandle(1, "shared", Resilience.STABLE, Scope.SHARED)
PRIVATE = TSHandle(2, "private", Resilience.STABLE, Scope.PRIVATE)
GONE = TSHandle(9, "gone", Resilience.STABLE, Scope.SHARED)  # never created

spaces_ = st.sampled_from([MAIN_TS, MAIN_TS, SHARED, PRIVATE, GONE, 5, None, [0]])
scalars = st.one_of(
    st.booleans(),
    st.integers(0, 2),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from(["a", "b", "_f1"]),
    st.sampled_from([b"", b"x"]),
    st.none(),
    st.sampled_from([MAIN_TS, SHARED]),
)
values = st.one_of(scalars, scalars, st.tuples(scalars), st.tuples(scalars, scalars))
invalid = st.sampled_from([[1], {"k": 1}, {1}, object(), (1, [2])])
formals = st.sampled_from(
    [
        formal(), formal(int), formal(str), formal(bool), formal(float),
        formal(bytes), formal(tuple), formal(TSHandle), formal(type(None)),
        formal(int, "x"), formal(str, "y"), formal(object, "z"),
        formal(int, "_f1"),  # the name the wrappers give field 1's anonymous formal
    ]
)
operands = st.sampled_from(
    [
        Const(1), Const("a"), Const((1, "a")),
        Expr("add", (Const(1), Const(1))),
        Expr("tuple", (Const(1),)), Expr("tuple", (Const(True),)),
        ref("x"),  # unbound in a bare operation: a binding error either way
    ]
)
field = st.one_of(values, values, values, formals, formals, operands, invalid)


@st.composite
def arbitrary_step(draw):
    """Any operation on any arguments: mostly an error, the same both ways."""
    op = draw(st.sampled_from(["out", "in_", "rd", "inp", "rdp", "move", "copy"]))
    n_spaces = 2 if op in ("move", "copy") else 1
    spaces = tuple(draw(spaces_) for _ in range(n_spaces))
    fields = tuple(draw(st.lists(field, max_size=3)))
    return op, spaces, fields, draw(st.sampled_from([0, 0, OWNER]))


@st.composite
def programs(draw):
    """Deposits, operations aimed at what was deposited, and arbitrary ones."""
    program: list = []
    deposited: list = []  # (space, fields) of the legal outs so far
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["out", "out", "aimed", "aimed", "aimed", "any"]))
        if kind == "any" or (kind == "aimed" and not deposited):
            program.append(draw(arbitrary_step()))
        elif kind == "out":
            space = draw(st.sampled_from([MAIN_TS, MAIN_TS, SHARED, PRIVATE]))
            fields = tuple(draw(st.lists(values, min_size=1, max_size=3)))
            pid = OWNER if space is PRIVATE else draw(st.sampled_from([0, OWNER]))
            deposited.append((space, fields))
            program.append(("out", (space,), fields, pid))
        else:
            space, fields = draw(st.sampled_from(deposited))
            op = draw(st.sampled_from(["in_", "rd", "inp", "rdp", "move", "copy"]))
            transfer = op in ("move", "copy")
            pattern = []
            for i, value in enumerate(fields):
                how = draw(st.sampled_from(
                    ["value", "value", "typed", "untyped"] + ([] if transfer else ["named"])
                ))
                pattern.append(
                    value if how == "value"
                    else formal(type(value)) if how == "typed"
                    else formal() if how == "untyped"
                    else formal(type(value), f"n{i}")
                )
            spaces = (space, draw(st.sampled_from([MAIN_TS, SHARED]))) if transfer else (space,)
            pid = OWNER if space is PRIVATE else draw(st.sampled_from([0, OWNER]))
            program.append((op, spaces, tuple(pattern), pid))
    return program


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))


def fresh(cls):
    rt = cls()
    assert rt.create_space("shared") == SHARED
    assert rt.create_space("private", scope=Scope.PRIVATE, owner=OWNER) == PRIVATE
    return rt


@given(programs())
@settings(max_examples=300, deadline=None)
def test_bare_operations_equal_the_statements_they_stand_for(program):
    a, b = fresh(Recording), fresh(LocalRuntime)
    b_seen: list = []
    for op, spaces, fields, pid in program:
        got = outcome(planned, a, op, spaces, fields, pid)
        want = outcome(by_value, b, b_seen, op, spaces, fields, pid)
        assert got == want, (op, spaces, fields, pid)
    assert a.seen == b_seen  # the bindings a caller sees: no actuals among them
    assert a.state_machine.fingerprint() == b.state_machine.fingerprint()
    for ts in (MAIN_TS, SHARED, PRIVATE):
        assert a.space_tuples(ts) == b.space_tuples(ts)


# -- a program's statements against the text with the values written in ------ #

#: Statement texts with a ``{name}`` where a parameter stands.  Formatted with
#: the names themselves they are a program's ``stmt`` bodies; formatted with
#: values written in they are what a program without parameters would say.
#: ``s`` is always a tuple space: a space's hole is checked when the statement
#: runs, a name written in its place when it compiles.
TEMPLATES = {
    "fixed": ((), '< rdp(main, "k", ?x) => out(shared, "seen", x) >'),
    "put": (("a", "b"), "out(main, {a}, {b})"),
    "putin": (("s", "a"), 'out({s}, "k", {a})'),
    "take": (("a",), '< in(main, {a}, ?x) => out(shared, "took", {a}, x) >'),
    "probe": (
        ("a", "b"),
        "< inp(main, {a}, ?x) => out(main, {b}, x) "
        'or true => out(private, "idle", {b}) >',
    ),
    "bump": (("a", "d"), "< inp(main, {a}, ?v:int) => out(main, {a}, v + {d}) >"),
    "sweep": (("s", "a"), "move(main, {s}, {a}, ?)"),
    "pair": (
        ("a", "b", "c"),
        "< rdp(main, {a}, {b}) => out(shared, {c}, tuple({a}, {b})) >",
    ),
}
DECLARATIONS = "space shared stable shared\nspace private stable private\n"
SPACES = {"main": MAIN_TS, "shared": SHARED, "private": PRIVATE}
NAMES = {handle: name for name, handle in SPACES.items()}


def written(value):
    """*value* as the language writes it; ``None`` where it has no literal."""
    if isinstance(value, TSHandle):
        return NAMES.get(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return f'"{value}"'
    return None


def filled(plan, actuals):
    """*plan* with its holes closed over *actuals*: the reference for values
    (bytes, ``None``, tuples, an unnamed handle) no text can carry."""

    def fill(f):
        if isinstance(f, Param):
            return Const(actuals[f.index])
        if isinstance(f, Expr):
            return Expr(f.fn, [fill(a) for a in f.args])
        return f

    def refill(op):
        return Op(op.code, fill(op.ts), [fill(f) for f in op.fields],
                  None if op.ts2 is None else fill(op.ts2))

    return AGS([
        Branch(
            Guard.true() if b.guard.op is None else Guard(b.guard.kind, refill(b.guard.op)),
            [refill(op) for op in b.body],
        )
        for b in plan.branches
    ])


@st.composite
def ftl_programs(draw):
    """1-3 ``stmt``s of 0-3 parameters, and calls of them over ``values``."""
    chosen = draw(st.lists(st.sampled_from(sorted(TEMPLATES)), min_size=1,
                           max_size=3, unique=True))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        name = draw(st.sampled_from(chosen))
        args = tuple(
            draw(st.sampled_from([MAIN_TS, SHARED, PRIVATE, GONE]) if p == "s" else values)
            for p in TEMPLATES[name][0]
        )
        steps.append((name, args, draw(st.sampled_from([0, 0, OWNER]))))
    return chosen, steps


@given(ftl_programs())
@settings(max_examples=300, deadline=None)
def test_program_statements_equal_the_text_with_the_values_written_in(case):
    chosen, steps = case
    a, b = fresh(LocalRuntime), fresh(LocalRuntime)
    source = DECLARATIONS + "".join(
        "stmt {}{} = {}\n".format(
            name,
            f"({', '.join(params)})" if params else "",
            text.format(**{p: p for p in params}),
        )
        for name, (params, text) in ((n, TEMPLATES[n]) for n in chosen)
    )
    prog = compile_program(source).bind(a, existing=SPACES)
    plans: dict = {}
    for name, args, pid in steps:
        params, text = TEMPLATES[name]
        plan, actuals = prog.statement(name, **dict(zip(params, args)))
        assert plans.setdefault(name, plan) is plan and actuals == args
        texts = [written(v) for v in args]
        if None in texts:
            reference = filled(plan, actuals)
        else:
            reference = compile_ags(text.format(**dict(zip(params, texts))), SPACES)
        got = outcome(lambda: a.execute(plan, actuals, process_id=pid, timeout=0))
        want = outcome(lambda: b.execute(reference, process_id=pid, timeout=0))
        assert got == want, (name, args, pid)
    assert a.state_machine.fingerprint() == b.state_machine.fingerprint()
    for ts in (MAIN_TS, SHARED, PRIVATE):
        assert a.space_tuples(ts) == b.space_tuples(ts)


@pytest.mark.parametrize("name", ["actuals", "ACTUALS", "0", "_actuals", "%0"])
def test_no_formal_name_is_reserved_for_the_actuals(name):
    """The actuals ride in the branch environment beside the formals'
    bindings; whatever a program names a formal, the two never meet."""
    assert not isinstance(ACTUALS, str)  # the key is not a name at all
    rt = LocalRuntime()
    rt.out(rt.main_ts, "k", 5)
    assert rt.rd(rt.main_ts, "k", formal(int, name)) == ("k", 5)
    plan = AGS.single(
        Guard.rd(Param(0), Param(1), formal(int, name)),
        [Op.out(Param(0), "seen", ref(name), Param(1))],
    )
    res = rt.execute(plan)
    assert isinstance(res.error, FormalBindingError)  # no actuals: it aborts...
    res = rt._submit(plan, 0, actuals=(MAIN_TS, "k"))
    assert res.bindings == {name: 5}  # ...and with them binds the name, only
    assert rt.inp(rt.main_ts, "seen", formal(int, name), "k") == ("seen", 5, "k")


def test_param_is_an_operand_of_the_one_interpreter():
    """A body op, a disjunction and an expression over holes: nothing about
    ``Param`` is special to the bare operations' one-op statements."""
    sm = TSStateMachine()
    plan = AGS([
        AGS.single(
            Guard.inp(Param(0), Param(1), formal(int, "v")),
            [Op.out(Param(0), Param(2), ref("v") + Param(3))],
        ).branches[0],
        AGS.atomic(Op.out(Param(0), Param(1), Param(3))).branches[0],
    ])
    for rid, want in ((1, ("k", 10)), (2, ("moved", 20))):
        (comp,) = sm.apply(ExecuteAGS(rid, 0, 0, plan, (MAIN_TS, "k", "moved", 10)))
        assert comp.result.succeeded
        assert ACTUALS not in comp.result.bindings
        assert sm.registry.store(MAIN_TS).to_list()[-1] == want
    assert plan.shard_set(4, (MAIN_TS, "k", "k", 1)) is not None
    assert plan.shard_set(4) is None  # holes with nothing in them pin nothing


# -- what an immutable statement cannot change ------------------------------- #


def test_blocking_and_read_only_are_settled_at_construction():
    rd = AGS.single(Guard.rd(MAIN_TS, "k", formal(int)))
    assert (rd.blocking, rd.read_only) == (True, True)
    probe = AGS.single(Guard.rdp(MAIN_TS, "k"), [Op.rd(MAIN_TS, "j")])
    assert (probe.blocking, probe.read_only) == (False, True)
    take = AGS.single(Guard.rd(MAIN_TS, "k"), [Op.out(MAIN_TS, "j")])
    assert (take.blocking, take.read_only) == (True, False)
    assert (AGS.atomic().blocking, AGS.atomic().read_only) == (False, True)
    for ags in (rd, probe, take):
        clone = pickle.loads(pickle.dumps(ags))
        assert clone == ags
        assert (clone.blocking, clone.read_only) == (ags.blocking, ags.read_only)
        assert b"read_only" not in pickle.dumps(ags)  # worked out again, not carried


#: ``{"snapshot", "record", "fingerprint"}`` pickled by the commit before
#: statements carried actuals: a machine with a space, a tuple, a memoized
#: result and a parked ``in``; one journal record (an ``in`` with a body).
_PARENT_COMMIT_STATE = """
gAWVCwUAAAAAAAB9lCiMCHNuYXBzaG90lH2UKIwIcmVnaXN0cnmUfZQojAduZXh0X2lklEsC
jAZzcGFjZXOUXZQofZQojAJpZJRLAIwEbmFtZZSMBG1haW6UjApyZXNpbGllbmNllIwGc3Rh
YmxllIwFc2NvcGWUjAZzaGFyZWSUjAVvd25lcpROjAVzdG9yZZR9lCiMCG5leHRfc2VxlEsB
jAdlbnRyaWVzlF2USwCMBHRhc2uUSwGGlIaUYXV1fZQoaAlLAWgKjAdzY3JhdGNolGgMaA1o
DmgPaBBOaBF9lChoE0sAaBRdlHV1ZXWMB2Jsb2NrZWSUXZQoSwNK/////0sFjA5yZXByby5j
b3JlLmFnc5SMA0FHU5STlCmBlE59lIwIYnJhbmNoZXOUaB+MBkJyYW5jaJSTlCmBlE59lCiM
BWd1YXJklGgfjAVHdWFyZJSTlCmBlE59lCiMBGtpbmSUaB+MCUd1YXJkS2luZJSTlIwCb3CU
hZRSlGgxaB+MAk9wlJOUKYGUTn2UKIwEY29kZZRoH4wGT3BDb2RllJOUjAJpbpSFlFKUjAJ0
c5RoH4wFQ29uc3SUk5QpgZROfZSMBXZhbHVllIwRcmVwcm8uY29yZS5zcGFjZXOUjAhUU0hh
bmRsZZSTlCmBlE59lChoCUsAaApoC2gMaESMClJlc2lsaWVuY2WUk5RoDYWUUpRoDmhEjAVT
Y29wZZSTlGgPhZRSlHWGlGJzhpRijAZmaWVsZHOUaEApgZROfZRoQ4wFbmV2ZXKUc4aUYowR
cmVwcm8uY29yZS50dXBsZXOUjAZGb3JtYWyUk5QpgZROfZQojAVmdHlwZZSMCGJ1aWx0aW5z
lIwDaW50lJOUaAqMAXaUdYaUYoaUjAN0czKUTnWGlGJ1hpRijARib2R5lCl1hpRihZRzhpRi
dJRhjA1hcHBsaWVkX2NvdW50lEsDjAljb21wbGV0ZWSUXZQoSwFoRimBlE59lChoCUsBaApo
GmgMaExoDmhQdYaUYoaUSwJoH4wJQUdTUmVzdWx0lJOUKYGUTn2UKIwFZmlyZWSUSwCMCGJp
bmRpbmdzlH2UjA1wcm9iZV9yZXN1bHRzlH2UjAVlcnJvcpROdYaUYoaUZXWMBnJlY29yZJSM
F3JlcHJvLmNvcmUuc3RhdGVtYWNoaW5llIwKRXhlY3V0ZUFHU5STlCmBlE59lCiMCnByb2Nl
c3NfaWSUSwOMA2Fnc5RoISmBlE59lGgkaCYpgZROfZQoaCloKymBlE59lChoLmgzaDFoNSmB
lE59lChoOGg9aD5oQCmBlE59lGhDaEdzhpRiaFNoQCmBlE59lGhDaBZzhpRiaFopgZROfZQo
aF1oYGgKaGF1hpRihpRoZE51hpRidYaUYmhnaDUpgZROfZQoaDhoOowDb3V0lIWUUpRoPmhA
KYGUTn2UaENoR3OGlGJoU2hAKYGUTn2UaEOMBGRvbmWUc4aUYmgfjARFeHBylJOUKYGUTn2U
KIwCZm6UjANhZGSUjARhcmdzlGgfjAlGb3JtYWxSZWaUk5QpgZROfZRoCmhhc4aUYmhAKYGU
Tn2UaENLAXOGlGKGlHWGlGKGlGhkTnWGlGKFlHWGlGKFlHOGlGKMCnJlcXVlc3RfaWSUSwSM
C29yaWdpbl9ob3N0lEr/////jAh0cmFjZV9pZJROdYaUYowLZmluZ2VycHJpbnSUighDJc4w
gv2dEHUu
"""


def test_state_pickled_before_plans_still_opens():
    old = pickle.loads(base64.b64decode(_PARENT_COMMIT_STATE))
    sm = TSStateMachine.from_snapshot(old["snapshot"])
    assert sm.fingerprint() == old["fingerprint"]
    (parked,) = sm.blocked
    assert parked.command.actuals == ()
    assert (parked.command.ags.blocking, parked.command.ags.read_only) == (True, False)
    record = old["record"]
    assert (record.actuals, record.trace_id, record.process_id) == ((), None, 3)
    (comp,) = sm.apply(record)
    assert comp.result.bindings == {"v": 1}
    assert sm.registry.store(MAIN_TS).to_list() == [("done", 2)]
    # and what is written now reads back as what it was
    again = TSStateMachine.from_snapshot(pickle.loads(pickle.dumps(sm.snapshot())))
    assert again.fingerprint() == sm.fingerprint()
    assert again.snapshot() == sm.snapshot()


#: ``{"reply", "snapshot", "fingerprint"}`` pickled by the commit before
#: results pickled by position: a COMPS frame and a machine whose memo holds
#: the same five results — fired with bindings and a failed body probe, a
#: failed guard probe, a ``SpaceError`` abort, a rolled-back body — each
#: ``AGSResult`` in the pickle as a dict of its slots.
_RESULTS_BY_SLOT_NAME = """
gAWVuwIAAAAAAAB9lCiMBXJlcGx5lIwFQ09NUFOUXZQoSwGMDnJlcHJvLmNvcmUuYWdzlIwJ
QUdTUmVzdWx0lJOUKYGUTn2UKIwFZmlyZWSUSwCMCGJpbmRpbmdzlH2UjA1wcm9iZV9yZXN1
bHRzlH2UjAVlcnJvcpROdYaUYoaUSwJoBimBlE59lChoCUsAaAp9lIwBdpRLBXNoDH2USwCJ
c2gOTnWGlGKGlEsDaAYpgZROfZQoaAlOaAp9lGgMfZRoDk51hpRihpRLBGgGKYGUTn2UKGgJ
SwBoCn2UaAx9lGgOjA1yZXByby5fZXJyb3JzlIwKU3BhY2VFcnJvcpSTlIw5dW5rbm93biBv
ciBkZXN0cm95ZWQgdHVwbGUgc3BhY2UgVFM8Z29uZSM5IHN0YWJsZSxzaGFyZWQ+lIWUUpR1
hpRihpRLBWgGKYGUTn2UKGgJSwBoCn2UaAx9lGgOjDRib2R5IGluIGZvdW5kIG5vIG1hdGNo
IGZvciBQYXR0ZXJuKCdhYnNlbnQnLCA/djppbnQplHWGlGKGlGVLBYeUjAhzbmFwc2hvdJR9
lCiMCHJlZ2lzdHJ5lH2UKIwHbmV4dF9pZJRLAYwGc3BhY2VzlF2UfZQojAJpZJRLAIwEbmFt
ZZSMBG1haW6UjApyZXNpbGllbmNllIwGc3RhYmxllIwFc2NvcGWUjAZzaGFyZWSUjAVvd25l
cpROjAVzdG9yZZR9lCiMCG5leHRfc2VxlEsDjAdlbnRyaWVzlF2USwGMBHNlZW6USwVLAYwB
dJSGlIeUhpRhdXVhdYwHYmxvY2tlZJRdlIwNYXBwbGllZF9jb3VudJRLBYwJY29tcGxldGVk
lF2UKEsBaAeGlEsCaBGGlEsDaBiGlEsEaB6GlEsFaCqGlGV1jAtmaW5nZXJwcmludJSKCMxS
u8g0iJjSdS4=
"""


def test_results_pickled_by_slot_name_still_open():
    blob = base64.b64decode(_RESULTS_BY_SLOT_NAME)
    assert b"probe_results" in blob  # by name, as the parent commit wrote them
    old = pickle.loads(blob)
    kind, comps, applied = old["reply"]
    assert (kind, applied, [rid for rid, _ in comps]) == ("COMPS", 5, [1, 2, 3, 4, 5])
    results = [r for _rid, r in comps]
    assert (results[1].fired, results[1].bindings, results[1].probe_results) == (
        0, {"v": 5}, {0: False}
    )
    assert results[2].fired is None and not results[2].succeeded
    assert type(results[3].error).__name__ == "SpaceError"
    assert results[4].error == "body in found no match for Pattern('absent', ?v:int)"
    sm = TSStateMachine.from_snapshot(old["snapshot"])
    assert sm.fingerprint() == old["fingerprint"]
    assert [sm.completed[rid] for rid, _ in comps] == results
    # written now, the same results are positional — smaller, and equal
    again = pickle.dumps(old["reply"], protocol=pickle.HIGHEST_PROTOCOL)
    assert b"probe_results" not in again
    assert len(again) < 410  # what the parent commit's pickle of this frame took
    assert pickle.loads(again) == old["reply"]
    assert TSStateMachine.from_snapshot(
        pickle.loads(pickle.dumps(sm.snapshot()))
    ).snapshot() == sm.snapshot()

"""Atomic guarded statements (AGS) — FT-Linda's atomicity construct.

An AGS is written ``< guard => body >`` in the paper: *guard* is a single
(possibly blocking) tuple-space operation or ``true``, and *body* is a
sequence of tuple-space operations executed **atomically** — all-or-nothing
with respect to both concurrency and failures (Sec. 3).  Disjunction
composes alternatives::

    < in(TS, "a", ?x) => out(TS, "b", x)
      or
      rd(TS, "c", ?y) => out(TS, "d", y) >

The statement blocks until some branch's guard can fire, then executes that
branch's body atomically.

The implementation trick that makes a *single multicast per AGS* possible
(the paper's headline efficiency claim) is that bodies are restricted so
every replica can execute them deterministically with no further
communication.  Concretely, this module enforces:

- no process creation (``eval``) inside an AGS;
- every operand is a constant, a formal bound by the guard (or an earlier
  body operation of the same branch), or a *deterministic expression* over
  those (registered pure functions only — see :func:`register_function`);
- ``in``/``rd`` in a *body* must match at execution time — if they do not,
  the whole AGS aborts and is rolled back (still all-or-nothing, and still
  deterministic because all replicas see identical state);
- ``inp``/``rdp`` never block: as guards they make the AGS non-blocking,
  and in bodies they bind their formals only on success.

The classes here are the *compiled* representation — what the paper's
FT-lcc precompiler emits as "opcode/operand" request blocks (Sec. 5.2).
The textual front end lives in :mod:`repro.lcc`.  Everything is
picklable so requests can cross process boundaries in the
multiprocessing backend.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Mapping, Sequence

from repro._errors import (
    AGSError,
    FormalBindingError,
    NotDeterministicError,
    OperandError,
)
from repro.core.matching import ANY_FIRST, shard_of
from repro.core.spaces import TSHandle
from repro.core.tuples import (
    CHECKED, CONST, REF, Formal, Pattern, Recipe, is_valid_field, type_name, typed_value,
)

__all__ = [
    "AGS",
    "AGSResult",
    "Branch",
    "Const",
    "Expr",
    "FormalRef",
    "Guard",
    "GuardKind",
    "Op",
    "OpCode",
    "Operand",
    "Param",
    "as_operand",
    "ref",
    "register_function",
]


# --------------------------------------------------------------------------- #
# operands: constants, formal references, deterministic expressions
# --------------------------------------------------------------------------- #


class Operand:
    """Base class of values computed when an AGS branch executes.

    Operands support arithmetic/comparison operators, each of which builds
    an :class:`Expr` node — so ``ref("old") + 1`` is a deterministic
    expression the replicas can all evaluate identically.
    """

    __slots__ = ()
    _kind = CHECKED  # how a Recipe takes it: evaluated and checked per call

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def free_names(self) -> frozenset[str]:
        """Formal names this operand reads (for bind-before-use checking)."""
        return frozenset()

    # -- operator sugar ------------------------------------------------- #
    def _binop(self, fn: str, other: Any, *, swap: bool = False) -> "Expr":
        other = as_operand(other)
        args = (other, self) if swap else (self, other)
        return Expr(fn, args)

    def __add__(self, o: Any) -> "Expr":
        return self._binop("add", o)

    def __radd__(self, o: Any) -> "Expr":
        return self._binop("add", o, swap=True)

    def __sub__(self, o: Any) -> "Expr":
        return self._binop("sub", o)

    def __rsub__(self, o: Any) -> "Expr":
        return self._binop("sub", o, swap=True)

    def __mul__(self, o: Any) -> "Expr":
        return self._binop("mul", o)

    def __rmul__(self, o: Any) -> "Expr":
        return self._binop("mul", o, swap=True)

    def __floordiv__(self, o: Any) -> "Expr":
        return self._binop("floordiv", o)

    def __truediv__(self, o: Any) -> "Expr":
        return self._binop("truediv", o)

    def __mod__(self, o: Any) -> "Expr":
        return self._binop("mod", o)

    def __neg__(self) -> "Expr":
        return Expr("neg", (self,))


class Const(Operand):
    """A literal operand, fixed when the AGS is built."""

    __slots__ = ("value",)
    _kind = CONST

    def __init__(self, value: Any):
        if not (is_valid_field(value) or isinstance(value, TSHandle)):
            raise AGSError(f"constant {value!r} is not a valid tuple field value")
        self.value = value

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        return self.value

    def __repr__(self) -> str:
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        # by exact type, as matching compares fields: ``out(ts, 1)`` and
        # ``out(ts, True)`` are different statements, and equal statements
        # share a plan id on the wire
        return isinstance(other, Const) and typed_value(other.value) == typed_value(self.value)

    def __hash__(self) -> int:
        return hash(("Const", self.value))


#: Environment key the statement's actuals ride under while a branch
#: executes.  Not a string, so no formal name a program can write collides
#: with it; the state machine strips it before the bindings leave.
ACTUALS = object()


class Param(Operand):
    """A hole in a *statement plan*: the statement's *index*-th actual.

    A plan is an ordinary :class:`AGS` whose constant positions are
    ``Param`` holes; the values arrive beside it, per call, in
    :attr:`~repro.core.statemachine.ExecuteAGS.actuals`.  Validating,
    naming and pickling the statement's structure then happens once per
    call-site shape, not once per call — what FT-lcc's precompiler did
    with its signature catalog.  ``Param`` is one more operand of the one
    interpreter, not a second one: an ``AGS`` without holes is simply a
    plan with no parameters.
    """

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        try:
            return env[ACTUALS][self.index]
        except LookupError:
            # deterministic, like an unbound formal: the statement aborts
            raise FormalBindingError(
                f"the statement was given no actual {self.index}"
            ) from None

    def __repr__(self) -> str:
        return f"%{self.index}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Param) and other.index == self.index

    def __hash__(self) -> int:
        return hash(("Param", self.index))


class FormalRef(Operand):
    """Reference to a formal bound earlier in the same branch.

    The paper's bodies use the guard's formals as operands, e.g.
    ``< in(TS,"count",?old) => out(TS,"count",old+1) >`` — ``old`` in the
    body is a :class:`FormalRef`.
    """

    __slots__ = ("name",)
    _kind = REF

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        try:
            return env[self.name]
        except KeyError:
            raise FormalBindingError(
                f"formal {self.name!r} is not bound at this point"
            ) from None

    def free_names(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __repr__(self) -> str:
        return f"${self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormalRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("FormalRef", self.name))


def ref(name: str) -> FormalRef:
    """Shorthand for :class:`FormalRef`."""
    return FormalRef(name)


#: Registry of pure, deterministic functions usable in AGS expressions.
#: Replicas evaluate expressions independently; anything here MUST be a
#: pure function of its arguments (no randomness, clocks, or I/O).
_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "floordiv": lambda a, b: a // b,
    "truediv": lambda a, b: a / b,
    "mod": lambda a, b: a % b,
    "neg": lambda a: -a,
    "min": min,
    "max": max,
    "abs": abs,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "not": lambda a: not a,
    "and": lambda a, b: bool(a and b),
    "or": lambda a, b: bool(a or b),
    "concat": lambda a, b: a + b,
    "tuple": lambda *a: tuple(a),
    "nth": lambda t, i: t[i],
    "len": len,
}


def register_function(name: str, fn: Callable[..., Any]) -> None:
    """Register a *pure, deterministic* function for AGS expressions.

    This is the hook applications use to push small computations into the
    atomic body (the paper's divide-and-conquer example splits a subtask
    inside the AGS).  Registering a non-deterministic function breaks
    replica consistency — the contract is the caller's to honor.
    """
    if name in _FUNCTIONS:
        raise AGSError(f"function {name!r} is already registered")
    _FUNCTIONS[name] = fn


class Expr(Operand):
    """Application of a registered deterministic function to operands."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: Sequence[Operand | Any]):
        if fn not in _FUNCTIONS:
            raise NotDeterministicError(
                f"function {fn!r} is not registered as deterministic"
            )
        self.fn = fn
        self.args = tuple(as_operand(a) for a in args)

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        args = [a.evaluate(env) for a in self.args]
        try:
            return _FUNCTIONS[self.fn](*args)
        except Exception as exc:  # the function's, deterministic: an abort
            raise OperandError(f"{self.fn}: {type(exc).__name__}: {exc}") from None

    def free_names(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.free_names()
        return out

    def __repr__(self) -> str:
        return f"{self.fn}({', '.join(map(repr, self.args))})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Expr) and other.fn == self.fn and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("Expr", self.fn, self.args))


def as_operand(value: Any) -> Operand:
    """Coerce *value*: operands pass through, raw values become constants."""
    if isinstance(value, Operand):
        return value
    return Const(value)


#: What :func:`_static` answers for a field whose value only execution knows.
_DYNAMIC = object()


def _static(field: Any, actuals: Sequence[Any]) -> Any:
    """The value *field* will have, when known before the statement runs.

    A constant is its value and a plan's hole is the actual that fills it
    (absent actuals — a plan looked at on its own — leave it unknown);
    formals, formal refs and expressions are :data:`_DYNAMIC`.
    """
    if type(field) is Const:
        return field.value
    if type(field) is Param and field.index < len(actuals):
        return actuals[field.index]
    return _DYNAMIC


# --------------------------------------------------------------------------- #
# operations
# --------------------------------------------------------------------------- #


class OpCode(enum.Enum):
    """Tuple-space operation codes, as in the paper's request blocks."""

    OUT = "out"
    IN = "in"
    RD = "rd"
    INP = "inp"
    RDP = "rdp"
    MOVE = "move"
    COPY = "copy"

    @property
    def is_probe(self) -> bool:
        return self in (OpCode.INP, OpCode.RDP)

    @property
    def is_blocking(self) -> bool:
        return self in (OpCode.IN, OpCode.RD)

    @property
    def withdraws(self) -> bool:
        return self in (OpCode.IN, OpCode.INP, OpCode.MOVE)


_IN, _RD, _RDP = OpCode.IN, OpCode.RD, OpCode.RDP


#: Why ``out`` rejects a formal — here and on the runtimes' bare ``out``.
OUT_TAKES_ACTUALS = "out() fields must all be actuals, not formals"


class Op:
    """One tuple-space operation inside an AGS branch.

    ``fields`` mixes :class:`Operand` instances (actuals, possibly
    expressions over formals) with :class:`~repro.core.tuples.Formal`
    wildcards (for the matching operations).  For ``MOVE``/``COPY``,
    *ts2* is the destination space and ``fields`` is the pattern selecting
    which tuples to transfer (the paper's ``move(from, to, pattern)``).
    """

    __slots__ = ("code", "ts", "fields", "ts2", "_recipe")

    def __init__(
        self,
        code: OpCode,
        ts: TSHandle | Operand,
        fields: Sequence[Any],
        ts2: TSHandle | Operand | None = None,
    ):
        self.code = code
        self.ts = as_operand(ts) if not isinstance(ts, Operand) else ts
        if code in (OpCode.MOVE, OpCode.COPY):
            if ts2 is None:
                raise AGSError(f"{code.value} requires a destination tuple space")
            self.ts2 = as_operand(ts2) if not isinstance(ts2, Operand) else ts2
        else:
            if ts2 is not None:
                raise AGSError(f"{code.value} takes a single tuple space")
            self.ts2 = None
        norm: list[Any] = []
        for f in fields:
            if isinstance(f, Formal):
                if code is OpCode.OUT:
                    raise AGSError(OUT_TAKES_ACTUALS)
                norm.append(f)
            else:
                norm.append(as_operand(f))
        if not norm:
            raise AGSError("operations need at least one field")
        if code in (OpCode.MOVE, OpCode.COPY):
            # move/copy act on *all* matching tuples, so a named formal
            # would have no single binding — the paper's move takes a plain
            # pattern.
            for f in norm:
                if isinstance(f, Formal) and f.name is not None:
                    raise AGSError(
                        f"{code.value} patterns may not contain named formals"
                    )
        self.fields = tuple(norm)

    def __getstate__(self) -> tuple:
        # the bytes an operation always pickled as: its recipe stays behind
        return (None, {"code": self.code, "ts": self.ts, "fields": self.fields, "ts2": self.ts2})

    # -- constructors, mirroring the paper's syntax --------------------- #

    @classmethod
    def out(cls, ts: TSHandle | Operand, *fields: Any) -> "Op":
        """``out(ts, f1, …)`` — deposit a tuple."""
        return cls(OpCode.OUT, ts, fields)

    @classmethod
    def in_(cls, ts: TSHandle | Operand, *fields: Any) -> "Op":
        """``in(ts, f1, …)`` — withdraw a matching tuple."""
        return cls(OpCode.IN, ts, fields)

    @classmethod
    def rd(cls, ts: TSHandle | Operand, *fields: Any) -> "Op":
        """``rd(ts, f1, …)`` — read a matching tuple without withdrawing."""
        return cls(OpCode.RD, ts, fields)

    @classmethod
    def inp(cls, ts: TSHandle | Operand, *fields: Any) -> "Op":
        """``inp`` — non-blocking ``in``; strong semantics in FT-Linda."""
        return cls(OpCode.INP, ts, fields)

    @classmethod
    def rdp(cls, ts: TSHandle | Operand, *fields: Any) -> "Op":
        """``rdp`` — non-blocking ``rd``; strong semantics in FT-Linda."""
        return cls(OpCode.RDP, ts, fields)

    @classmethod
    def move(cls, src: TSHandle | Operand, dst: TSHandle | Operand, *fields: Any) -> "Op":
        """``move(src, dst, pattern)`` — atomically transfer all matches."""
        return cls(OpCode.MOVE, src, fields, ts2=dst)

    @classmethod
    def copy(cls, src: TSHandle | Operand, dst: TSHandle | Operand, *fields: Any) -> "Op":
        """``copy(src, dst, pattern)`` — atomically duplicate all matches."""
        return cls(OpCode.COPY, src, fields, ts2=dst)

    # -- analysis -------------------------------------------------------- #

    def operands(self) -> tuple[Any, ...]:
        """The space(s), then the fields: every operand, in one fixed order."""
        if self.ts2 is None:
            return (self.ts, *self.fields)
        return (self.ts, self.ts2, *self.fields)

    def binds(self) -> tuple[str, ...]:
        """Names of formals this operation binds when it succeeds."""
        return tuple(
            f.name
            for f in self.fields
            if isinstance(f, Formal) and f.name is not None
        )

    def reads(self) -> frozenset[str]:
        """Formal names this operation's operands reference."""
        out: frozenset[str] = self.ts.free_names()
        if self.ts2 is not None:
            out |= self.ts2.free_names()
        for f in self.fields:
            if isinstance(f, Operand):
                out |= f.free_names()
        return out

    def compiled(self) -> Recipe:
        """The fields as a :class:`Recipe`: compiled on first use, kept, never pickled."""
        try:
            return self._recipe
        except AttributeError:
            recipe = self._recipe = Recipe(self.fields)
            return recipe

    def resolve_pattern(self, env: Mapping[str, Any]) -> Pattern:
        """Evaluate operand fields under *env*, producing a match pattern."""
        return self.compiled().pattern(env)

    # -- introspection ---------------------------------------------------- #
    #
    # Everything below reads what is known of an operation *before* it
    # executes: constants, and — for a statement plan — the holes its
    # *actuals* fill.  Formal refs and expressions stay unknown.

    def static_ts(self, actuals: Sequence[Any] = ()) -> TSHandle | None:
        """The target space when it is statically known, else ``None``."""
        value = _static(self.ts, actuals)
        return value if isinstance(value, TSHandle) else None

    def template_key(self, actuals: Sequence[Any] = ()) -> str:
        """Canonical anti-tuple description of this operation's pattern.

        Same rendering as :func:`repro.core.matching.pattern_key` when
        every actual is statically known — so a waiter parked on
        ``in(ts, "task", ?int)`` correlates with the profiler's hot
        template ``("task", ?int)``, whether ``"task"`` is a constant or
        one of the plan's *actuals*.  Operands whose value is only known
        at execution time (formal refs, expressions) render as ``*``.
        """
        parts = []
        for f in self.fields:
            if isinstance(f, Formal):
                parts.append(f"?{type_name(f.ftype)}")
            else:
                value = _static(f, actuals)
                parts.append("*" if value is _DYNAMIC else repr(value))
        return f"({', '.join(parts)})"

    def shard_hints(
        self, actuals: Sequence[Any] = ()
    ) -> list[tuple[TSHandle | None, Any, bool]]:
        """Partition hints: ``(space, first-field value, extracts)`` per target.

        The shard classifier reduces an AGS to the set of
        ``(space, first-field)`` partitions it can touch.  Each hint's
        *space* is the statically known handle (``None`` when the space is
        itself an operand resolved at execution time), *first* is the
        first field's static value or :data:`~repro.core.matching.
        ANY_FIRST` when it is a formal/expression, and *extracts* says
        whether the operation needs to *match* existing tuples there
        (guards, body in/rd/probes, and move/copy sources) as opposed to
        only depositing (``out`` and move/copy destinations).

        MOVE/COPY contribute two hints: the source (extracting) and the
        destination (deposit-only) — transferred tuples keep their first
        field, so the destination hint reuses the pattern's first value.
        """
        first = _static(self.fields[0], actuals)
        if first is _DYNAMIC:
            first = ANY_FIRST
        hints = [(self.static_ts(actuals), first, self.code is not OpCode.OUT)]
        if self.ts2 is not None:
            dst = _static(self.ts2, actuals)
            hints.append((dst if isinstance(dst, TSHandle) else None, first, False))
        return hints

    def correlation_key(
        self, actuals: Sequence[Any] = ()
    ) -> tuple[int | None, str, int]:
        """``(space_id, first_field, arity)`` for out-traffic correlation.

        ``space_id`` is ``None`` and ``first_field`` is ``"*"`` when not
        statically known; the stall detector treats both as wildcards.
        """
        ts = self.static_ts(actuals)
        first = _static(self.fields[0], actuals)
        first_repr = "*" if first is _DYNAMIC else repr(first)
        return (ts.id if ts is not None else None, first_repr, len(self.fields))

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.fields)
        if self.ts2 is not None:
            return f"{self.code.value}({self.ts!r} -> {self.ts2!r}; {inner})"
        return f"{self.code.value}({self.ts!r}; {inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Op)
            and other.code == self.code
            and other.ts == self.ts
            and other.ts2 == self.ts2
            and other.fields == self.fields
        )

    def __hash__(self) -> int:
        return hash((self.code, self.ts, self.ts2, self.fields))


# --------------------------------------------------------------------------- #
# guards and branches
# --------------------------------------------------------------------------- #


class GuardKind(enum.Enum):
    TRUE = "true"
    OP = "op"


class Guard:
    """The guard of an AGS branch: ``true`` or a single tuple operation.

    Blocking guards (``in``/``rd``) delay the branch until a match exists.
    Probe guards (``inp``/``rdp``) make the whole AGS non-blocking: when no
    branch can fire, the statement completes immediately having done
    nothing, and reports which (if any) branch fired — this is FT-Linda's
    *strong* ``inp``/``rdp`` semantics, possible because all operations are
    totally ordered (Sec. 6).
    """

    __slots__ = ("kind", "op")

    def __init__(self, kind: GuardKind, op: Op | None = None):
        if kind is GuardKind.OP:
            if op is None:
                raise AGSError("operation guards need an operation")
            if op.code not in (OpCode.IN, OpCode.RD, OpCode.INP, OpCode.RDP):
                raise AGSError(
                    f"{op.code.value} cannot be a guard (only in/rd/inp/rdp)"
                )
        elif op is not None:
            raise AGSError("true guards take no operation")
        self.kind = kind
        self.op = op

    @classmethod
    def true(cls) -> "Guard":
        return cls(GuardKind.TRUE)

    @classmethod
    def in_(cls, ts: TSHandle | Operand, *fields: Any) -> "Guard":
        return cls(GuardKind.OP, Op.in_(ts, *fields))

    @classmethod
    def rd(cls, ts: TSHandle | Operand, *fields: Any) -> "Guard":
        return cls(GuardKind.OP, Op.rd(ts, *fields))

    @classmethod
    def inp(cls, ts: TSHandle | Operand, *fields: Any) -> "Guard":
        return cls(GuardKind.OP, Op.inp(ts, *fields))

    @classmethod
    def rdp(cls, ts: TSHandle | Operand, *fields: Any) -> "Guard":
        return cls(GuardKind.OP, Op.rdp(ts, *fields))

    @property
    def blocking(self) -> bool:
        """True when this guard may delay the AGS (in/rd, not probes)."""
        return self.kind is GuardKind.OP and self.op.code.is_blocking  # type: ignore[union-attr]

    def binds(self) -> tuple[str, ...]:
        return self.op.binds() if self.op is not None else ()

    def reads(self) -> frozenset[str]:
        return self.op.reads() if self.op is not None else frozenset()

    def __repr__(self) -> str:
        return "true" if self.kind is GuardKind.TRUE else repr(self.op)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Guard)
            and other.kind == self.kind
            and other.op == self.op
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.op))


class Branch:
    """One ``guard => body`` alternative of a (possibly disjunctive) AGS."""

    __slots__ = ("guard", "body")

    def __init__(self, guard: Guard, body: Sequence[Op]):
        self.guard = guard
        self.body = tuple(body)
        self._validate()

    def ops(self) -> tuple[Op, ...]:
        """The guard's operation (if it has one), then the body's."""
        op = self.guard.op
        return self.body if op is None else (op, *self.body)

    def _validate(self) -> None:
        bound: set[str] = set(self.guard.binds())
        # Guard operands may only use constants (nothing is bound yet)
        # except the TS position, which is also constant-only here.
        unbound = self.guard.reads()
        if unbound:
            raise FormalBindingError(
                f"guard references unbound formals {sorted(unbound)}"
            )
        # Note: in/rd are allowed in bodies but never block there — when no
        # match exists at execution time the whole AGS aborts and rolls
        # back (deterministically, since replicas see identical state).
        for i, op in enumerate(self.body):
            missing = op.reads() - bound
            if missing:
                raise FormalBindingError(
                    f"body op {i} ({op.code.value}) references formals "
                    f"{sorted(missing)} not bound earlier in this branch"
                )
            for nm in op.binds():
                if nm in bound:
                    raise AGSError(
                        f"body op {i} rebinds formal {nm!r}; names must be "
                        "single-assignment within a branch"
                    )
                bound.add(nm)

    def __repr__(self) -> str:
        body = "; ".join(repr(op) for op in self.body)
        return f"{self.guard!r} => [{body}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Branch)
            and other.guard == self.guard
            and other.body == self.body
        )

    def __hash__(self) -> int:
        return hash((self.guard, self.body))


class AGS:
    """A compiled atomic guarded statement (one or more branches).

    This is the unit of atomicity *and* the unit of communication: the
    runtime marshals one :class:`AGS` (plus its origin metadata) into a
    single atomic-multicast message, and every replica executes it
    deterministically on delivery (Sec. 5).

    Attributes
    ----------
    blocking:
        True when the AGS can delay (every guard is in/rd).  If any
        branch has a ``true`` or probe guard the statement always
        completes immediately.
    read_only:
        True when no execution of this AGS can mutate replicated state:
        every guard is ``rd``/``rdp`` (or ``true``) and every body op is
        ``rd``/``rdp`` — nothing withdraws, deposits or transfers, on any
        branch, whether the statement fires, probes out, or aborts.  With
        the replicated state machine keeping every replica identical
        after each ordered command, such a statement can be answered by
        any single up-to-date replica without the atomic-multicast round
        trip (the replica group's read fast path).

    Both follow from ``branches`` alone and a statement is immutable, so
    they are worked out once, at construction — and again on unpickling,
    never carried as a second copy of the truth.
    """

    __slots__ = ("branches", "blocking", "read_only", "_targets", "_hash", "_skeleton")

    def __init__(self, branches: Sequence[Branch]):
        if not branches:
            raise AGSError("an AGS needs at least one branch")
        self.branches = tuple(branches)
        blocking = read_only = True
        for branch in self.branches:
            op = branch.guard.op
            if op is None:
                blocking = False
            else:
                code = op.code
                if code is not _IN and code is not _RD:
                    blocking = False
                if code is not _RD and code is not _RDP:
                    read_only = False
            for op in branch.body:
                if op.code is not _RD and op.code is not _RDP:
                    read_only = False
                    break
        self.blocking = blocking
        self.read_only = read_only
        self._targets: tuple | None = None
        self._hash: int | None = None
        self._skeleton: tuple | None = None

    def __reduce__(self) -> tuple:
        return (AGS, (self.branches,))

    def __setstate__(self, state: tuple) -> None:
        # pickles from before __reduce__ (journals, snapshots) restore the
        # one slot they knew; finish the construction they skipped
        self.__init__(state[1]["branches"])

    @classmethod
    def single(cls, guard: Guard, body: Sequence[Op] = ()) -> "AGS":
        """The common non-disjunctive form ``< guard => body >``."""
        return cls([Branch(guard, body)])

    @classmethod
    def atomic(cls, *body: Op) -> "AGS":
        """``< true => body >`` — an unconditional atomic block."""
        return cls([Branch(Guard.true(), body)])

    def waiting_on(self, actuals: Sequence[Any] = ()) -> list[dict[str, Any]]:
        """What a parked instance of this AGS is blocked on (plain data).

        One entry per blocking guard: the space (named when statically
        known), the canonical anti-tuple template, and the correlation key
        the stall detector matches against recent ``out`` traffic.
        *actuals* are the parked command's — a plan's holes read as the
        values that fill them.
        """
        out: list[dict[str, Any]] = []
        for branch in self.branches:
            guard = branch.guard
            if not guard.blocking or guard.op is None:
                continue
            op = guard.op
            ts = op.static_ts(actuals)
            out.append(
                {
                    "op": op.code.value,
                    "space": f"{ts.name}#{ts.id}" if ts is not None else "?",
                    "template": op.template_key(actuals),
                    "key": op.correlation_key(actuals),
                }
            )
        return out

    def shard_hints(
        self, actuals: Sequence[Any] = ()
    ) -> list[tuple[TSHandle | None, Any, bool]]:
        """Deduplicated partition hints over every branch (guards + bodies).

        A hint that appears both extracting and deposit-only collapses to
        the extracting form — extraction subsumes deposit for routing.
        """
        merged: dict[tuple[int | None, Any], tuple[TSHandle | None, Any, bool]] = {}
        for branch in self.branches:
            for op in branch.ops():
                for ts, first, extracts in op.shard_hints(actuals):
                    key = (ts.id if ts is not None else None, first)
                    prev = merged.get(key)
                    if prev is None or (extracts and not prev[2]):
                        merged[key] = (ts, first, extracts)
        return list(merged.values())

    def shard_set(
        self, n_shards: int, actuals: Sequence[Any] = ()
    ) -> frozenset[int] | None:
        """Shards this AGS can touch, or ``None`` when not statically pinnable.

        ``None`` means some target has a dynamic space or a wildcard first
        field — the router must take the cross-shard path.  A concrete
        frozenset of size 1 is the fast case: the whole AGS lives on one
        shard and keeps the single-multicast cost.

        Which fields decide the route is a property of the statement, so
        the ``(space, first field)`` pair of every target is picked out
        once; routing a call reads those — constants, or *actuals* through
        a plan's holes — without walking the statement again.
        """
        if n_shards <= 1:
            return frozenset((0,))
        targets = self._targets
        if targets is None:
            targets = self._targets = tuple(
                (ts, op.fields[0])
                for branch in self.branches
                for op in branch.ops()
                for ts in ((op.ts,) if op.ts2 is None else (op.ts, op.ts2))
            )
        shards: set[int] = set()
        for ts_field, first_field in targets:
            ts = _static(ts_field, actuals)
            first = _static(first_field, actuals)
            if not isinstance(ts, TSHandle) or first is _DYNAMIC or first == ANY_FIRST:
                return None
            shards.add(shard_of(ts.id, first, n_shards))
        return frozenset(shards)

    def skeleton(self) -> tuple[Any, tuple, int]:
        """``(key, constants, base)``: the statement apart from its constants.

        *constants* are the values of its :class:`Const` operands — the
        space handles too, and constants nested inside an :class:`Expr`,
        which programs build with a fresh value per call as readily as a
        top-level one — in walk order: branch by branch, the guard's
        operation then the body's, each operation's space(s) then its
        fields, an expression's arguments left to right.  *key* is what is
        left, hashable, and equal for statements that differ in those
        values only: per branch whether the guard is ``true``, per
        operation the opcode, and per operand ``None`` where a constant
        stood or else the formal, formal reference, hole or expression as
        it stands.  So the keys a program can produce are bounded by its
        text.  *base* is how many holes the statement has of its own (one
        past its highest :class:`Param`), where numbering the holes its
        constants leave can start.  A statement with no constant — a plan
        — is its own key.

        Worked out on first use and kept beside the hash; never pickled.
        """
        view = self._skeleton
        if view is None:
            constants: list[Any] = []
            base = 0

            def shape(f: Any) -> Any:
                nonlocal base
                kind = type(f)
                if kind is Const:
                    constants.append(f.value)
                    return None
                if kind is Formal:
                    return (f.ftype, f.name)
                if kind is FormalRef:
                    return f.name
                if kind is Expr:
                    return (f.fn, *[shape(a) for a in f.args])
                if kind is Param:
                    base = max(base, f.index + 1)
                    return f.index
                return f

            key = tuple(
                (
                    branch.guard.op is None,
                    *[
                        (op.code, *[shape(f) for f in op.operands()])
                        for op in branch.ops()
                    ],
                )
                for branch in self.branches
            )
            view = self._skeleton = (
                (key, tuple(constants), base) if constants else (self, (), base)
            )
        return view

    def bound_names(self, branch_index: int) -> tuple[str, ...]:
        """All formal names the given branch can bind (guard + body)."""
        b = self.branches[branch_index]
        names = list(b.guard.binds())
        for op in b.body:
            names.extend(op.binds())
        return tuple(names)

    def __repr__(self) -> str:
        inner = " or ".join(repr(b) for b in self.branches)
        return f"<{inner}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AGS) and other.branches == self.branches

    def __hash__(self) -> int:
        # kept: a plan is looked up by value once per command it crosses
        # a pipe in, and hashing walks the whole statement
        h = self._hash
        if h is None:
            h = self._hash = hash(self.branches)
        return h


class AGSResult:
    """Outcome of executing an AGS.

    Attributes
    ----------
    fired:
        Index of the branch whose guard fired, or ``None`` when the AGS
        was non-blocking and no guard was satisfiable (failed probe).
    bindings:
        Values of every named formal bound by the fired branch.
    probe_results:
        Per-body-op success flags for ``inp``/``rdp`` ops in the body,
        keyed by op index within the branch.
    error:
        ``None`` normally; a message (or the deterministic exception, e.g.
        a :class:`~repro._errors.ScopeError`) when the fired branch aborted.
        An aborted AGS left **no** effects behind — the state machine
        rolled everything back.
    """

    __slots__ = ("fired", "bindings", "probe_results", "error")

    def __init__(
        self,
        fired: int | None,
        bindings: Mapping[str, Any] | None = None,
        probe_results: Mapping[int, bool] | None = None,
        error: str | Exception | None = None,
    ):
        self.fired = fired
        self.bindings = dict(bindings or {})
        self.probe_results = dict(probe_results or {})
        self.error = error

    def __reduce__(self) -> tuple:
        # by position, like the statement it answers: a result is most of
        # a reply frame and of every entry in the completed-request memo
        return (
            AGSResult,
            (self.fired, self.bindings, self.probe_results, self.error),
        )

    def __eq__(self, other: Any) -> bool:
        """Structural equality: results of identical executions compare equal.

        Needed because results now live in replicated state (the state
        machine's completed-request memo travels in snapshots, and
        snapshots of identical histories must compare equal).  Errors are
        compared by type and message — deterministic exceptions re-raised
        at different sites are distinct objects with identical meaning.
        """
        if not isinstance(other, AGSResult):
            return NotImplemented

        def key(e: Any) -> Any:
            return (type(e).__name__, str(e)) if isinstance(e, Exception) else e

        return (
            self.fired == other.fired
            and self.bindings == other.bindings
            and self.probe_results == other.probe_results
            and key(self.error) == key(other.error)
        )

    # identity hashing, as before structural __eq__ existed: results are
    # mutable-ish containers and are never used as value-keyed dict keys
    __hash__ = object.__hash__

    @property
    def succeeded(self) -> bool:
        """True when some branch fired and its body completed."""
        return self.fired is not None and self.error is None

    @property
    def aborted(self) -> bool:
        """True when a branch fired but its body failed and rolled back."""
        return self.error is not None

    def __getitem__(self, name: str) -> Any:
        return self.bindings[name]

    def get(self, name: str, default: Any = None) -> Any:
        return self.bindings.get(name, default)

    def __repr__(self) -> str:
        if not self.succeeded:
            return "AGSResult(no branch fired)"
        return f"AGSResult(branch={self.fired}, {self.bindings!r})"

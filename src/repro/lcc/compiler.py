"""Compiler: FT-lcc AST → the runtime's compiled AGS representation.

Performs what the paper describes FT-lcc doing (Sec. 5.2):

1. **signature cataloging** — every distinct pattern signature used by a
   matching operation is recorded in a :class:`SignatureCatalog` ("an
   ordered list of the types for each distinct pattern … used primarily
   for matching purposes");
2. **request-block generation** — each statement becomes the
   :class:`~repro.core.ags.AGS` opcode/operand structure the runtimes
   marshal into a single multicast message.

Name resolution, the same in TS and in value position: an identifier is a
tuple space of the *spaces* mapping (``{"main": MAIN_TS, …}``), else one of
the statement's *parameters* — compiled to the
:class:`~repro.core.ags.Param` hole the call's actual fills, the operand
slot FT-lcc marshalled a C expression into — else a formal bound earlier
in the branch.  Constant subexpressions are folded at compile time, so
replicas never re-evaluate pure-literal arithmetic; anything over a hole
or a formal is left for them.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro._errors import AGSError, CompileError
from repro.core.ags import (
    AGS,
    Branch,
    Const,
    Expr,
    FormalRef,
    Guard,
    GuardKind,
    Op,
    OpCode,
    Operand,
    Param,
)
from repro.core.spaces import TSHandle
from repro.core.tuples import Formal
from repro.lcc.ast_nodes import (
    AGSNode,
    ArgNode,
    BinOpNode,
    CallNode,
    FormalNode,
    GuardNode,
    LiteralNode,
    OpNode,
    UnaryNode,
    VarNode,
)
from repro.lcc.parser import parse_ags

__all__ = ["SignatureCatalog", "compile_ags", "compile_op", "compile_tree"]

_TYPE_NAMES: dict[str, type] = {
    "int": int,
    "float": float,
    "str": str,
    "string": str,
    "bytes": bytes,
    "bool": bool,
    "tuple": tuple,
    "any": object,
    "ts": TSHandle,
}

_BINOP_FN = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "truediv",
    "//": "floordiv",
    "%": "mod",
    "==": "eq",
    "!=": "ne",
    "<=": "le",
    ">=": "ge",
    "<": "lt",
    ">": "gt",
}

_OPCODES = {
    "out": OpCode.OUT,
    "in": OpCode.IN,
    "rd": OpCode.RD,
    "inp": OpCode.INP,
    "rdp": OpCode.RDP,
    "move": OpCode.MOVE,
    "copy": OpCode.COPY,
}


class SignatureCatalog:
    """FT-lcc's registry of distinct pattern signatures.

    Signatures are numbered in first-use order; the runtime's matching
    index keys on the same signature tuples, so the catalog doubles as a
    cross-check in tests that textual and builder programs agree.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple[str, ...], int] = {}

    def register(self, signature: tuple[str, ...]) -> int:
        """Record *signature*; returns its stable catalog id."""
        if signature not in self._ids:
            self._ids[signature] = len(self._ids)
        return self._ids[signature]

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, signature: tuple[str, ...]) -> bool:
        return signature in self._ids

    def signatures(self) -> list[tuple[str, ...]]:
        """All signatures, in catalog-id order."""
        return sorted(self._ids, key=self._ids.__getitem__)


class _BranchCompiler:
    """Compiles one branch, tracking which formal names are bound."""

    def __init__(
        self,
        spaces: Mapping[str, TSHandle],
        catalog: SignatureCatalog,
        params: Mapping[str, int],
    ):
        self.spaces = spaces
        self.catalog = catalog
        self.params = params  # name -> index among the statement's actuals
        self.bound: set[str] = set()

    # -- arguments ------------------------------------------------------- #

    def compile_value(self, node: ArgNode) -> Operand:
        """Compile an argument in *value* position (no formals allowed)."""
        if isinstance(node, LiteralNode):
            return Const(node.value)
        if isinstance(node, VarNode):
            if node.name in self.spaces:
                return Const(self.spaces[node.name])
            if node.name in self.params:
                return Param(self.params[node.name])
            if node.name in self.bound:
                return FormalRef(node.name)
            raise CompileError(
                f"unknown name {node.name!r} (not a tuple space, not a "
                "parameter, not a formal bound earlier in this branch)",
                node.line,
                node.column,
            )
        if isinstance(node, UnaryNode):
            inner = self.compile_value(node.operand)
            return self._fold(Expr("neg", (inner,)))
        if isinstance(node, BinOpNode):
            fn = _BINOP_FN[node.op]
            left = self.compile_value(node.left)
            right = self.compile_value(node.right)
            return self._fold(Expr(fn, (left, right)))
        if isinstance(node, CallNode):
            args = [self.compile_value(a) for a in node.args]
            try:
                return self._fold(Expr(node.fn, args))
            except AGSError as exc:
                raise CompileError(str(exc), node.line, node.column) from None
        raise CompileError("formals are not valid here", node.line, node.column)

    @staticmethod
    def _fold(expr: Expr) -> Operand:
        """Constant-fold expressions whose arguments are all literals."""
        if all(isinstance(a, Const) for a in expr.args):
            try:
                return Const(expr.evaluate({}))
            except Exception:
                return expr  # runtime error stays a runtime error
        return expr

    def compile_field(self, node: ArgNode) -> Any:
        """Compile a field: a formal or a value operand."""
        if isinstance(node, FormalNode):
            if node.type_name is not None:
                t = _TYPE_NAMES.get(node.type_name)
                if t is None:
                    raise CompileError(
                        f"unknown type {node.type_name!r}", node.line, node.column
                    )
            else:
                t = object
            if node.name is not None:
                if node.name in self.params:
                    raise CompileError(
                        f"formal {node.name!r} re-binds the statement's "
                        "parameter of that name",
                        node.line,
                        node.column,
                    )
                if node.name in self.bound:
                    raise CompileError(
                        f"formal {node.name!r} already bound in this branch",
                        node.line,
                        node.column,
                    )
                self.bound.add(node.name)
            return Formal(t, node.name)
        return self.compile_value(node)

    # -- operations -------------------------------------------------------- #

    def compile_ts(self, node: ArgNode) -> Operand:
        operand = self.compile_value(node)
        if isinstance(operand, Const) and not isinstance(operand.value, TSHandle):
            raise CompileError(
                f"{operand.value!r} is not a tuple space", node.line, node.column
            )
        return operand

    def compile_op(self, node: OpNode) -> Op:
        code = _OPCODES[node.opname]
        ts = self.compile_ts(node.ts_args[0])
        ts2 = self.compile_ts(node.ts_args[1]) if len(node.ts_args) > 1 else None
        fields = [self.compile_field(a) for a in node.args]
        try:
            op = Op(code, ts, fields, ts2=ts2)
        except AGSError as exc:
            raise CompileError(str(exc), node.line, node.column) from None
        if code is not OpCode.OUT:
            self.catalog.register(self._signature(fields))
        return op

    @staticmethod
    def _signature(fields: list[Any]) -> tuple[str, ...]:
        sig: list[str] = []
        for f in fields:
            if isinstance(f, Formal):
                sig.append("?" if not f.typed else f.ftype.__name__)
            elif isinstance(f, Const):
                sig.append(type(f.value).__name__)
            else:
                sig.append("*")  # value computed at run time
        return tuple(sig)


def compile_ags(
    src: str,
    spaces: Mapping[str, TSHandle],
    catalog: SignatureCatalog | None = None,
    params: Sequence[str] = (),
) -> AGS:
    """Compile statement text into an executable :class:`AGS`.

    Parameters
    ----------
    src:
        The statement, e.g. ``'< in(main,"c",?v:int) => out(main,"c",v+1) >'``.
    spaces:
        Name → handle mapping for every tuple space the text mentions.
    catalog:
        Optional :class:`SignatureCatalog` accumulating pattern signatures
        across many compilations (as FT-lcc does per program).
    params:
        Names the text uses for values supplied per call; the *k*-th
        compiles to ``Param(k)`` and the result is a statement plan, run
        with ``execute(plan, actuals)``.
    """
    if catalog is None:
        catalog = SignatureCatalog()
    return compile_tree(parse_ags(src), spaces, catalog, params)


def compile_tree(
    tree: AGSNode,
    spaces: Mapping[str, TSHandle],
    catalog: SignatureCatalog,
    params: Sequence[str] = (),
) -> AGS:
    """Compile a parsed statement (see :func:`compile_ags`)."""
    holes = {name: k for k, name in enumerate(params)}
    for name in holes:
        if name in spaces:
            # spaces resolve first, so the hole could never be reached
            raise CompileError(
                f"parameter {name!r} shadows the tuple space of that name",
                tree.line,
                tree.column,
            )
    branches: list[Branch] = []
    for bnode in tree.branches:
        bc = _BranchCompiler(spaces, catalog, holes)
        gop = bnode.guard.op
        if (
            gop is not None
            and gop.opname in ("out", "move", "copy")
            and not bnode.body
        ):
            # bare `out(...)` / `move(...)` statement: sugar for true => op
            guard = Guard.true()
            body = [bc.compile_op(gop)]
            branches.append(Branch(guard, body))
            continue
        guard = _compile_guard(bc, bnode.guard)
        body = [bc.compile_op(op) for op in bnode.body]
        try:
            branches.append(Branch(guard, body))
        except AGSError as exc:
            raise CompileError(str(exc), bnode.line, bnode.column) from None
    try:
        return AGS(branches)
    except AGSError as exc:
        raise CompileError(str(exc), tree.line, tree.column) from None


def _compile_guard(bc: _BranchCompiler, gnode: GuardNode) -> Guard:
    if gnode.op is None:
        return Guard.true()
    op = bc.compile_op(gnode.op)
    if op.code not in (OpCode.IN, OpCode.RD, OpCode.INP, OpCode.RDP):
        raise CompileError(
            f"{op.code.value} cannot be a guard", gnode.line, gnode.column
        )
    return Guard(GuardKind.OP, op)


def compile_op(src: str, spaces: Mapping[str, TSHandle]) -> Op:
    """Compile a single operation call, e.g. ``'out(main, "x", 1)'``."""
    tree = parse_ags(src)
    if (
        len(tree.branches) != 1
        or tree.branches[0].body
        or tree.branches[0].guard.op is None
    ):
        raise CompileError("expected exactly one operation call")
    bc = _BranchCompiler(spaces, SignatureCatalog(), {})
    return bc.compile_op(tree.branches[0].guard.op)

"""Pretty-printer: compiled AGS back to FT-lcc statement text.

The inverse of :func:`repro.lcc.compiler.compile_ags` — useful for
debugging, for logging the statements a runtime executes, and for the
round-trip property tests (``compile(print(ags)) == ags``).

The printer needs a reverse mapping from tuple-space handles to names,
and for a statement plan the names of its parameters.  Only text the
lexer reads back as the same statement is printed: a handle or hole
without a name, a non-finite float, ``None``, bytes and tuples have no
such text (:func:`printable` says so beforehand).
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from repro.core.ags import (
    AGS,
    Branch,
    Const,
    Expr,
    FormalRef,
    GuardKind,
    Op,
    Operand,
    Param,
)
from repro.core.spaces import TSHandle
from repro.core.tuples import Formal, type_name

__all__ = ["print_ags", "printable"]

_BIN = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "truediv": "/",
    "floordiv": "//",
    "mod": "%",
    "eq": "==",
    "ne": "!=",
    "le": "<=",
    "ge": ">=",
    "lt": "<",
    "gt": ">",
}

#: precedence levels for parenthesization (higher binds tighter)
_PREC = {
    "==": 1, "!=": 1, "<=": 1, ">=": 1, "<": 1, ">": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3, "//": 3, "%": 3,
}


def print_ags(
    ags: AGS, names: Mapping[TSHandle, str], params: Sequence[str] = ()
) -> str:
    """Render *ags* as FT-lcc statement text.

    *names* maps each handle the statement touches to its source name
    (the inverse of the *spaces* mapping given to ``compile_ags``), and
    *params* names its holes as ``compile_ags`` was given them.
    """
    printer = _Printer(names, params)
    branches = " or ".join(printer.branch(b) for b in ags.branches)
    return f"< {branches} >"


def printable(
    ags: AGS, names: Mapping[TSHandle, str], params: Sequence[str] = ()
) -> bool:
    """True when every construct in *ags* has a textual form under *names*."""
    try:
        print_ags(ags, names, params)
    except _Unprintable:
        return False
    return True


class _Unprintable(Exception):
    pass


class _Printer:
    def __init__(self, names: Mapping[TSHandle, str], params: Sequence[str]):
        self.names = names
        self.params = params

    def branch(self, branch: Branch) -> str:
        guard = (
            "true"
            if branch.guard.kind is GuardKind.TRUE
            else self.op(branch.guard.op)  # type: ignore[arg-type]
        )
        if not branch.body:
            return guard
        body = "; ".join(self.op(op) for op in branch.body)
        return f"{guard} => {body}"

    def op(self, op: Op) -> str:
        parts = [self.ts(op.ts)]
        if op.ts2 is not None:
            parts.append(self.ts(op.ts2))
        for f in op.fields:
            parts.append(self.field(f))
        return f"{op.code.value}({', '.join(parts)})"

    def ts(self, operand: Operand) -> str:
        if isinstance(operand, Const) and isinstance(operand.value, TSHandle):
            return self.literal(operand.value)
        if isinstance(operand, (FormalRef, Param)):
            return self.expr(operand, 0)
        raise _Unprintable(f"tuple-space operand {operand!r}")

    def field(self, field: Any) -> str:
        if isinstance(field, Formal):
            t = "" if not field.typed else f":{type_name(field.ftype)}"
            return f"?{field.name or ''}{t}"
        return self.expr(field, 0)

    def expr(self, operand: Operand, parent_prec: int) -> str:
        if isinstance(operand, Const):
            return self.literal(operand.value)
        if isinstance(operand, FormalRef):
            return operand.name
        if isinstance(operand, Param):
            if operand.index >= len(self.params):
                raise _Unprintable(f"hole {operand!r} has no name")
            return self.params[operand.index]
        if isinstance(operand, Expr):
            if operand.fn == "neg":
                inner = self.expr(operand.args[0], 99)
                return f"-{inner}"
            sym = _BIN.get(operand.fn)
            if sym is not None and len(operand.args) == 2:
                prec = _PREC[sym]
                left = self.expr(operand.args[0], prec)
                right = self.expr(operand.args[1], prec + 1)
                text = f"{left} {sym} {right}"
                return f"({text})" if prec < parent_prec else text
            args = ", ".join(self.expr(a, 0) for a in operand.args)
            return f"{operand.fn}({args})"
        raise _Unprintable(f"operand {operand!r}")

    def literal(self, value: Any) -> str:
        if isinstance(value, TSHandle):
            name = self.names.get(value)
            if name is None:
                raise _Unprintable(f"tuple space {value!r} has no name")
            return name
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            if isinstance(value, float) and not math.isfinite(value):
                raise _Unprintable(f"literal {value!r} has no textual form")
            # negative literals print as unary minus, which the grammar accepts
            return repr(value)
        if isinstance(value, str):
            escaped = value.replace("\\", "\\\\").replace('"', '\\"')
            escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
            return f'"{escaped}"'
        raise _Unprintable(f"literal {value!r} has no textual form")

"""AST of the FT-lcc statement language.

The tree is deliberately close to the runtime representation (the
compiler's job is mostly name/type resolution):

- :class:`AGSNode` / :class:`BranchNode` — the ``< guard => body or … >``
  shape;
- :class:`OpNode` — one ``op(ts, arg, …)`` call;
- argument nodes — :class:`FormalNode` (``?name:type``),
  :class:`LiteralNode`, :class:`VarNode` (a tuple space, a parameter or a
  bound formal used as a value), :class:`BinOpNode` and :class:`CallNode`
  (deterministic expressions);
- :class:`SpaceNode` / :class:`StmtNode` — a program's ``space`` and
  ``stmt`` declarations, the latter holding its statement's tree.

Every node records its source position for error messages.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.spaces import Resilience, Scope

__all__ = [
    "AGSNode",
    "ArgNode",
    "BinOpNode",
    "BranchNode",
    "CallNode",
    "FormalNode",
    "GuardNode",
    "LiteralNode",
    "OpNode",
    "SpaceNode",
    "StmtNode",
    "UnaryNode",
    "VarNode",
]


class Node:
    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        self.line = line
        self.column = column


class ArgNode(Node):
    """Base of everything that can appear as an operation argument."""


class LiteralNode(ArgNode):
    __slots__ = ("value",)

    def __init__(self, value: object, line: int, column: int):
        super().__init__(line, column)
        self.value = value

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


class VarNode(ArgNode):
    """A name used as a value: a TS name, a parameter, or a bound formal."""

    __slots__ = ("name",)

    def __init__(self, name: str, line: int, column: int):
        super().__init__(line, column)
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name})"


class FormalNode(ArgNode):
    """``?name:type``, ``?name``, or anonymous ``?:type`` / ``?``."""

    __slots__ = ("name", "type_name")

    def __init__(
        self, name: str | None, type_name: str | None, line: int, column: int
    ):
        super().__init__(line, column)
        self.name = name
        self.type_name = type_name

    def __repr__(self) -> str:
        t = f":{self.type_name}" if self.type_name else ""
        return f"?{self.name or ''}{t}"


class BinOpNode(ArgNode):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: ArgNode, right: ArgNode, line: int, column: int):
        super().__init__(line, column)
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryNode(ArgNode):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: ArgNode, line: int, column: int):
        super().__init__(line, column)
        self.op = op
        self.operand = operand

    def __repr__(self) -> str:
        return f"({self.op}{self.operand!r})"


class CallNode(ArgNode):
    """``fn(args…)`` — a registered deterministic function application."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: Sequence[ArgNode], line: int, column: int):
        super().__init__(line, column)
        self.fn = fn
        self.args = list(args)

    def __repr__(self) -> str:
        return f"{self.fn}({', '.join(map(repr, self.args))})"


class OpNode(Node):
    """``opname(ts_name, arg, …)`` — for move/copy, two leading TS names."""

    __slots__ = ("opname", "ts_args", "args")

    def __init__(
        self,
        opname: str,
        ts_args: Sequence[ArgNode],
        args: Sequence[ArgNode],
        line: int,
        column: int,
    ):
        super().__init__(line, column)
        self.opname = opname
        self.ts_args = list(ts_args)
        self.args = list(args)

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.ts_args] + [repr(a) for a in self.args]
        return f"{self.opname}({', '.join(parts)})"


class GuardNode(Node):
    """``true`` or an operation call."""

    __slots__ = ("op",)

    def __init__(self, op: OpNode | None, line: int, column: int):
        super().__init__(line, column)
        self.op = op  # None = true guard

    def __repr__(self) -> str:
        return "true" if self.op is None else repr(self.op)


class BranchNode(Node):
    __slots__ = ("guard", "body")

    def __init__(self, guard: GuardNode, body: Sequence[OpNode], line: int, column: int):
        super().__init__(line, column)
        self.guard = guard
        self.body = list(body)

    def __repr__(self) -> str:
        return f"{self.guard!r} => {self.body!r}"


class AGSNode(Node):
    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[BranchNode], line: int, column: int):
        super().__init__(line, column)
        self.branches = list(branches)

    def __repr__(self) -> str:
        return f"<{' or '.join(map(repr, self.branches))}>"


class SpaceNode(Node):
    """``space NAME [stable|volatile] [shared|private]``."""

    __slots__ = ("name", "resilience", "scope")

    def __init__(
        self, name: str, resilience: Resilience, scope: Scope, line: int, column: int
    ):
        super().__init__(line, column)
        self.name = name
        self.resilience = resilience
        self.scope = scope

    def __repr__(self) -> str:
        return f"space {self.name} {self.resilience.value} {self.scope.value}"


class StmtNode(Node):
    """``stmt NAME [(param, …)] = ags`` — a named statement with holes."""

    __slots__ = ("name", "params", "body")

    def __init__(
        self, name: str, params: Sequence[str], body: AGSNode, line: int, column: int
    ):
        super().__init__(line, column)
        self.name = name
        self.params = list(params)
        self.body = body

    def __repr__(self) -> str:
        ps = f"({', '.join(self.params)})" if self.params else ""
        return f"stmt {self.name}{ps}"

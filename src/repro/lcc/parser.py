"""Recursive-descent parser for the FT-lcc statement language.

Grammar (EBNF; ``{}`` repetition, ``[]`` optional)::

    program  = { "space" NAME { attr }
               | "stmt" NAME [ "(" NAME { "," NAME } ")" ] "=" ags }
    attr     = "stable" | "volatile" | "shared" | "private"
    ags      = "<" branch { "or" branch } ">"
             | branch                       (* bare branch, sugar *)
    branch   = guard [ "=>" body ]
    guard    = "true" | opcall
    body     = opcall { ";" opcall }
    opcall   = NAME "(" arg { "," arg } ")"
    arg      = formal | expr
    formal   = "?" [NAME] [":" NAME]
    expr     = cmp
    cmp      = sum [ ("=="|"!="|"<="|">="|"<"|">") sum ]
    sum      = term { ("+"|"-") term }
    term     = unary { ("*"|"/"|"//"|"%") unary }
    unary    = "-" unary | atom
    atom     = INT | FLOAT | STRING | "true" | "false"
             | NAME "(" [expr {"," expr}] ")"      (* function call *)
             | NAME                  (* TS / parameter / bound formal *)
             | "(" expr ")"

A program is one token stream: ``space`` and ``stmt`` are ordinary names
that open a declaration only where one can start, a statement ends where
its grammar does (no line structure), and every error carries the
position in the *file*.

Comparison operators inside an *argument* use ``<``/``>`` freely: the
parser only treats ``<``/``>`` as statement brackets at statement level,
where an operation name or ``true``/``or`` must follow.
"""

from __future__ import annotations

from typing import Sequence

from repro._errors import CompileError
from repro.core.spaces import Resilience, Scope
from repro.lcc.ast_nodes import (
    AGSNode,
    ArgNode,
    BinOpNode,
    BranchNode,
    CallNode,
    FormalNode,
    GuardNode,
    LiteralNode,
    OpNode,
    SpaceNode,
    StmtNode,
    UnaryNode,
    VarNode,
)
from repro.lcc.lexer import Token, tokenize

__all__ = ["parse_ags", "parse_program"]

#: Operation names recognized in guard/body position.
_OPNAMES = {"out", "in", "rd", "inp", "rdp", "move", "copy"}

_CMP_OPS = {"EQ": "==", "NE": "!=", "LE": "<=", "GE": ">=", "LANGLE": "<", "RANGLE": ">"}


class _Parser:
    def __init__(self, tokens: Sequence[Token], src: str):
        self.tokens = list(tokens)
        self.pos = 0
        self.src = src

    # -- token plumbing --------------------------------------------------- #

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def _eof(self, message: str) -> CompileError:
        """*message*, positioned at the last token there is."""
        last = self.tokens[-1]
        return CompileError(message, last.line, last.column)

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self._eof("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise self._eof(f"expected {kind}, got end of input")
        if tok.kind != kind:
            raise CompileError(
                f"expected {kind}, got {tok.value!r}", tok.line, tok.column
            )
        self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        tok = self.peek()
        if tok is not None and tok.kind == kind:
            self.pos += 1
            return tok
        return None

    # -- grammar ----------------------------------------------------------- #

    def program(self) -> list[SpaceNode | StmtNode]:
        decls: list[SpaceNode | StmtNode] = []
        while (tok := self.peek()) is not None:
            if tok.kind == "NAME" and tok.value == "space":
                decls.append(self.space())
            elif tok.kind == "NAME" and tok.value == "stmt":
                decls.append(self.stmt())
            else:
                raise CompileError(
                    f"expected 'space' or 'stmt' declaration, got {tok.value!r}",
                    tok.line,
                    tok.column,
                )
        return decls

    def space(self) -> SpaceNode:
        keyword = self.next()
        name = str(self.expect("NAME").value)
        resilience, scope = Resilience.STABLE, Scope.SHARED
        while (
            (tok := self.peek()) is not None
            and tok.kind == "NAME"
            and tok.value not in ("space", "stmt")
        ):
            word = str(self.next().value)
            if word in ("stable", "volatile"):
                resilience = Resilience(word)
            elif word in ("shared", "private"):
                scope = Scope(word)
            else:
                raise CompileError(
                    f"unknown space attribute {word!r}", tok.line, tok.column
                )
        return SpaceNode(name, resilience, scope, keyword.line, keyword.column)

    def stmt(self) -> StmtNode:
        keyword = self.next()
        name = str(self.expect("NAME").value)
        params: list[str] = []
        if self.accept("LPAREN"):
            params.append(str(self.expect("NAME").value))
            while self.accept("COMMA"):
                params.append(str(self.expect("NAME").value))
            self.expect("RPAREN")
        self.expect("ASSIGN")
        return StmtNode(name, params, self.ags(), keyword.line, keyword.column)

    def ags(self) -> AGSNode:
        bracketed = self.accept("LANGLE") is not None
        first = self.peek()
        line = first.line if first else 1
        col = first.column if first else 1
        branches = [self.branch()]
        while self.accept("OR"):
            branches.append(self.branch())
        if bracketed:
            self.expect("RANGLE")
        return AGSNode(branches, line, col)

    def branch(self) -> BranchNode:
        tok = self.peek()
        if tok is None:
            raise self._eof("expected a guard")
        guard = self.guard()
        body: list[OpNode] = []
        if self.accept("ARROW"):
            body.append(self.opcall())
            while self.accept("SEMI"):
                body.append(self.opcall())
        return BranchNode(guard, body, tok.line, tok.column)

    def guard(self) -> GuardNode:
        tok = self.peek()
        assert tok is not None
        if tok.kind == "TRUE":
            self.next()
            return GuardNode(None, tok.line, tok.column)
        op = self.opcall()
        return GuardNode(op, op.line, op.column)

    def opcall(self) -> OpNode:
        name_tok = self.expect("NAME")
        opname = str(name_tok.value)
        if opname not in _OPNAMES:
            raise CompileError(
                f"unknown operation {opname!r} (expected one of "
                f"{sorted(_OPNAMES)})",
                name_tok.line,
                name_tok.column,
            )
        self.expect("LPAREN")
        args: list[ArgNode] = [self.arg()]
        while self.accept("COMMA"):
            args.append(self.arg())
        self.expect("RPAREN")
        n_ts = 2 if opname in ("move", "copy") else 1
        if len(args) < n_ts + 1:
            raise CompileError(
                f"{opname} needs {n_ts} tuple-space name(s) plus at least "
                "one field",
                name_tok.line,
                name_tok.column,
            )
        return OpNode(opname, args[:n_ts], args[n_ts:], name_tok.line, name_tok.column)

    def arg(self) -> ArgNode:
        if self.peek() is not None and self.peek().kind == "QMARK":  # type: ignore[union-attr]
            return self.formal()
        return self.expr()

    def formal(self) -> FormalNode:
        q = self.expect("QMARK")
        name: str | None = None
        type_name: str | None = None
        tok = self.peek()
        if tok is not None and tok.kind == "NAME":
            name = str(self.next().value)
        if self.accept("COLON"):
            type_name = str(self.expect("NAME").value)
        return FormalNode(name, type_name, q.line, q.column)

    # -- expressions --------------------------------------------------------- #

    def expr(self) -> ArgNode:
        return self.cmp()

    def cmp(self) -> ArgNode:
        left = self.sum()
        tok = self.peek()
        if tok is not None and tok.kind in _CMP_OPS:
            # `<`/`>` are comparisons here only if another operand follows;
            # a `>` closing the statement is left for the caller.
            if tok.kind == "RANGLE" and not self._starts_operand(self.peek(1)):
                return left
            op = _CMP_OPS[self.next().kind]
            right = self.sum()
            return BinOpNode(op, left, right, tok.line, tok.column)
        return left

    @staticmethod
    def _starts_operand(tok: Token | None) -> bool:
        return tok is not None and tok.kind in (
            "INT",
            "FLOAT",
            "STRING",
            "NAME",
            "LPAREN",
            "MINUS",
            "TRUE",
            "FALSE",
        )

    def sum(self) -> ArgNode:
        left = self.term()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind in ("PLUS", "MINUS"):
                self.next()
                right = self.term()
                left = BinOpNode(str(tok.value), left, right, tok.line, tok.column)
            else:
                return left

    def term(self) -> ArgNode:
        left = self.unary()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind in ("STAR", "SLASH", "DSLASH", "PERCENT"):
                self.next()
                right = self.unary()
                left = BinOpNode(str(tok.value), left, right, tok.line, tok.column)
            else:
                return left

    def unary(self) -> ArgNode:
        tok = self.peek()
        if tok is not None and tok.kind == "MINUS":
            self.next()
            operand = self.unary()
            return UnaryNode("-", operand, tok.line, tok.column)
        return self.atom()

    def atom(self) -> ArgNode:
        tok = self.next()
        if tok.kind in ("INT", "FLOAT", "STRING"):
            return LiteralNode(tok.value, tok.line, tok.column)
        if tok.kind == "TRUE":
            return LiteralNode(True, tok.line, tok.column)
        if tok.kind == "FALSE":
            return LiteralNode(False, tok.line, tok.column)
        if tok.kind == "NAME":
            if self.peek() is not None and self.peek().kind == "LPAREN":  # type: ignore[union-attr]
                self.next()
                args: list[ArgNode] = []
                if self.peek() is not None and self.peek().kind != "RPAREN":  # type: ignore[union-attr]
                    args.append(self.expr())
                    while self.accept("COMMA"):
                        args.append(self.expr())
                self.expect("RPAREN")
                return CallNode(str(tok.value), args, tok.line, tok.column)
            return VarNode(str(tok.value), tok.line, tok.column)
        if tok.kind == "LPAREN":
            inner = self.expr()
            self.expect("RPAREN")
            return inner
        raise CompileError(
            f"unexpected token {tok.value!r} in expression", tok.line, tok.column
        )


def parse_ags(src: str) -> AGSNode:
    """Parse one atomic guarded statement (with or without ``< >``)."""
    tokens = tokenize(src)
    if not tokens:
        raise CompileError("empty statement")
    parser = _Parser(tokens, src)
    tree = parser.ags()
    extra = parser.peek()
    if extra is not None:
        raise CompileError(
            f"trailing input {extra.value!r}", extra.line, extra.column
        )
    return tree


def parse_program(src: str) -> list[SpaceNode | StmtNode]:
    """Parse a program: its ``space`` and ``stmt`` declarations, in order."""
    return _Parser(tokenize(src), src).program()

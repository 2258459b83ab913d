"""Tokenizer for the FT-lcc statement language.

Hand-rolled single-pass lexer with line/column tracking so parse errors
point at the offending character.  Token kinds:

``NAME`` identifiers/keywords, ``INT``, ``FLOAT`` (``2.5``, ``1e-07``,
``1.5E+22`` — every form ``repr`` gives a finite float), ``STRING`` (double
quotes, with escapes), ``QMARK`` (``?``), punctuation (``< > ( ) , ; :``),
operators (``+ - * / % // == != <= >= < >``), ``ARROW`` (``=>``) and
``ASSIGN`` (the ``=`` of a program's ``stmt NAME = …``).

``<`` and ``>`` are both statement brackets and comparison operators; the
parser disambiguates by context, the lexer just reports ``LANGLE`` /
``RANGLE``.
"""

from __future__ import annotations

from typing import Iterator

from repro._errors import CompileError

__all__ = ["Token", "tokenize"]

_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ";": "SEMI",
    ":": "COLON",
    "?": "QMARK",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "%": "PERCENT",
    "=": "ASSIGN",
}

_KEYWORDS = {"or", "true", "false"}


class Token:
    """A lexeme with its kind, value and source position."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: object, line: int, column: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r} @{self.line}:{self.column})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Token)
            and other.kind == self.kind
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.value))


def tokenize(src: str) -> list[Token]:
    """Lex *src* into tokens (excluding whitespace and ``#`` comments)."""
    return list(_scan(src))


def _scan(src: str) -> Iterator[Token]:
    i = 0
    line = 1
    col = 1
    n = len(src)

    def err(msg: str) -> CompileError:
        return CompileError(msg, line, col)

    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_col = col
        # multi-char operators first
        two = src[i : i + 2]
        if two == "=>":
            yield Token("ARROW", "=>", line, start_col)
            i += 2
            col += 2
            continue
        if two in ("==", "!=", "<=", ">=", "//"):
            kind = {"==": "EQ", "!=": "NE", "<=": "LE", ">=": "GE", "//": "DSLASH"}[two]
            yield Token(kind, two, line, start_col)
            i += 2
            col += 2
            continue
        if ch == "<":
            yield Token("LANGLE", "<", line, start_col)
            i += 1
            col += 1
            continue
        if ch == ">":
            yield Token("RANGLE", ">", line, start_col)
            i += 1
            col += 1
            continue
        if ch == "/":
            yield Token("SLASH", "/", line, start_col)
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            yield Token(_PUNCT[ch], ch, line, start_col)
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            while j < n and src[j] != '"':
                if src[j] == "\\":
                    if j + 1 >= n:
                        raise err("unterminated escape in string literal")
                    esc = src[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                elif src[j] == "\n":
                    raise err("newline inside string literal")
                else:
                    buf.append(src[j])
                    j += 1
            if j >= n:
                raise err("unterminated string literal")
            yield Token("STRING", "".join(buf), line, start_col)
            col += j + 1 - i
            i = j + 1
            continue
        # ASCII digits only: str.isdigit() accepts Unicode digits (e.g.
        # superscript one) that int()/float() reject
        if ch in "0123456789":
            j = i
            while j < n and src[j] in "0123456789":
                j += 1
            is_float = False
            if j < n and src[j] == "." and j + 1 < n and src[j + 1] in "0123456789":
                is_float = True
                j += 1
                while j < n and src[j] in "0123456789":
                    j += 1
            if j < n and src[j] in "eE":
                # an exponent only when digits follow it: `2e` stays INT, NAME
                k = j + 2 if src[j + 1 : j + 2] in ("+", "-") else j + 1
                if k < n and src[k] in "0123456789":
                    is_float = True
                    j = k
                    while j < n and src[j] in "0123456789":
                        j += 1
            text = src[i:j]
            value: object = float(text) if is_float else int(text)
            yield Token("FLOAT" if is_float else "INT", value, line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            name = src[i:j]
            if name in _KEYWORDS:
                yield Token(name.upper(), name, line, start_col)
            else:
                yield Token("NAME", name, line, start_col)
            col += j - i
            i = j
            continue
        raise err(f"unexpected character {ch!r}")

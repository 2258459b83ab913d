"""Property-based robustness tests for the FT-lcc front end.

A compiler's first obligation is to never die ungracefully: every input,
however mangled, either compiles or raises :class:`CompileError` with a
position.  Hypothesis feeds the lexer/parser/compiler garbage, truncated
valid programs, and randomized valid statements.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import CompileError, LocalRuntime, formal
from repro.core.spaces import MAIN_TS
from repro.lcc import compile_ags, compile_program, print_ags, tokenize

SPACES = {"main": MAIN_TS}
NAMES = {MAIN_TS: "main"}


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_lexer_total(text):
    """tokenize() either returns tokens or raises CompileError — only."""
    try:
        tokens = tokenize(text)
    except CompileError:
        return
    # positions are sane and non-decreasing in document order
    last = (1, 0)
    for t in tokens:
        assert t.line >= 1 and t.column >= 1
        assert (t.line, t.column) > last or t.line > last[0]
        last = (t.line, t.column)


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_compiler_total_on_garbage(text):
    """compile_ags on arbitrary text never raises anything else."""
    try:
        compile_ags(text, SPACES)
    except CompileError:
        pass


VALID = '< in(main, "count", ?old:int) => out(main, "count", old + 1) >'


@given(st.integers(min_value=0, max_value=len(VALID) - 1))
@settings(max_examples=80, deadline=None)
def test_truncations_fail_cleanly(cut):
    """Every prefix of a valid statement fails with CompileError (or
    compiles, for the rare prefix that is itself well-formed)."""
    try:
        compile_ags(VALID[:cut], SPACES)
    except CompileError:
        pass


PROGRAM = (
    "# a program\nspace bag stable shared\nspace mine private\n\n"
    'stmt take = < in(bag, "task", ?t:int) => out(mine, "task", t) >\n'
    'stmt finish(t, r) =\n    < in(mine, "task", t) => out(bag, "result", t, r) >\n'
    'stmt seed(t) = out(bag, "task", t)\n'
)


@given(st.one_of(
    st.text(max_size=60),
    st.integers(min_value=0, max_value=len(PROGRAM)).map(lambda cut: PROGRAM[:cut]),
))
@settings(max_examples=300, deadline=None)
def test_program_parser_total_and_positioned(text):
    """compile_program on garbage, or on any prefix of a valid program,
    parses or raises CompileError — and says where in the file."""
    try:
        compile_program(text)
    except CompileError as exc:
        assert exc.line is not None and 1 <= exc.line <= text.count("\n") + 1


_chan = st.sampled_from(["a", "bb", "chan_3"])
_vals = st.one_of(
    st.integers(-99, 99),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(['"s"', '"two words"', "true", "false"]),
)


@st.composite
def statement_text(draw):
    """Randomized well-formed statement text."""
    ch = draw(_chan)
    kind = draw(st.sampled_from(["out", "incr", "disj", "move"]))
    if kind == "out":
        v = draw(_vals)
        return f'out(main, "{ch}", {v})'
    if kind == "incr":
        d = draw(st.integers(1, 9))
        return (f'< in(main, "{ch}", ?v:int) => '
                f'out(main, "{ch}", v + {d}) >')
    if kind == "disj":
        return (f'< inp(main, "{ch}", ?v:int) => out(main, "got", v) '
                f"or true => out(main, \"idle\", 1) >")
    return f'< true => move(main, main, "{ch}", ?:int) >'


@given(statement_text())
@settings(max_examples=150, deadline=None)
def test_valid_statements_compile_and_roundtrip(src):
    ags = compile_ags(src, SPACES)
    assert compile_ags(print_ags(ags, NAMES), SPACES) == ags


@given(statement_text())
@settings(max_examples=60, deadline=None)
def test_whitespace_and_comments_invariance(src):
    """Extra whitespace/newlines/comments never change the compilation."""
    import re

    spaced = re.sub(r", ", " ,\n   ", src) + "  # trailing comment"
    assert compile_ags(spaced, SPACES) == compile_ags(src, SPACES)


def test_compiled_random_statement_executes():
    rt = LocalRuntime()
    rt.out(MAIN_TS, "a", 1)
    ags = compile_ags('< in(main, "a", ?v:int) => out(main, "a", v + 1) >',
                      SPACES)
    assert rt.execute(ags).succeeded
    assert rt.rd(MAIN_TS, "a", formal(int)) == ("a", 2)

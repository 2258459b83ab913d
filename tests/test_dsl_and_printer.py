"""The three AGS front ends (builder, DSL, text) must agree exactly."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import AGS, AGSError, Guard, LocalRuntime, Op, formal, ref
from repro.core.ags import Param
from repro.core.spaces import MAIN_TS, Resilience, Scope, TSHandle
from repro.dsl import atomic, copy, in_, inp, move, out, rd, rdp, true, var, when
from repro.lcc import compile_ags, print_ags, printable

NAMES = {MAIN_TS: "main"}
SPACES = {"main": MAIN_TS}


class TestDSL:
    def test_simple_increment_equals_builder(self):
        dsl = (
            when(in_(MAIN_TS, "count", ("old", int)))
            .do(out(MAIN_TS, "count", var("old") + 1))
            .build()
        )
        built = AGS.single(
            Guard.in_(MAIN_TS, "count", formal(int, "old")),
            [Op.out(MAIN_TS, "count", ref("old") + 1)],
        )
        assert dsl == built

    def test_equals_text_front_end(self):
        dsl = (
            when(in_(MAIN_TS, "count", ("old", int)))
            .do(out(MAIN_TS, "count", var("old") + 1))
            .build()
        )
        text = compile_ags(
            '< in(main, "count", ?old:int) => out(main, "count", old + 1) >',
            SPACES,
        )
        assert dsl == text

    def test_disjunction(self):
        stmt = (
            when(inp(MAIN_TS, "job", ("j", int)))
            .do(out(MAIN_TS, "taken", var("j")))
            .orelse(true().do(out(MAIN_TS, "idle", 1)))
            .build()
        )
        assert len(stmt.branches) == 2
        rt = LocalRuntime()
        assert rt.execute(stmt).fired == 1
        rt.out(MAIN_TS, "job", 5)
        assert rt.execute(stmt).fired == 0

    def test_anonymous_formals_by_bare_type(self):
        stmt = when(in_(MAIN_TS, "x", int)).do().build()
        rt = LocalRuntime()
        rt.out(MAIN_TS, "x", 3)
        assert rt.execute(stmt).succeeded

    def test_move_copy(self):
        rt = LocalRuntime()
        dst = rt.create_space("dst")
        rt.out(MAIN_TS, "t", 1)
        rt.execute(atomic(copy(MAIN_TS, dst, "t", int)))
        rt.execute(atomic(move(MAIN_TS, dst, "t", int)))
        assert rt.space_size(dst) == 2
        assert rt.space_size(MAIN_TS) == 0

    def test_rd_and_rdp_guards(self):
        rt = LocalRuntime()
        rt.out(MAIN_TS, "x", 1)
        assert rt.execute(when(rd(MAIN_TS, "x", int)).do().build()).succeeded
        assert rt.execute(when(rdp(MAIN_TS, "x", int)).do().build()).succeeded
        assert rt.space_size(MAIN_TS) == 1  # both left the tuple in place

    def test_out_cannot_guard(self):
        with pytest.raises(AGSError):
            when(out(MAIN_TS, "x", 1))

    def test_empty_builder_rejected(self):
        from repro.dsl import AGSBuilder

        with pytest.raises(AGSError):
            AGSBuilder().build()


class TestPrinter:
    CASES = [
        '< true => out(main, "x", 1) >',
        '< in(main, "count", ?old:int) => out(main, "count", old + 1) >',
        '< rd(main, "cfg", ?v:float) >',
        '< inp(main, "job", ?j:int) => out(main, "taken", j) '
        "or true => out(main, \"idle\", 1) >",
        '< true => move(main, main, "t", ?:int) >',
        '< in(main, "a", ?x:int) => out(main, "b", x * 2 + 1); '
        'out(main, "c", max(x, 0)) >',
        '< in(main, ?tag:str, ?v) => out(main, tag, v) >',
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_roundtrip_fixed_cases(self, src):
        ags = compile_ags(src, SPACES)
        printed = print_ags(ags, NAMES)
        again = compile_ags(printed, SPACES)
        assert again == ags, printed

    def test_negative_literal_roundtrip(self):
        ags = AGS.atomic(Op.out(MAIN_TS, "x", -5))
        again = compile_ags(print_ags(ags, NAMES), SPACES)
        assert again == ags

    def test_string_escapes_roundtrip(self):
        ags = AGS.atomic(Op.out(MAIN_TS, 'quote"back\\slash', "tab\there"))
        again = compile_ags(print_ags(ags, NAMES), SPACES)
        assert again == ags

    def test_precedence_preserved(self):
        src = '< true => out(main, "v", (1 + 2) * 3) >'
        ags = compile_ags(src, SPACES)  # folds to 9 at compile time
        again = compile_ags(print_ags(ags, NAMES), SPACES)
        assert again == ags

    def test_unfolded_precedence(self):
        ags = AGS.single(
            Guard.in_(MAIN_TS, "n", formal(int, "x")),
            [Op.out(MAIN_TS, "m", (ref("x") + 1) * 2)],
        )
        printed = print_ags(ags, NAMES)
        assert "(" in printed  # parenthesization required and produced
        assert compile_ags(printed, SPACES) == ags

    @pytest.mark.parametrize("value", [1e-07, 1e22, -2.5e-300, 1.5e16, 5e-324])
    def test_floats_repr_writes_with_an_exponent_roundtrip(self, value):
        ags = AGS.atomic(Op.out(MAIN_TS, "x", value))
        assert printable(ags, NAMES)
        assert compile_ags(print_ags(ags, NAMES), SPACES) == ags

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_floats_have_no_text(self, value):
        # the lexer has no word for them: say so, do not print `inf`
        assert not printable(AGS.atomic(Op.out(MAIN_TS, "x", value)), NAMES)

    def test_a_string_that_looks_like_an_unnamed_handle_is_printable(self):
        ags = AGS.atomic(Op.out(MAIN_TS, "see ts#1", 1))
        assert printable(ags, NAMES)
        assert compile_ags(print_ags(ags, NAMES), SPACES) == ags

    def test_a_handle_without_a_name_has_no_text(self):
        other = TSHandle(5, "other", Resilience.STABLE, Scope.SHARED)
        assert not printable(AGS.atomic(Op.out(other, "x")), NAMES)
        assert not printable(AGS.atomic(Op.out(MAIN_TS, "x", other)), NAMES)
        assert printable(AGS.atomic(Op.out(other, "x", other)), {other: "o"})

    def test_a_hole_prints_as_its_declared_name(self):
        params = ("s", "t", "d")
        plan = AGS.single(
            Guard.in_(Param(0), "k", Param(1), formal(int, "v")),
            [Op.out(MAIN_TS, Param(1), ref("v") + Param(2) * 2)],
        )
        printed = print_ags(plan, NAMES, params)
        assert printed == '< in(s, "k", t, ?v:int) => out(main, t, v + d * 2) >'
        assert compile_ags(printed, SPACES, params=params) == plan
        assert not printable(plan, NAMES)  # holes, and no names for them
        assert not printable(plan, NAMES, params[:2])


# -- property-based roundtrip ------------------------------------------------ #

_channels = st.sampled_from(["a", "b", "chan"])
_ints = st.integers(-50, 50)
_strs = st.sampled_from(["s", "hello world", 'tricky"quote'])


@st.composite
def simple_ags(draw):
    """Random increment/transfer-shaped statements over main."""
    ch = draw(_channels)
    kind = draw(st.sampled_from(["out", "incr", "probe_or_idle", "move"]))
    if kind == "out":
        val = draw(st.one_of(_ints, _strs, st.booleans()))
        return AGS.atomic(Op.out(MAIN_TS, ch, val))
    if kind == "incr":
        delta = draw(_ints)
        return AGS.single(
            Guard.in_(MAIN_TS, ch, formal(int, "v")),
            [Op.out(MAIN_TS, ch, ref("v") + delta)],
        )
    if kind == "probe_or_idle":
        from repro.core.ags import Branch

        return AGS([
            Branch(Guard.inp(MAIN_TS, ch, formal(int, "v")),
                   [Op.out(MAIN_TS, "taken", ref("v"))]),
            Branch(Guard.true(), [Op.out(MAIN_TS, "idle", draw(_ints))]),
        ])
    return AGS.atomic(Op.move(MAIN_TS, MAIN_TS, ch, formal(int)))


@given(simple_ags())
@settings(max_examples=150, deadline=None)
def test_print_compile_roundtrip_property(ags):
    printed = print_ags(ags, NAMES)
    assert compile_ags(printed, SPACES) == ags

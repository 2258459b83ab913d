"""Stress-ish edges: large values, unicode, deep nesting, wide statements."""

import pytest

from repro import AGS, Guard, LocalRuntime, Op, formal, ref
from repro.core.spaces import MAIN_TS
from repro.lcc import compile_ags


@pytest.fixture
def rt():
    return LocalRuntime()


class TestLargeValues:
    def test_megabyte_bytes_field(self, rt):
        blob = b"\xab" * (1 << 20)
        rt.out(MAIN_TS, "blob", blob)
        t = rt.in_(MAIN_TS, "blob", formal(bytes))
        assert t[1] == blob

    def test_unicode_fields(self, rt):
        s = "héllo wörld — 日本語 🧵"
        rt.out(MAIN_TS, s, s * 3)
        assert rt.in_(MAIN_TS, s, formal(str))[1] == s * 3

    def test_deeply_nested_tuple_field(self, rt):
        v = (1,)
        for _ in range(50):
            v = (v, 1)
        rt.out(MAIN_TS, "deep", v)
        assert rt.in_(MAIN_TS, "deep", formal(tuple))[1] == v

    def test_wide_tuple(self, rt):
        fields = ["wide"] + list(range(100))
        rt.out(MAIN_TS, *fields)
        pattern = ["wide"] + [formal(int)] * 100
        t = rt.in_(MAIN_TS, *pattern)
        assert list(t)[1:] == list(range(100))


class TestWideStatements:
    def test_hundred_op_body(self, rt):
        ops = [Op.out(MAIN_TS, "n", i) for i in range(100)]
        res = rt.execute(AGS.atomic(*ops))
        assert res.succeeded
        assert rt.space_size(MAIN_TS) == 100

    def test_many_branch_disjunction(self, rt):
        from repro.core.ags import Branch

        branches = [
            Branch(Guard.in_(MAIN_TS, f"chan{i}", formal(int)), [])
            for i in range(50)
        ]
        rt.out(MAIN_TS, "chan37", 1)
        res = rt.execute(AGS(branches))
        assert res.fired == 37

    def test_long_formal_chain_through_body(self, rt):
        # x0 -> x1 -> ... -> x9, each bound by a body in of the previous out
        body = [Op.out(MAIN_TS, "v0", 1)]
        for i in range(9):
            body.append(Op.in_(MAIN_TS, f"v{i}", formal(int, f"x{i}")))
            body.append(Op.out(MAIN_TS, f"v{i+1}", ref(f"x{i}") + 1))
        res = rt.execute(AGS.single(Guard.true(), body))
        assert res.succeeded
        assert rt.rd(MAIN_TS, "v9", formal(int)) == ("v9", 10)

    def test_rollback_of_hundred_op_body(self, rt):
        before = rt.state_machine.fingerprint()
        ops = [Op.out(MAIN_TS, "n", i) for i in range(100)]
        ops.append(Op.in_(MAIN_TS, "missing"))
        res = rt.execute(AGS.single(Guard.true(), ops))
        assert res.aborted
        assert rt.state_machine.fingerprint() == before


class TestLccEdges:
    def test_long_textual_statement_compiles(self, rt):
        body = "; ".join(f'out(main, "t", {i})' for i in range(60))
        ags = compile_ags(f"< true => {body} >", {"main": MAIN_TS})
        rt.execute(ags)
        assert rt.space_size(MAIN_TS) == 60

    def test_deeply_parenthesized_expression(self, rt):
        expr = "1"
        for _ in range(40):
            expr = f"({expr} + 1)"
        ags = compile_ags(f'< true => out(main, "v", {expr}) >', {"main": MAIN_TS})
        rt.execute(ags)
        assert rt.rd(MAIN_TS, "v", formal(int)) == ("v", 41)

    def test_unicode_string_literal(self, rt):
        ags = compile_ags('< true => out(main, "clé", "значение") >',
                          {"main": MAIN_TS})
        rt.execute(ags)
        assert rt.inp(MAIN_TS, "clé", "значение") is not None


class TestManyTuples:
    def test_ten_thousand_tuples_in_out(self, rt):
        for i in range(10_000):
            rt.out(MAIN_TS, "bulk", i % 97, i)
        assert rt.space_size(MAIN_TS) == 10_000
        # indexed withdraw stays fast enough to do 1000 of them
        for i in range(1000):
            assert rt.inp(MAIN_TS, "bulk", i % 97, formal(int)) is not None
        assert rt.space_size(MAIN_TS) == 9_000

    def test_move_thousand_tuples_atomically(self, rt):
        dst = rt.create_space("dst")
        for i in range(1000):
            rt.out(MAIN_TS, "m", i)
        rt.move(MAIN_TS, dst, "m", formal(int))
        assert rt.space_size(dst) == 1000
        assert rt.space_size(MAIN_TS) == 0

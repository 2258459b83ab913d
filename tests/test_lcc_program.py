"""Tests for FT-lcc program mode (space declarations + named statements)."""

import gc
import math
import tracemalloc

import pytest

from repro import AGSError, CompileError, LocalRuntime, Op, Resilience, Scope, formal
from repro.lcc import compile_program
from repro.parallel import MultiprocessRuntime

WORKER_PROGRAM = """
# the FT bag-of-tasks worker, as a compiled program
space bag     stable shared
space prog    stable shared
space results stable shared

stmt take =
    < in(bag, "task", ?t:int) => out(prog, "task", t) >

stmt finish(t, r) =
    < in(prog, "task", t) => out(results, "result", t, r) >

stmt poll =
    < inp(bag, "task", ?t:int) => out(prog, "task", t)
      or true => out(results, "idle", 1) >
"""


@pytest.fixture
def rt():
    return LocalRuntime()


class TestParsing:
    def test_declarations_collected(self):
        prog = compile_program(WORKER_PROGRAM)
        assert set(prog.space_decls) == {"bag", "prog", "results"}
        assert prog.names() == ["finish", "poll", "take"]
        assert "take" in prog
        assert prog.statement_decls["finish"].params == ["t", "r"]

    def test_space_attributes(self):
        prog = compile_program(
            "space a stable shared\n"
            "space b volatile\n"
            "space c private stable\n"
        )
        assert prog.space_decls["a"].resilience is Resilience.STABLE
        assert prog.space_decls["b"].resilience is Resilience.VOLATILE
        assert prog.space_decls["c"].scope is Scope.PRIVATE

    def test_bad_space_attribute(self):
        with pytest.raises(CompileError):
            compile_program("space a indestructible")

    def test_garbage_line_rejected(self):
        with pytest.raises(CompileError):
            compile_program("blargh foo")

    def test_unclosed_statement_rejected(self):
        with pytest.raises(CompileError):
            compile_program('stmt x = < in(main, "a"')

    def test_multiline_statement(self):
        prog = compile_program(
            "stmt multi =\n"
            "    < in(main, \"a\", ?x:int)\n"
            "      => out(main, \"b\", x + 1);\n"
            "         out(main, \"c\", x) >\n"
        )
        assert "multi" in prog

    def test_comments_and_blanks_ignored(self):
        prog = compile_program("\n# hello\n\nspace a\n# bye\n")
        assert "a" in prog.space_decls


class TestBindingAndExecution:
    def test_bind_creates_spaces(self, rt):
        prog = compile_program(WORKER_PROGRAM).bind(rt)
        assert prog.handles["bag"].stable
        rt.out(prog.handles["bag"], "task", 7)
        res = rt.execute(*prog.statement("take"))
        assert res.succeeded and res["t"] == 7
        assert rt.space_size(prog.handles["prog"]) == 1

    def test_parameterized_statement(self, rt):
        prog = compile_program(WORKER_PROGRAM).bind(rt)
        rt.out(prog.handles["prog"], "task", 7)
        res = rt.execute(*prog.statement("finish", t=7, r=49))
        assert res.succeeded
        assert rt.inp(prog.handles["results"], "result", 7, 49) is not None

    def test_full_worker_cycle(self, rt):
        prog = compile_program(WORKER_PROGRAM).bind(rt)
        bag = prog.handles["bag"]
        for i in range(5):
            rt.out(bag, "task", i)
        done = []
        while True:
            res = rt.execute(*prog.statement("poll"))
            if res.fired == 1:
                break
            t = res["t"]
            rt.execute(*prog.statement("finish", t=t, r=t * t))
            done.append(t)
        assert sorted(done) == [0, 1, 2, 3, 4]

    def test_missing_parameter_rejected(self, rt):
        prog = compile_program(WORKER_PROGRAM).bind(rt)
        with pytest.raises(CompileError):
            prog.statement("finish", t=1)

    def test_extra_parameter_rejected(self, rt):
        prog = compile_program(WORKER_PROGRAM).bind(rt)
        with pytest.raises(CompileError):
            prog.statement("take", bogus=1)

    def test_unknown_statement_rejected(self, rt):
        prog = compile_program(WORKER_PROGRAM).bind(rt)
        with pytest.raises(CompileError):
            prog.statement("frobnicate")

    def test_unbound_program_rejected(self):
        prog = compile_program(WORKER_PROGRAM)
        with pytest.raises(CompileError):
            prog.statement("take")

    def test_bind_existing_handle(self, rt):
        h = rt.create_space("mybag")
        prog = compile_program(WORKER_PROGRAM).bind(rt, existing={"bag": h})
        assert prog.handles["bag"] == h

    def test_bind_existing_attribute_mismatch(self, rt):
        h = rt.create_space("v", Resilience.VOLATILE)
        prog = compile_program("space bag stable\nstmt s = out(bag, 1)\n")
        with pytest.raises(CompileError):
            prog.bind(rt, existing={"bag": h})

    def test_bind_existing_scope_mismatch(self, rt):
        shared = rt.create_space("s")
        prog = compile_program("space mine stable private\nstmt s = out(mine, 1)\n")
        with pytest.raises(CompileError, match="private"):
            prog.bind(rt, existing={"mine": shared}, owner=42)

    def test_every_instantiation_returns_the_same_plan(self, rt):
        prog = compile_program(WORKER_PROGRAM).bind(rt)
        a = prog.statement("finish", t=1, r=1)
        b = prog.statement("finish", t=1, r=1)
        c = prog.statement("finish", t=2, r=4)
        assert a == b
        # one compiled statement whatever the values: two instantiations
        # differ only in their actuals, in declaration order
        assert a[0] is b[0] is c[0]
        assert (a[1], c[1]) == ((1, 1), (2, 4))
        assert prog.statement("finish", r=4, t=2) == c

    def test_parameter_substitution_is_identifier_safe(self, rt):
        prog = compile_program(
            'stmt s(t) = < true => out(main, "total", t) >\n'
        ).bind(rt)
        # "total" contains "t" but must not be mangled
        res = rt.execute(*prog.statement("s", t=9))
        assert res.succeeded
        assert rt.inp(rt.main_ts, "total", 9) is not None

    def test_parameter_not_substituted_inside_strings(self, rt):
        prog = compile_program(
            'stmt s(x) = < true => out(main, "x marks", x) >\n'
        ).bind(rt)
        rt.execute(*prog.statement("s", x=5))
        assert rt.inp(rt.main_ts, "x marks", 5) is not None

    def test_string_parameter_values(self, rt):
        prog = compile_program(
            'stmt s(who) = < true => out(main, "hello", who) >\n'
        ).bind(rt)
        rt.execute(*prog.statement("s", who="world"))
        assert rt.inp(rt.main_ts, "hello", "world") is not None

    def test_signature_catalog_is_whole_at_bind(self, rt):
        prog = compile_program(WORKER_PROGRAM).bind(rt)
        # no statement instantiated yet: the catalog is the program's, as
        # FT-lcc's was.  take's and poll's patterns share one signature,
        # finish's second field is a hole — a value known at run time
        assert prog.catalog.signatures() == [("str", "int"), ("str", "*")]
        prog.statement("finish", t=1, r=2)
        assert len(prog.catalog) == 2
        prog_b = compile_program(
            'stmt s = < rd(main, "x", ?a:float, ?b:str) >\n'
        ).bind(rt)
        assert ("str", "float", "str") in prog_b.catalog

    def test_private_space_binding_gets_owner(self, rt):
        prog = compile_program(
            "space mine stable private\nstmt s = out(mine, 1)\n"
        ).bind(rt, owner=42)
        view42 = rt.view(42)
        view42.execute(*prog.statement("s"))
        from repro import ScopeError

        with pytest.raises(ScopeError):
            rt.view(43).out(prog.handles["mine"], "nope")


# -- parameters are holes: a value arrives as the object it is --------------- #

VALUE_PROGRAM = """
stmt put(v) = out(main, "v", v)
stmt putin(s, v) = out(s, "v", v)
"""

#: In this order on one program: ``True == 1 == 1.0`` hash alike, so a memo
#: keyed by value hands the second and third the statement compiled for the
#: first; the rest have no text the lexer reads back (or none at all).
VALUES = [
    1, True, 1.0, 1e-07, 1e22, float("inf"), None, b"x", (1, (2, "a")),
    'a"b\n', "cl\u00e9",
]


def _same(got, want):
    """Equal and of the same type, nested tuples walked."""
    if type(got) is not type(want):
        return False
    if type(want) is tuple:
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


@pytest.fixture(params=["local", "multiproc"])
def value_rt(request):
    # the pipe is where a wrong type would also change a frame
    runtime = LocalRuntime() if request.param == "local" else MultiprocessRuntime(3)
    with runtime:
        yield runtime


class TestParametersAreHoles:
    def test_every_field_value_arrives_as_itself(self, value_rt):
        rt = value_rt
        prog = compile_program(VALUE_PROGRAM).bind(rt)
        other = rt.create_space("other")
        for value in VALUES + [other]:
            assert rt.execute(*prog.statement("put", v=value)).succeeded
            got = rt.inp(rt.main_ts, "v", formal())
            assert got is not None and _same(got[1], value), (value, got)
        assert rt.execute(*prog.statement("put", v=float("nan"))).succeeded
        got = rt.inp(rt.main_ts, "v", formal(float))
        assert type(got[1]) is float and math.isnan(got[1])

    def test_a_handle_fills_a_tuple_space_hole(self, value_rt):
        rt = value_rt
        prog = compile_program(VALUE_PROGRAM).bind(rt)
        other = rt.create_space("other")
        assert rt.execute(*prog.statement("putin", s=other, v=3)).succeeded
        assert rt.inp(other, "v", formal(int)) == ("v", 3)
        assert rt.inp(rt.main_ts, "v", formal(int)) is None
        # what fills a space's hole is checked when the statement runs, as a
        # formal-bound handle is: not a space, so it aborts — everywhere alike
        assert rt.execute(*prog.statement("putin", s=5, v=3)).aborted

    def test_a_list_is_refused_as_building_the_statement_by_hand_refuses_it(self, rt):
        prog = compile_program(VALUE_PROGRAM).bind(rt)
        with pytest.raises(AGSError) as by_hand:
            Op.out(rt.main_ts, "v", [1])
        with pytest.raises(AGSError) as refused:
            prog.statement("put", v=[1])
        assert type(refused.value) is type(by_hand.value)
        assert str(refused.value) == str(by_hand.value)

    def test_bind_is_the_one_compile(self, rt, monkeypatch):
        from repro.lcc import parser, program

        calls = {"lex": 0, "parse": 0, "compile": 0}

        def counting(stage, fn):
            def wrapper(*args, **kwargs):
                calls[stage] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(parser, "tokenize", counting("lex", parser.tokenize))
        monkeypatch.setattr(
            program, "parse_program", counting("parse", program.parse_program)
        )
        monkeypatch.setattr(
            program, "compile_tree", counting("compile", program.compile_tree)
        )
        prog = compile_program(WORKER_PROGRAM)
        assert calls == {"lex": 1, "parse": 1, "compile": 0}
        prog.bind(rt)
        assert calls == {"lex": 1, "parse": 1, "compile": len(prog.names())}
        at_bind = dict(calls)
        plan, _ = prog.statement("finish", t=0, r=0)  # first use allocates nothing new
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for t in range(10_000):
                got, actuals = prog.statement("finish", t=t, r=t * t)
                assert got is plan and actuals == (t, t * t)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == at_bind  # statement() neither lexes, parses nor compiles
        assert after - before < 64 * 1024


class TestErrorsCarryFilePositions:
    def test_syntax_error_reports_the_files_line(self):
        lines = ["# a twenty-line program"] + [
            f'stmt s{i} = out(main, "s", {i})' for i in range(2, 21)
        ]
        lines[11] = 'stmt s12 = out(main, "s" 12)'  # line 12: a comma is missing
        with pytest.raises(CompileError, match=r" at 12:\d+") as exc:
            compile_program("\n".join(lines))
        assert exc.value.line == 12

    def test_unknown_name_inside_a_statement_reports_the_files_line(self, rt):
        prog = compile_program(
            "space bag\n\nstmt ok = out(bag, 1)\n\nstmt bad =\n    out(bag, nope)\n"
        )
        with pytest.raises(CompileError, match="nope.* at 6:14"):
            prog.bind(rt)

    def test_a_formal_may_not_rebind_a_parameter(self, rt):
        prog = compile_program(
            'stmt s(t) = < in(main, "x", ?t) => out(main, "y", t) >\n'
        )
        with pytest.raises(CompileError, match="parameter"):
            prog.bind(rt)

    def test_a_parameter_may_not_shadow_a_space(self, rt):
        prog = compile_program('space bag\nstmt s(bag) = out(bag, "x", 1)\n')
        with pytest.raises(CompileError, match="parameter"):
            prog.bind(rt)
        implicit = compile_program('stmt s(main) = out(main, "x", 1)\n')
        with pytest.raises(CompileError, match="parameter"):
            implicit.bind(rt)

"""FT-lcc program mode: whole source units, not single statements.

The real FT-lcc preprocessed entire C programs: it collected every tuple
space the program used, cataloged every pattern signature, and compiled
every embedded AGS into a request block.  This module reproduces that
unit of compilation for a stand-alone source format::

    # worker.ftl — the FT bag-of-tasks worker's statements
    space bag    stable shared
    space prog   stable shared
    space results stable shared

    stmt take =
        < in(bag, "task", ?t) => out(prog, "task", t) >

    stmt finish(t, r) =
        < in(prog, "task", t) => out(results, "result", t, r) >

Declarations:

``space NAME [stable|volatile] [shared|private]``
    Declares a tuple space the program uses.  At :meth:`Program.bind`
    time each declared space is resolved against (or created in) a
    runtime.

``stmt NAME [(param, …)] = <statement>``
    A named statement.  Parameters are *holes*: each compiles to the
    :class:`~repro.core.ags.Param` the runtime's statement plans are made
    of, and :meth:`Program.statement` hands back the call's values beside
    the one compiled statement — the analog of the C expressions FT-lcc
    marshalled into a request's operand slots.

The program goes through the single-statement front end's lexer, parser
and compiler, once: :func:`compile_program` is the parse,
:meth:`Program.bind` the compile.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro._errors import CompileError
from repro.core.ags import AGS, Const
from repro.core.spaces import Scope, TSHandle
from repro.lcc.ast_nodes import SpaceNode, StmtNode
from repro.lcc.compiler import SignatureCatalog, compile_tree
from repro.lcc.parser import parse_program

__all__ = ["Program", "compile_program"]


class Program:
    """A program: declared spaces plus named statements.

    :meth:`bind` compiles every statement, once, into a statement plan;
    from then on the :class:`SignatureCatalog` holds every pattern
    signature the program uses, exactly as FT-lcc's per-program catalog
    did, and :meth:`statement` only pairs a plan with a call's actuals.
    """

    def __init__(self, declarations: list[SpaceNode | StmtNode]):
        self.space_decls = {
            d.name: d for d in declarations if isinstance(d, SpaceNode)
        }
        self.statement_decls = {
            d.name: d for d in declarations if isinstance(d, StmtNode)
        }
        self.catalog = SignatureCatalog()
        self.handles: dict[str, TSHandle] = {}
        self._plans: dict[str, AGS] | None = None  # by statement, once bound

    # ------------------------------------------------------------------ #
    # binding spaces, compiling statements
    # ------------------------------------------------------------------ #

    def bind(
        self,
        runtime: Any,
        *,
        existing: Mapping[str, TSHandle] | None = None,
        owner: int | None = None,
    ) -> "Program":
        """Resolve every declared space against *runtime*, then compile.

        Spaces named in *existing* are used as-is (their attributes must
        agree with the declaration); the rest are created.  Every
        statement is compiled here — it takes the handles — so whatever
        is wrong with one is raised here, positioned in the program's
        source, with the spaces already created.  Returns self for
        chaining.
        """
        existing = dict(existing or {})
        if "main" not in existing and "main" in self.space_decls:
            existing.setdefault("main", runtime.main_ts)
        for name, decl in self.space_decls.items():
            if name in existing:
                handle = existing[name]
                for declared, bound in (
                    (decl.resilience, handle.resilience),
                    (decl.scope, handle.scope),
                ):
                    if bound is not declared:
                        raise CompileError(
                            f"space {name!r} declared {declared.value} but "
                            f"bound to a {bound.value} space",
                            decl.line,
                            decl.column,
                        )
                self.handles[name] = handle
            else:
                self.handles[name] = runtime.create_space(
                    name, decl.resilience, decl.scope,
                    owner=owner if decl.scope is Scope.PRIVATE else None,
                )
        # spaces referenced without declaration: main is implicitly known
        self.handles.setdefault("main", runtime.main_ts)
        self._plans = {
            name: compile_tree(decl.body, self.handles, self.catalog, decl.params)
            for name, decl in self.statement_decls.items()
        }
        return self

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def statement(self, name: str, **params: Any) -> tuple[AGS, tuple]:
        """Statement *name*'s plan and this call's actuals, for ``execute``.

        ``rt.execute(*prog.statement("finish", t=7, r=49))``.  The plan is
        the same object on every call; the actuals are *params* in
        declaration order, each checked by the test ``Const`` makes — what
        writing the value into the statement would have checked — and
        otherwise taken as the object it is.
        """
        if self._plans is None:
            raise CompileError("program is not bound to tuple spaces yet")
        decl = self.statement_decls.get(name)
        if decl is None:
            raise CompileError(f"no statement named {name!r}")
        missing = [p for p in decl.params if p not in params]
        if missing:
            raise CompileError(
                f"statement {name!r} missing parameters {missing}"
            )
        extra = [p for p in params if p not in decl.params]
        if extra:
            raise CompileError(f"statement {name!r} has no parameters {extra}")
        return self._plans[name], tuple(Const(params[p]).value for p in decl.params)

    def names(self) -> list[str]:
        return sorted(self.statement_decls)

    def __contains__(self, name: str) -> bool:
        return name in self.statement_decls


def compile_program(source: str) -> Program:
    """Parse a program source into an (unbound) :class:`Program`."""
    return Program(parse_program(source))

"""FT-lcc analog: a textual front end for atomic guarded statements.

The paper's FT-Linda programs are C with embedded tuple-space syntax,
preprocessed by **FT-lcc**, which "analyzes and catalogs the signatures of
all patterns used in TS operations" and compiles each AGS into the
opcode/operand request blocks the runtime multicasts (Sec. 5.2).  This
package reproduces the pipeline for a stand-alone statement language::

    < in(main, "count", ?old:int) => out(main, "count", old + 1) >

compiled by :func:`compile_ags` into exactly the
:class:`~repro.core.ags.AGS` objects the runtimes execute — so everything
written textually behaves identically to the builder API.

Grammar sketch (see :mod:`repro.lcc.parser` for the full one)::

    program = { "space" NAME { attr }
              | "stmt" NAME [ "(" NAME { "," NAME } ")" ] "=" ags }
    ags     = "<" branch { "or" branch } ">"
    branch  = guard [ "=>" body ]
    guard   = "true" | opcall
    body    = opcall { ";" opcall }
    opcall  = NAME "(" arg { "," arg } ")"
    arg     = formal | expr
    formal  = "?" [NAME] [":" TYPE]
    expr    = literals, parameters, bound formals, + - * / % //,
              comparisons, function calls (registered deterministic
              functions)

A ``program`` (:func:`compile_program`, ``.ftl`` files) is compiled once,
at :meth:`Program.bind`; a ``stmt``'s parameters become the
:class:`~repro.core.ags.Param` holes of a statement plan, filled per call.
"""

from repro.lcc.compiler import SignatureCatalog, compile_ags, compile_op
from repro.lcc.lexer import Token, tokenize
from repro.lcc.parser import parse_ags
from repro.lcc.printer import print_ags, printable
from repro.lcc.program import Program, compile_program

__all__ = [
    "Program",
    "SignatureCatalog",
    "Token",
    "compile_ags",
    "compile_op",
    "compile_program",
    "parse_ags",
    "print_ags",
    "printable",
    "tokenize",
]

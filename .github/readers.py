"""Every definition, instrument and export in src/ has a reader.

Run from the repository root (or pass it as the one argument):

    python .github/readers.py [ROOT]

It reads the syntax tree of every Python file under src/, tests/,
benchmarks/ and examples/, plus the text of the CI workflows, and fails
with one line per name that nothing reads:

- definitions: a def or class in src/ is referenced somewhere other than
  its own body, as a name, an attribute, an imported name, a keyword
  argument or a string that is not a docstring;
- instruments: a name registered with .histogram/.counter/.gauge in src/
  appears in a string outside the module that registers it, or in a CI
  workflow (its Prometheus exports are greps there);
- exports: a name in a src/ module's __all__ (not a package __init__'s)
  is referenced by another module.  A package __init__ re-exporting it
  is not a reader;
- imports: a name a module imports is loaded in that module, as a name
  or in a string that is not a docstring.  A package __init__'s imports
  (its re-exports) and __future__ imports are exempt.

Docstrings, comments and __all__ entries never count as readers.  A name
kept without a reader on purpose goes in the allowlists below, with the
reason it stays.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOTS = ("src", "tests", "benchmarks", "examples")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Called by name from outside the program, so no source reads them.
FRAMEWORK = {"do_GET", "log_message"}  # http.server dispatches on these
# Exported on purpose, with no other module that imports them.
EXPORTS = {
    "ConsistencyReport": "the return type of check_consistency",
    "ReplayResult": "the return type of replay_dir",
    "TelemetryServer": "the return type of serve_telemetry",
}


def docstrings(tree):
    """The string constants that are docstrings (never readers)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def all_lists(tree):
    """The string constants inside `__all__ = [...]` (never readers)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                out |= {id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return out


def references(tree):
    """Yield (name, line, kind) for every reference in a module; kind is
    "name", "import" or "string"."""
    skip = docstrings(tree) | all_lists(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, "name"
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno, "name"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for word in WORD.findall(alias.name):
                    yield word, node.lineno, "import"
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skip):
            for word in WORD.findall(node.value):
                yield word, node.lineno, "string"


def unread_imports(tree):
    """Yield (name, line) for every name *tree* imports and never loads."""
    skip = docstrings(tree)
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            loaded.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skip):
            loaded.update(WORD.findall(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        yield from ((name, node.lineno) for name in bound if name not in loaded)


def check(root: pathlib.Path) -> list[str]:
    files = {p: ast.parse(p.read_text(), str(p))
             for r in ROOTS for p in sorted((root / r).rglob("*.py"))}
    workflows = "\n".join(p.read_text() for p in sorted(root.glob(".github/workflows/*.yml")))
    refs = {p: list(references(t)) for p, t in files.items()}
    src = [p for p in files if p.is_relative_to(root / "src")]
    bad = []

    # Definitions: referenced outside their own body, anywhere.
    where = {}
    for p, found in refs.items():
        for name, line, _ in found:
            where.setdefault(name, []).append((p, line))
    for p in src:
        for node in ast.walk(files[p]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or name in FRAMEWORK:
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(q != p or not first <= line <= node.end_lineno
                       for q, line in where.get(name, ())):
                bad.append(f"{p.relative_to(root)}:{node.lineno}: {name} is defined "
                           f"and nothing reads it")

    # Instruments: named in a string outside the registering module.
    strings = {}
    for p, found in refs.items():
        for name, _, kind in found:
            if kind == "string":
                strings.setdefault(name, set()).add(p)
    ci_words = set(WORD.findall(workflows))
    for p in src:
        for node in ast.walk(files[p]):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("histogram", "counter", "gauge") and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                name = node.args[0].value
                if not (strings.get(name, set()) - {p}) and name not in ci_words:
                    bad.append(f"{p.relative_to(root)}:{node.lineno}: instrument "
                               f"{name!r} is registered and nothing reads it")

    # Exports: read by another module; a package __init__'s import is not a read.
    readers = {}
    for p, found in refs.items():
        for name, _, kind in found:
            if not (kind == "import" and p.name == "__init__.py"):
                readers.setdefault(name, set()).add(p)
    for p in src:
        if p.name == "__init__.py":
            continue
        for node in files[p].body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                for c in node.value.elts:
                    if c.value not in EXPORTS and not (readers.get(c.value, set()) - {p}):
                        bad.append(f"{p.relative_to(root)}:{node.lineno}: {c.value} is in "
                                   f"__all__ and no other module reads it")

    # Imports: loaded in the module that imports them.
    for p, tree in files.items():
        if p.name != "__init__.py":
            bad += [f"{p.relative_to(root)}:{line}: {name} is imported and nothing reads it"
                    for name, line in unread_imports(tree)]
    return bad


if __name__ == "__main__":
    problems = check(pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "."))
    sys.exit("\n".join(problems) or None)

"""The CI reader check (``.github/readers.py``) catches each kind of unread name."""

from __future__ import annotations

import importlib.util
import pathlib
import textwrap

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / ".github" / "readers.py"
_spec = importlib.util.spec_from_file_location("readers", _SCRIPT)
readers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(readers)


def _tree(root: pathlib.Path, files: dict[str, str]) -> pathlib.Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def test_every_unread_name_is_reported_and_nothing_else(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": """
            from pkg.mod import Unread, used
            __all__ = ["Unread", "used"]
        """,
        "src/pkg/mod.py": '''
            """Mentions orphan and Unread, which a docstring cannot read."""
            __all__ = ["Unread", "used"]

            def used(metrics):
                metrics.counter("read_me")
                metrics.gauge("nobody_reads_me")
                return recursive(3)

            def recursive(n):
                return recursive(n - 1) if n else 0

            def orphan():
                """orphan"""
                return orphan()

            class Unread:
                pass

            x = Unread()

            import json
            from typing import Any, Callable
            y: "Any" = x
        ''',
        "tests/test_mod.py": """
            from __future__ import annotations
            from pkg import used
            import os as system
            assert used is not None and "read_me"
        """,
    })
    assert readers.check(root) == [
        "src/pkg/mod.py:13: orphan is defined and nothing reads it",
        "src/pkg/mod.py:7: instrument 'nobody_reads_me' is registered and nothing reads it",
        "src/pkg/mod.py:3: Unread is in __all__ and no other module reads it",
        "src/pkg/mod.py:22: json is imported and nothing reads it",
        "src/pkg/mod.py:23: Callable is imported and nothing reads it",
        "tests/test_mod.py:4: system is imported and nothing reads it",
    ]

"""Minimal fixed-width table rendering for benchmark reports."""

from __future__ import annotations

import os
from typing import Any, Sequence

__all__ = ["Table", "results_dir", "save_table"]


class Table:
    """A titled table accumulated row by row, rendered fixed-width."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []
        self.notes: list[str] = []

    def add(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_fmt(c) for c in cells])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        out = [self.title, "=" * len(self.title)]
        out.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        out.append(sep)
        for row in self.rows:
            out.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        for n in self.notes:
            out.append(f"  note: {n}")
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def results_dir() -> str:
    """The benchmarks/results directory (created on demand)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))))
    path = os.path.join(here, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def save_table(table: Table, name: str) -> str:
    """Print *table* and persist it under benchmarks/results/<name>.txt."""
    text = table.render()
    print()
    print(text)
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    return path

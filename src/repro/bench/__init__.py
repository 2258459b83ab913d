"""Benchmark support: table rendering and result persistence.

Every experiment module under ``benchmarks/`` renders its output through
:class:`~repro.bench.tables.Table`, so the regenerated tables read like
the paper's — one labelled row per configuration — and each full-size run
saves its table under ``benchmarks/results/`` for EXPERIMENTS.md.
"""

from repro.bench.tables import Table, results_dir, save_table

__all__ = ["Table", "results_dir", "save_table"]

"""Tests for the benchmark support library (tables, workload drivers)."""

import importlib.util
import os

import pytest

from repro.bench import Table, results_dir, save_table, tables
from repro.bench.workloads import (
    ags_latency_samples,
    incr_statement,
    make_cluster,
    mean,
    percentile,
)


class TestTable:
    def test_render_alignment(self):
        t = Table("Demo", ["name", "value"])
        t.add("short", 1)
        t.add("a-much-longer-name", 123456.789)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        # all data rows have equal width
        widths = {len(l) for l in lines[2:]}
        assert len(widths) == 1

    def test_float_formatting(self):
        t = Table("T", ["v"])
        t.add(12345.6)
        t.add(42.0)
        t.add(0.5)
        rows = t.render().splitlines()[4:]  # title, ===, header, separator
        assert "12,346" in rows[0]
        assert "42.0" in rows[1]
        assert "0.500" in rows[2]

    def test_wrong_arity_rejected(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_notes_rendered(self):
        t = Table("T", ["a"])
        t.add(1)
        t.note("context")
        assert "note: context" in t.render()

    def test_save_table_writes_file(self):
        t = Table("Saved", ["x"])
        t.add(1)
        path = save_table(t, "unit_test_artifact")
        try:
            assert os.path.exists(path)
            with open(path) as f:
                assert "Saved" in f.read()
        finally:
            os.remove(path)

    def test_results_dir_is_benchmarks_results(self):
        d = results_dir()
        assert d.endswith(os.path.join("benchmarks", "results"))
        assert os.path.isdir(d)

    def test_quick_run_writes_nothing(self, tmp_path, monkeypatch):
        """A quick-size run prints its table and leaves the committed
        full-size one alone (bench_tracing's is the cheapest, ~1 s)."""
        path = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "bench_tracing.py"
        )
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        monkeypatch.setattr(tables, "results_dir", lambda: str(tmp_path))
        bench.run_benchmark(quick=True)
        assert list(tmp_path.iterdir()) == []


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_is_nan(self):
        import math

        assert math.isnan(mean([]))

    def test_percentile(self):
        xs = [float(i) for i in range(101)]
        assert percentile(xs, 50) == 50.0
        assert percentile(xs, 90) == 90.0
        assert percentile(xs, 100) == 100.0


class TestWorkloadDrivers:
    def test_quiet_cluster_suppresses_heartbeats(self):
        c = make_cluster(3, seed=1)
        c.run(until=1_000_000)  # one virtual second
        assert c.segment.stats.frames == 0  # genuinely quiet

    def test_latency_samples_driver(self):
        c = make_cluster(3, seed=2)

        def init(view):
            yield view.out(view.main_ts, "count", 0)

        p = c.spawn(0, init)
        c.run_until(p.finished, limit=60_000_000)
        samples = ags_latency_samples(c, 1, incr_statement, 5)
        assert len(samples) == 5
        assert all(s > 0 for s in samples)

"""Unit tests for the obs metrics layer (counters, histograms, registry)."""

import threading
import time

import pytest

from repro import LocalRuntime, TimeoutError_, formal
from repro.obs.metrics import Counter, Histogram, Joint, MetricsRegistry, format_snapshot
from repro.parallel import ThreadedReplicaRuntime


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_merge(self):
        a, b = Counter("c"), Counter("c")
        a.inc(2)
        b.inc(3)
        a.merge(b)
        assert a.value == 5

    def test_concurrent_increments(self):
        c = Counter("c")

        def hammer():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestHistogram:
    def test_basic_stats(self):
        h = Histogram("lat")
        for v in (0.001, 0.002, 0.004):
            h.record(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 0.001
        assert snap["max"] == 0.004
        assert snap["mean"] == pytest.approx(0.007 / 3)

    def test_quantile_is_bucket_upper_bound(self):
        h = Histogram("lat", lo=1.0, factor=2.0, n_buckets=8)
        for _ in range(99):
            h.record(1.5)  # bucket le_2
        h.record(100.0)  # bucket le_128
        assert h.quantile(0.5) == 2.0
        assert h.quantile(0.99) == 2.0
        assert h.quantile(1.0) == 128.0

    def test_overflow_bucket(self):
        h = Histogram("lat", lo=1.0, factor=2.0, n_buckets=2)
        h.record(1e9)
        snap = h.snapshot()
        assert snap["buckets"] == {"overflow": 1}
        assert h.quantile(0.5) == 1e9  # falls back to observed max

    def test_merge(self):
        a, b = Histogram("lat"), Histogram("lat")
        a.record(0.001)
        b.record(0.1)
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 2
        assert snap["min"] == 0.001
        assert snap["max"] == 0.1

    def test_merge_rejects_different_layouts(self):
        a = Histogram("lat", lo=1.0)
        b = Histogram("lat", lo=2.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_snapshot(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0
        assert snap["clamped"] == 0

    def test_empty_mean_and_quantiles_consistent_zero(self):
        # callers must never need a count() guard: every statistic of an
        # empty histogram is exactly 0.0, at any q
        h = Histogram("lat")
        assert h.mean == 0.0
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == 0.0

    def test_empty_merge_stays_empty(self):
        a, b = Histogram("lat"), Histogram("lat")
        a.merge(b)  # empty into empty
        assert a.mean == 0.0
        assert a.quantile(0.99) == 0.0
        snap = a.snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0
        assert snap["buckets"] == {}

    def test_merging_empty_changes_nothing(self):
        a, b = Histogram("lat"), Histogram("lat")
        a.record(0.25)
        before = a.snapshot()
        a.merge(b)  # empty into non-empty: min/max/quantiles untouched
        assert a.snapshot() == before

    def test_quantile_zero_reflects_data_not_first_bound(self):
        # q=0 must resolve to a bucket that actually holds a sample, not
        # fall through to bounds[0] on an empty first bucket
        h = Histogram("lat", lo=1.0, factor=2.0, n_buckets=8)
        h.record(100.0)  # le_128 only
        assert h.quantile(0.0) == 128.0

    def test_nan_and_negative_clamped_to_zero(self):
        h = Histogram("lat")
        h.record(float("nan"))
        h.record(-1.5)
        h.record(0.25)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["clamped"] == 2
        # the sum is not poisoned: NaN/negative contribute exactly 0
        assert snap["sum"] == pytest.approx(0.25)
        assert snap["mean"] == pytest.approx(0.25 / 3)
        assert snap["min"] == 0.0
        assert snap["max"] == 0.25

    def test_merge_propagates_clamped(self):
        a, b = Histogram("lat"), Histogram("lat")
        a.record(float("nan"))
        b.record(-2.0)
        b.record(0.5)
        a.merge(b)
        assert a.snapshot()["clamped"] == 2
        assert a.snapshot()["count"] == 3


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc(3)
        reg.histogram("lat").record(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"ops": 3}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_merge_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("ops").inc(1)
        b.counter("ops").inc(2)
        b.histogram("lat", lo=0.5).record(1.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["ops"] == 3
        assert snap["histograms"]["lat"]["count"] == 1

    def test_format_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc(7)
        reg.histogram("lat").record(0.25)
        reg.histogram("idle")  # created but never recorded
        text = format_snapshot(reg.snapshot())
        assert "ops" in text and "7" in text
        assert "n=1" in text
        assert "(empty)" in text
        assert format_snapshot({"counters": {}, "histograms": {}}) == (
            "(no metrics recorded)"
        )


def _counts(snap, names):
    """How many samples each named histogram holds (0 for none yet)."""
    return {n: snap["histograms"].get(n, {}).get("count", 0) for n in names}


class TestJoint:
    """Instruments recorded at one site at one moment share one write."""

    def test_one_lock_one_write_same_views(self):
        reg, alone = MetricsRegistry(), MetricsRegistry()
        joint = Joint([reg.histogram("a"), reg.histogram("b")], [reg.counter("n")])
        joint.record((0.5, None), 100.0)  # None: no sample for "b"
        joint.record((0.25, 2.0), 101.5)
        locks = {reg.histogram("a")._lock, reg.histogram("b")._lock, reg.counter("n")._lock}
        assert locks == {joint._lock}
        alone.histogram("a").record(0.5, 100.0)
        alone.histogram("a").record(0.25, 101.5)
        alone.histogram("b").record(2.0, 101.5)
        alone.counter("n").inc(1, 100.0)
        alone.counter("n").inc(1, 101.5)
        # the windowed view reads the clock, so compare the cumulative one
        want, got = alone.snapshot(), reg.snapshot()
        assert got["counters"] == want["counters"] == {"n": 2}
        assert got["histograms"] == want["histograms"]
        reg.histogram("a").record(1.0)  # and each still records on its own
        assert reg.histogram("a").count == 3

    def test_local_runtime_writes_a_statement_once(self):
        with LocalRuntime() as rt:
            names = ("submit_to_order", "order_to_apply", "ags_e2e")
            locks = {rt.metrics.histogram(n)._lock for n in names}
            assert locks == {rt.metrics.counter("commands_submitted")._lock}
            rt.out(rt.main_ts, "a", 1)
            with pytest.raises(TimeoutError_):
                rt.in_(rt.main_ts, "never", formal(int), timeout=0.01)
            snap = rt.metrics_snapshot()
            # the timed-out statement counts and was ordered and applied;
            # it has no end-to-end latency
            assert snap["counters"]["commands_submitted"] == 2
            counts = {n: snap["histograms"][n]["count"] for n in names}
            assert counts == {"submit_to_order": 2, "order_to_apply": 2, "ags_e2e": 1}

    def test_a_parked_statement_counts_while_it_waits(self):
        with LocalRuntime() as rt:
            names = ("submit_to_order", "order_to_apply", "ags_e2e")
            got = []
            waiter = threading.Thread(
                target=lambda: got.append(rt.in_(rt.main_ts, "late", formal(int), timeout=30)),
                daemon=True,
            )
            waiter.start()
            try:
                deadline = time.monotonic() + 10
                while not rt.metrics_snapshot()["counters"].get("commands_submitted"):
                    assert time.monotonic() < deadline, "a parked in was never counted"
                    time.sleep(0.001)
                snap = rt.metrics_snapshot()
                assert _counts(snap, names) == {
                    "submit_to_order": 1, "order_to_apply": 1, "ags_e2e": 0
                }
            finally:
                rt.out(rt.main_ts, "late", 1)
                waiter.join(10)
            assert got == [("late", 1)]
            snap = rt.metrics_snapshot()
            assert snap["counters"]["commands_submitted"] == 2  # counted once each
            assert _counts(snap, names) == dict.fromkeys(names, 2)

    def test_a_statement_whose_apply_raises_is_counted(self):
        class Failing(LocalRuntime):
            def _apply(self, command):
                raise OSError("journal write failed")

        with Failing() as rt:
            with pytest.raises(OSError):
                rt.out(rt.main_ts, "a", 1)
            snap = rt.metrics_snapshot()
            assert snap["counters"]["commands_submitted"] == 1
            assert _counts(snap, ("submit_to_order", "order_to_apply", "ags_e2e")) == {
                "submit_to_order": 1, "order_to_apply": 0, "ags_e2e": 0
            }

    def test_group_collector_writes_a_completion_once(self):
        with ThreadedReplicaRuntime(2) as rt:
            group = rt.group
            assert group.metrics.histogram("order_to_apply")._lock is (
                group.metrics.histogram("ags_e2e")._lock
            )
            rt.out(rt.main_ts, "a", 1)
            assert rt.in_(rt.main_ts, "a", formal(int)) == ("a", 1)
            hists = rt.metrics_snapshot()["histograms"]
            assert hists["order_to_apply"]["count"] == hists["ags_e2e"]["count"] == 2

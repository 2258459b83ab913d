"""Live introspection: waiter registry, template profiler, stall detector.

Covers the `repro.obs.inspect` layer end to end: per-template match
counters in the store, blocked-statement and last-out bookkeeping in the
state machine, the uniform `introspection_snapshot()` shape on every
backend, stall detection (the wedged bag-of-tasks acceptance scenario),
the Prometheus text exporter, and the `cli top --once` dashboard.
"""

import threading
import time

import pytest

from repro import AGS, Guard, LocalRuntime, Op, formal
from repro.core import matching
from repro.core.ags import Op as AgsOp
from repro.core.matching import TupleStore, pattern_key
from repro.core.spaces import MAIN_TS
from repro.core.statemachine import ExecuteAGS, TSStateMachine
from repro.core.tuples import Pattern, make_tuple
from repro.obs.inspect import (
    detect_stalls,
    disable_introspection,
    empty_snapshot,
    enable_introspection,
    introspection_enabled,
    render_top,
    to_prometheus,
)
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime


@pytest.fixture
def introspect():
    """Enable stats for one test, restoring the global switch afterwards."""
    was = introspection_enabled()
    enable_introspection()
    yield
    if not was:
        disable_introspection()


@pytest.fixture(params=["local", "threaded", "multiproc"])
def rt(request, introspect):
    if request.param == "local":
        runtime = LocalRuntime()
    elif request.param == "threaded":
        runtime = ThreadedReplicaRuntime(n_replicas=3)
    else:
        runtime = MultiprocessRuntime(n_replicas=2)
    yield runtime
    shutdown = getattr(runtime, "shutdown", None)
    if shutdown is not None:
        shutdown()


def _wedge(runtime, process_id=999):
    """Park a consumer on a template nobody deposits; return the thread."""
    t = threading.Thread(
        target=lambda: runtime.in_(
            runtime.main_ts, "never-deposited", formal(int), process_id=process_id
        ),
        daemon=True,
    )
    t.start()
    return t


def _wait_for_waiter(runtime, timeout=5.0):
    """Snapshot until the wedged guard is visibly parked (replicas race)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snap = runtime.introspection_snapshot()
        if snap["sm"]["waiters"]:
            return snap
        time.sleep(0.02)
    pytest.fail("wedged waiter never appeared in the introspection snapshot")


class TestTemplateKeys:
    def test_pattern_key_renders_actuals_and_formals(self):
        p = Pattern(("task", formal(int), 3.5))
        assert pattern_key(p) == "('task', ?int, 3.5)"

    def test_op_template_key_matches_pattern_key(self):
        # static (waiter-side) and dynamic (profiler-side) renderings must
        # agree, or the dashboard could never correlate the two tables
        op = AgsOp.in_(MAIN_TS, "task", formal(int))
        assert op.template_key() == pattern_key(Pattern(("task", formal(int))))

    def test_correlation_key_wildcards(self):
        op = AgsOp.in_(MAIN_TS, formal(str), formal(int))
        ts_id, first, arity = op.correlation_key()
        assert ts_id == MAIN_TS.id
        assert first == "*"
        assert arity == 2


class TestStoreStats:
    def test_disabled_by_default_no_counting(self):
        assert not matching.STATS_ENABLED
        store = TupleStore()
        store.add(make_tuple("a", 1))
        store.find(Pattern(("a", formal(int))), remove=False)
        assert store.introspect()["templates"] == []

    def test_attempts_and_hits(self, introspect):
        store = TupleStore()
        store.add(make_tuple("a", 1))
        store.find(Pattern(("a", formal(int))), remove=False)
        store.find(Pattern(("b", formal(int))), remove=False)
        info = store.introspect()
        by_template = {t["template"]: t for t in info["templates"]}
        assert by_template["('a', ?int)"] == {
            "template": "('a', ?int)", "attempts": 1, "hits": 1,
        }
        assert by_template["('b', ?int)"]["hits"] == 0

    def test_occupancy_gauges(self, introspect):
        store = TupleStore()
        for k in range(4):
            store.add(make_tuple("a", k))
        store.add(make_tuple("other", 1, 2))
        info = store.introspect()
        assert info["tuples"] == 5
        assert info["bytes"] > 0
        assert info["buckets"] == 2
        assert info["max_bucket"] == 4
        assert info["skew"] == pytest.approx(4 / 2.5)


class TestStateMachineIntrospection:
    def test_waiter_registry_records_blocked_guards(self, introspect):
        sm = TSStateMachine()
        sm.apply(ExecuteAGS(1, 5, 42, AGS.single(Guard.in_(MAIN_TS, "x", formal(int)))))
        (w,) = sm.waiters()
        assert w["request_id"] == 1
        assert w["origin_host"] == 5
        assert w["process_id"] == 42
        assert w["blocked_for"] >= 0.0
        (entry,) = w["waiting_on"]
        assert entry["op"] == "in"
        assert entry["template"] == "('x', ?int)"
        assert entry["key"] == (MAIN_TS.id, "'x'", 2)

    def test_last_out_stamped_per_template_family(self, introspect):
        sm = TSStateMachine()
        sm.apply(ExecuteAGS(1, 0, 0, AGS.atomic(Op.out(MAIN_TS, "task", 7))))
        assert (MAIN_TS.id, "'task'", 2) in sm.last_out

    def test_clock_injection(self, introspect):
        sm = TSStateMachine()
        now = [100.0]
        sm.clock = lambda: now[0]
        sm.apply(ExecuteAGS(1, 0, 0, AGS.single(Guard.in_(MAIN_TS, "x", formal(int)))))
        now[0] = 103.5
        (w,) = sm.waiters()
        assert w["blocked_for"] == pytest.approx(3.5)

    def test_observability_metadata_not_in_snapshot(self, introspect):
        # blocked-since stamps and last_out live outside replicated state:
        # two machines that applied the same commands at different wall
        # times must still snapshot and fingerprint identically
        def build():
            sm = TSStateMachine()
            sm.apply(ExecuteAGS(1, 0, 0, AGS.atomic(Op.out(MAIN_TS, "t", 1))))
            sm.apply(
                ExecuteAGS(2, 0, 0, AGS.single(Guard.in_(MAIN_TS, "x", formal(int))))
            )
            return sm

        a = build()
        time.sleep(0.05)
        b = build()
        assert a.snapshot() == b.snapshot()
        assert a.fingerprint() == b.fingerprint()

    def test_introspection_shape(self, introspect):
        sm = TSStateMachine()
        sm.apply(ExecuteAGS(1, 0, 0, AGS.atomic(Op.out(MAIN_TS, "t", 1))))
        info = sm.introspection()
        assert info["applied"] == 1
        assert info["waiters"] == []
        (main,) = [s for s in info["spaces"] if s["id"] == MAIN_TS.id]
        assert main["name"] == "main"
        assert main["tuples"] == 1
        for age in info["last_out_age"].values():
            assert age >= 0.0


class TestStallDetector:
    def test_wedged_waiter_flagged(self, introspect):
        rt = LocalRuntime()
        _wedge(rt)
        _wait_for_waiter(rt)
        time.sleep(0.1)
        stalls = detect_stalls(rt.introspection_snapshot(), threshold=0.05)
        assert len(stalls) == 1
        assert stalls[0]["process_id"] == 999
        assert "suspected deadlock/starvation" in stalls[0]["reason"]

    def test_fed_template_not_flagged(self, introspect):
        # a blocked consumer whose template IS receiving deposits is
        # contention, not a stall — out traffic resets the verdict
        rt = LocalRuntime()
        t = threading.Thread(
            target=lambda: rt.in_(rt.main_ts, "task", 10_000, process_id=7),
            daemon=True,
        )
        t.start()
        deadline = time.monotonic() + 5.0
        while not rt.introspection_snapshot()["sm"]["waiters"]:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.1)
        rt.out(rt.main_ts, "task", 1)  # matching family, wrong value
        stalls = detect_stalls(rt.introspection_snapshot(), threshold=0.05)
        assert stalls == []

    def test_quiet_waiter_below_threshold_not_flagged(self, introspect):
        rt = LocalRuntime()
        _wedge(rt)
        snap = _wait_for_waiter(rt)
        assert detect_stalls(snap, threshold=60.0) == []


class TestBackendSnapshots:
    def test_base_runtime_default_is_empty_shape(self):
        snap = empty_snapshot("X")
        assert snap == {
            "backend": "X",
            "sm": {"applied": 0, "waiters": [], "spaces": [], "last_out_age": {}},
            "replicas": [],
            "pending": 0,
            "wal_bytes": None,
        }

    def test_wedged_waiter_visible_and_stalled(self, rt):
        # the acceptance scenario, on every backend: a consumer blocked on
        # a template nobody deposits shows up in the snapshot and is
        # flagged by the stall detector within the threshold
        rt.out(rt.main_ts, "task", 1)
        _wedge(rt)
        _wait_for_waiter(rt)
        time.sleep(0.15)
        snap = rt.introspection_snapshot()
        (w,) = snap["sm"]["waiters"]
        assert w["process_id"] == 999
        assert w["waiting_on"][0]["template"] == "('never-deposited', ?int)"
        stalls = detect_stalls(snap, threshold=0.1)
        assert [s["request_id"] for s in stalls] == [w["request_id"]]

    def test_parked_plan_is_read_through_its_actuals(self, rt):
        # a bare in_ parks as a plan whose constants are holes; what it
        # waits on is still ("task", 10000) in main — the stall detector
        # correlates on exactly that, so matching out traffic clears it
        t = threading.Thread(
            target=lambda: rt.in_(rt.main_ts, "task", 10_000, process_id=7),
            daemon=True,
        )
        t.start()
        (w,) = _wait_for_waiter(rt)["sm"]["waiters"]
        (entry,) = w["waiting_on"]
        assert entry["op"] == "in"
        assert entry["space"] == "main#0"
        assert entry["template"] == "('task', 10000)"
        assert tuple(entry["key"]) == (MAIN_TS.id, "'task'", 2)
        time.sleep(0.15)
        stalls = detect_stalls(rt.introspection_snapshot(), threshold=0.1)
        assert [s["process_id"] for s in stalls] == [7]  # nobody feeds it
        rt.out(rt.main_ts, "task", 1)  # the family it waits on, another value
        assert detect_stalls(rt.introspection_snapshot(), threshold=0.1) == []
        rt.out(rt.main_ts, "task", 10_000)
        t.join(30)
        assert not t.is_alive()

    def test_template_profile_crosses_backends(self, rt):
        rt.out(rt.main_ts, "hot", 1)
        rt.in_(rt.main_ts, "hot", formal(int))
        snap = rt.introspection_snapshot()
        (main,) = [s for s in snap["sm"]["spaces"] if s["id"] == MAIN_TS.id]
        hits = {t["template"]: t["hits"] for t in main["templates"]}
        assert hits.get("('hot', ?int)", 0) >= 1

    def test_replica_rows_report_lag_after_crash(self, introspect):
        rt = ThreadedReplicaRuntime(n_replicas=3)
        try:
            rt.out(rt.main_ts, "x", 1)
            rt.crash_replica(2)
            rt.quiesce()
            snap = rt.introspection_snapshot()
            rows = {r["id"]: r for r in snap["replicas"]}
            assert rows[2]["alive"] is False
            assert rows[2]["applied"] is None
            assert rows[0]["alive"] is True
            assert rows[0]["lag"] == 0
        finally:
            rt.shutdown()

    def test_stall_detection_survives_replica_crash(self, introspect):
        # fault injection + stall detection together: after a replica
        # fails mid-run, the surviving replicas still expose the wedged
        # waiter and the detector still fires
        rt = ThreadedReplicaRuntime(n_replicas=3)
        try:
            _wedge(rt)
            _wait_for_waiter(rt)
            rt.crash_replica(1)
            time.sleep(0.15)
            stalls = detect_stalls(rt.introspection_snapshot(), threshold=0.1)
            assert len(stalls) == 1
        finally:
            rt.shutdown()

    def test_wal_bytes_gauge(self, introspect, tmp_path):
        from repro.persist import SegmentedWALRuntime

        rt = SegmentedWALRuntime(str(tmp_path / "test.wal"), fsync=False)
        rt.out(rt.main_ts, "x", 1)
        snap = rt.introspection_snapshot()
        assert snap["wal_bytes"] > 0
        rt.close()


class TestSimCluster:
    def test_virtual_time_stall_detection(self, introspect):
        from repro.consul.cluster import SimCluster

        cl = SimCluster(n_hosts=3)

        def consumer(view):
            yield view.in_(view.main_ts, "never-deposited", formal(int))

        cl.spawn(1, consumer)
        cl.run(until=2_000_000)  # 2 virtual seconds
        snap = cl.introspection_snapshot()
        (w,) = snap["sm"]["waiters"]
        assert w["blocked_for"] == pytest.approx(2.0, abs=0.1)
        stalls = detect_stalls(snap, threshold=1.0)
        assert len(stalls) == 1

    def test_crashed_host_row(self, introspect):
        from repro.consul.cluster import SimCluster

        cl = SimCluster(n_hosts=3)

        def producer(view):
            yield view.out(view.main_ts, "t", 1)

        cl.spawn(0, producer)
        cl.run(until=500_000)
        cl.crash(2)
        cl.run(until=1_500_000)
        snap = cl.introspection_snapshot()
        rows = {r["id"]: r for r in snap["replicas"]}
        assert rows[2]["alive"] is False
        assert rows[0]["applied"] >= 1


class TestExporters:
    def _wedged_local(self):
        rt = LocalRuntime()
        rt.out(rt.main_ts, "task", 1)
        rt.in_(rt.main_ts, "task", formal(int))
        _wedge(rt)
        snap = _wait_for_waiter(rt)
        return rt, snap

    def test_prometheus_families(self, introspect):
        rt, snap = self._wedged_local()
        stalls = detect_stalls(snap, threshold=0.0)
        text = to_prometheus(snap, rt.metrics_snapshot(), stalls)
        assert text.endswith("\n")
        assert 'linda_space_tuples{space="main#0"} 0' in text
        assert "linda_waiters 1" in text
        assert "linda_stalled_waiters 1" in text
        assert "linda_pending_commands 0" in text
        assert (
            'linda_template_match_hits_total{space="main#0",'
            "template=\"('task', ?int)\"} 1" in text
        )
        # metrics histograms come through as cumulative bucket families
        assert "linda_ags_e2e_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert "linda_ags_e2e_seconds_count" in text

    def test_prometheus_escapes_label_values(self):
        snap = empty_snapshot("X")
        snap["sm"]["spaces"] = [{
            "id": 1, "name": 'we"ird\\nm', "resilience": "stable",
            "scope": "shared", "tuples": 0, "bytes": 0, "buckets": 0,
            "max_bucket": 0, "skew": 0.0,
            "templates": [{"template": '("a\\"b",)', "attempts": 1, "hits": 0}],
        }]
        text = to_prometheus(snap)
        assert '\\"' in text
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert line.count(" ") >= 1  # still "name{labels} value" shaped

    def test_render_top_shows_waiter_and_stall(self, introspect):
        rt, snap = self._wedged_local()
        stalls = detect_stalls(snap, threshold=0.0)
        frame = render_top(snap, rt.metrics_snapshot(), stalls)
        assert "backend=LocalRuntime" in frame
        assert "('never-deposited', ?int)" in frame
        assert "** STALLED **" in frame
        assert "suspected deadlock/starvation" in frame
        assert "('task', ?int)" in frame  # hot-template table


class TestCliTop:
    @pytest.mark.parametrize("backend", ["local", "threaded", "multiproc"])
    def test_top_once_shows_wedged_waiter(self, backend, capsys):
        from repro.cli import main

        code = main([
            "top", "--once", "--wedge", "--backend", backend,
            "--replicas", "2", "--ops", "8", "--clients", "2",
            "--stall-threshold", "0.01",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "('never-deposited', ?int)" in out
        assert "** STALLED **" in out

    def test_top_export_writes_prometheus(self, tmp_path, capsys):
        from repro.cli import main

        exported = tmp_path / "metrics.prom"
        code = main([
            "top", "--once", "--ops", "8", "--clients", "2",
            "--export", str(exported),
        ])
        capsys.readouterr()
        assert code == 0
        text = exported.read_text()
        assert "# TYPE linda_waiters gauge" in text
        assert "linda_pending_commands 0" in text

    def test_top_wal_gauge(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "top", "--once", "--ops", "8", "--clients", "1",
            "--wal", str(tmp_path / "t.wal"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "wal=" in out

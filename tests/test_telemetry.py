"""The networked telemetry plane: windows, alerts, events, HTTP endpoint.

Four layers under test, bottom-up:

1. the trailing-window view of the instruments (:mod:`repro.obs.metrics`)
   — per-second slices folded into a retired total at the horizon, with
   an injectable clock so expiry, idle windows, and clock jumps are exact
   rather than timing-dependent;
2. the structured event log (:mod:`repro.obs.events`) — ring semantics,
   incremental drains, the NDJSON sink;
3. the alert engine (:mod:`repro.obs.slo`) — fire/resolve hysteresis
   and each built-in rule, driven with synthetic contexts;
4. the HTTP endpoint (:mod:`repro.obs.server`) — all six routes on
   ephemeral ports under both parallel backends, including the
   200→503→200 health flip across a replica kill and recovery.

The acceptance property for windows is asserted directly: after a load
change, the windowed p99 tracks the *new* regime within one window
while the cumulative histogram's p99 still reports the old mass.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.runtime import LocalRuntime
from repro.obs.envflags import EnvFlag, int_env, telemetry_port
from repro.obs.events import EventLog, get_log
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    format_snapshot,
    merged,
)
from repro.obs.slo import AlertEngine, AlertRule, default_rules
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime

BACKENDS = [
    pytest.param(ThreadedReplicaRuntime, id="threaded"),
    pytest.param(MultiprocessRuntime, id="multiproc"),
]


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as r:
            return r.status, r.read()
    except urllib.error.HTTPError as e:
        return e.code, e.read()


# --------------------------------------------------------------------------- #
# trailing windows
# --------------------------------------------------------------------------- #


class TestSlidingHistogram:
    """The trailing-window view of :class:`Histogram` (the class keeps
    its name so the test ids do)."""

    def test_windowed_quantiles_track_load_changes(self):
        """The acceptance property: windowed p99 follows the current
        regime within one window while the cumulative p99 lags — two
        views of one instrument, one write per sample."""
        clock = FakeClock()
        h = Histogram("ags_e2e", clock=clock)
        for _ in range(100):  # slow regime
            h.record(0.1)
        clock.advance(15)  # past the 10s window
        for _ in range(100):  # fast regime
            h.record(0.001)
        w = h.window_snapshot(10)
        assert w["count"] == 100  # only the fast samples are in-window
        assert w["p99"] < 0.01  # windowed view reflects the new regime
        assert h.quantile(0.99) >= 0.05  # cumulative still lags
        # the longer windows still see both regimes
        assert h.window_snapshot(60)["count"] == 200

    def test_idle_window_reports_empty(self):
        clock = FakeClock()
        h = Histogram("h", clock=clock)
        for _ in range(10):
            h.record(0.5)
        clock.advance(11)
        w = h.window_snapshot(10)
        assert w["count"] == 0
        assert w["p99"] == 0.0 and w["rate"] == 0.0
        # the samples are still visible in the longer windows
        assert h.window_snapshot(60)["count"] == 10

    def test_ring_wraparound_recycles_slices(self):
        """A record one full horizon after the last retires the stale
        second — out of every window, still in the cumulative view."""
        clock = FakeClock()
        h = Histogram("h", clock=clock)
        h.record(1.0)
        clock.advance(300)  # exactly one horizon later
        h.record(2.0)
        w = h.window_snapshot(10)
        assert w["count"] == 1
        assert w["max"] == 2.0
        assert h.window_snapshot(300)["count"] == 1
        assert len(h._slices) == 1  # the stale second was folded away
        assert h.count == 2 and h.snapshot()["min"] == 1.0

    def test_forward_clock_jump_expires_everything(self):
        clock = FakeClock()
        h = Histogram("h", clock=clock)
        for _ in range(50):
            h.record(0.2)
        clock.advance(10_000)  # way past the whole horizon
        assert h.window_snapshot(300)["count"] == 0
        h.record(0.3)  # still usable after the jump
        assert h.window_snapshot(10)["count"] == 1
        assert h.count == 51

    def test_backward_clock_jump_ignores_future_slices(self):
        clock = FakeClock(2000.0)
        h = Histogram("h", clock=clock)
        h.record(1.0)
        clock.t = 1500.0  # clock steps backwards
        w = h.window_snapshot(300)
        assert w["count"] == 0  # the "future" slice is not counted
        h.record(0.5)  # recording at the earlier time works
        assert h.window_snapshot(10)["count"] == 1
        assert h.count == 2

    def test_per_second_rate(self):
        clock = FakeClock()
        h = Histogram("h", clock=clock)
        for i in range(10):
            for _ in range(5):
                h.record(0.01)
            clock.advance(1)
        assert h.window_snapshot(10)["rate"] == pytest.approx(5.0)

    def test_merge_same_and_different_seconds(self):
        clock = FakeClock()
        a = Histogram("h", clock=clock)
        b = Histogram("h", clock=clock)
        a.record(0.1)
        b.record(0.2)  # same second: must sum
        a.merge(b)
        assert a.window_snapshot(10)["count"] == 2
        # b2 records in a newer second: adopted under its own stamp,
        # so only it is inside the short window
        clock.advance(300)
        b2 = Histogram("h", clock=clock)
        b2.record(0.3)
        a.merge(b2)
        assert a.window_snapshot(10)["count"] == 1
        assert a.count == 3  # and the cumulative view keeps all three

    def test_merge_rejects_different_layouts(self):
        a = Histogram("a", n_buckets=30)
        b = Histogram("b", n_buckets=10)
        with pytest.raises(ValueError):
            a.merge(b)
        with pytest.raises(ValueError):  # same buckets, different span
            a.merge(Histogram("c", windows=(10, 60)))
        with pytest.raises(ValueError):
            Counter("a").merge(Counter("b", windows=(10,)))

    def test_cumulative_view_loses_nothing_at_the_horizon(self):
        """The equality the twin registries could never state: whatever
        the clock does, retired + live equals a plain bucket count of
        everything recorded."""
        import random
        from bisect import bisect_left

        rng = random.Random(7)
        clock = FakeClock()
        h = Histogram("h", clock=clock)
        c = Counter("c", clock=clock)
        plain = [0] * (len(h._bounds) + 1)
        values = []
        for _ in range(2000):
            # mostly sub-second ticks, some idle gaps, steps both ways
            clock.advance(rng.choice([0, 0.3, 1, 1, 7, 120, 301, 5000, -2, -400]))
            v = rng.choice([rng.expovariate(100.0), float("nan"), -1.0])
            h.record(v)
            c.inc(3)
            v = v if v >= 0.0 else 0.0
            values.append(v)
            plain[bisect_left(h._bounds, v)] += 1
        snap = h.snapshot()
        assert snap["count"] == 2000 and c.value == 6000
        assert snap["sum"] == pytest.approx(sum(values))
        assert snap["min"] == min(values) and snap["max"] == max(values)
        assert snap["clamped"] == sum(1 for v in values if v == 0.0)
        labels = [f"le_{b:g}" for b in h._bounds] + ["overflow"]
        assert snap["buckets"] == {
            label: n for label, n in zip(labels, plain) if n
        }
        # and the live set stayed bounded through every step
        assert len(h._slices) <= 2 * 300 and len(c._slices) <= 2 * 300


class TestSlidingRate:
    """The trailing-window view of :class:`Counter`."""

    def test_rate_over_windows(self):
        clock = FakeClock()
        r = Counter("ops", clock=clock)
        for _ in range(20):
            r.inc(3)
            clock.advance(1)
        assert r.window_count(10) == 30
        assert r.window_snapshot(10)["rate"] == pytest.approx(3.0)
        assert r.window_count(60) == 60

    def test_idle_then_reuse(self):
        clock = FakeClock()
        r = Counter("ops", clock=clock)
        r.inc(7)
        clock.advance(301)
        assert r.window_count(300) == 0
        r.inc(2)
        assert r.window_count(10) == 2
        assert r.value == 9  # the idle gap retired 7, it did not drop them

    def test_merge(self):
        clock = FakeClock()
        a = Counter("ops", clock=clock)
        b = Counter("ops", clock=clock)
        a.inc(1)
        b.inc(2)
        a.merge(b)
        assert a.window_count(10) == 3


class TestWindowRegistry:
    """``MetricsRegistry.snapshot()["windows"]``: derived, not recorded."""

    def test_snapshot_shape(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        reg.histogram("ags_e2e").record(0.05)
        reg.counter("cmds").inc(4)
        reg.histogram("idle")  # never recorded: no window entry
        snap = reg.snapshot()["windows"]
        assert set(snap["histograms"]) == {"ags_e2e"}
        assert set(snap["histograms"]["ags_e2e"]) == {"10s", "60s", "5m"}
        assert snap["rates"]["cmds"]["10s"]["count"] == 4
        for w in snap["histograms"]["ags_e2e"].values():
            assert {"count", "p50", "p99", "p999", "rate"} <= set(w)
        clock.advance(301)  # past the horizon: gone from "now", not from ever
        after = reg.snapshot()
        assert after["windows"] == {"histograms": {}, "rates": {}}
        assert after["counters"]["cmds"] == 4
        assert after["histograms"]["ags_e2e"]["count"] == 1

    def test_merge_across_replica_registries(self):
        """ShardedGroup's runtime-wide view: windows merge through
        MetricsRegistry.merge like every cumulative instrument."""
        regs = [MetricsRegistry() for _ in range(3)]
        for i, reg in enumerate(regs):
            reg.histogram("ags_e2e").record(0.01 * (i + 1))
            reg.counter("cmds").inc(10)
        snap = merged(regs).snapshot()["windows"]
        assert snap["histograms"]["ags_e2e"]["5m"]["count"] == 3
        assert snap["rates"]["cmds"]["5m"]["count"] == 30

    def test_local_runtime_has_a_now_view(self):
        """No backend is dark: LocalRuntime records through the same
        instruments, so the windowed panel and the SLO rule work there."""
        rt = LocalRuntime()
        for i in range(50):
            rt.out(rt.main_ts, "w", i)
            rt.in_(rt.main_ts, "w", i)
        snap = rt.metrics_snapshot()
        windows = snap["windows"]
        assert windows["histograms"]["ags_e2e"]["10s"]["count"] == 100
        assert windows["rates"]["commands_submitted"]["10s"]["count"] == 100
        engine = AlertEngine(
            rules=default_rules(p99_slo_s=0.0, min_samples=1), events=EventLog()
        )
        for _ in range(2):  # the rule's fire_after
            engine.evaluate({"metrics": snap})
        assert "slo_latency_burn" in engine.firing()


# --------------------------------------------------------------------------- #
# p999 satellite
# --------------------------------------------------------------------------- #


class TestP999:
    def test_histogram_snapshot_carries_p999(self):
        h = MetricsRegistry().histogram("h")
        for _ in range(100):
            h.record(0.001)
        h.record(10.0)  # ~1% outlier: beyond the p99.9 target of n=101
        snap = h.snapshot()
        assert snap["p999"] >= snap["p99"] >= snap["p50"]
        assert snap["p999"] > 1.0  # the outlier is visible at p999

    def test_format_snapshot_prints_p999(self):
        reg = MetricsRegistry()
        reg.histogram("ags_e2e").record(0.1)
        assert "p999=" in format_snapshot(reg.snapshot())


# --------------------------------------------------------------------------- #
# structured events
# --------------------------------------------------------------------------- #


class TestEventLog:
    def test_ring_capacity_and_since(self):
        log = EventLog(capacity=4)
        for i in range(6):
            log.emit("tick", n=i)
        events = log.events()
        assert len(events) == 4  # ring dropped the oldest two
        assert [e["n"] for e in events] == [2, 3, 4, 5]
        assert [e["n"] for e in log.events(since=events[1]["seq"])] == [4, 5]

    def test_ndjson_sink(self, tmp_path):
        path = tmp_path / "events.ndjson"
        log = EventLog()
        log.attach_sink(str(path))
        log.emit("chaos_kill_replica", severity="warning", replica=1)
        log.emit("auto_recovered", replica=1)
        log.detach_sink()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["kind"] for r in rows] == ["chaos_kill_replica", "auto_recovered"]
        assert rows[0]["severity"] == "warning"

    def test_trace_id_rides_along(self):
        log = EventLog()
        e = log.emit("alert_fired", trace_id="t-17", rule="stall")
        assert e["trace_id"] == "t-17"


# --------------------------------------------------------------------------- #
# alert engine
# --------------------------------------------------------------------------- #


def _ctx(replica_alive=True, stalls=(), metrics=None):
    return {
        "introspection": {"replicas": [{"id": 0, "alive": replica_alive}]},
        "metrics": metrics or {},
        "stalls": list(stalls),
    }


class TestAlertEngine:
    def test_hysteresis_fire_and_resolve(self):
        breaches = [True]
        rule = AlertRule(
            "flappy", lambda ctx: (breaches[0], "detail"),
            fire_after=2, resolve_after=2,
        )
        engine = AlertEngine(rules=[rule], events=EventLog())
        engine.evaluate({})
        assert engine.firing() == []  # one breach is not enough
        engine.evaluate({})
        assert engine.firing() == ["flappy"]
        breaches[0] = False
        engine.evaluate({})
        assert engine.firing() == ["flappy"]  # one clean is not enough
        engine.evaluate({})
        assert engine.firing() == []

    def test_transitions_emit_events_and_gauge(self):
        log = EventLog()
        metrics = MetricsRegistry()
        rule = AlertRule("down", lambda ctx: (ctx["bad"], "x"), fire_after=1,
                         resolve_after=1)
        engine = AlertEngine(rules=[rule], metrics=metrics, events=log)
        engine.evaluate({"bad": True})
        assert metrics.gauge("alerts_firing").value == 1
        engine.evaluate({"bad": False})
        assert metrics.gauge("alerts_firing").value == 0
        kinds = [e["kind"] for e in log.events()]
        assert kinds == ["alert_fired", "alert_resolved"]

    def test_broken_rule_reads_as_clean(self):
        def boom(ctx):
            raise RuntimeError("rule bug")

        engine = AlertEngine(
            rules=[AlertRule("broken", boom, fire_after=1)], events=EventLog()
        )
        engine.evaluate({})
        assert engine.firing() == []

    # ---- the built-in rules: each fires and resolves ---- #

    def test_replica_down_rule(self):
        engine = AlertEngine(rules=default_rules(), events=EventLog())
        engine.evaluate(_ctx(replica_alive=False))
        assert "replica_down" in engine.firing()  # fire_after=1: critical
        assert engine.has_critical()
        engine.evaluate(_ctx(replica_alive=True))
        assert "replica_down" not in engine.firing()

    def test_stall_rule(self):
        engine = AlertEngine(rules=default_rules(), events=EventLog())
        stall = {"request_id": 9, "blocked_for": 6.0}
        for _ in range(2):
            engine.evaluate(_ctx(stalls=[stall]))
        assert "stall" in engine.firing()
        for _ in range(2):
            engine.evaluate(_ctx())
        assert "stall" not in engine.firing()

    def test_slo_burn_rule_uses_windowed_p99(self):
        engine = AlertEngine(
            rules=default_rules(p99_slo_s=0.01), events=EventLog()
        )
        slow = {"windows": {"histograms": {"ags_e2e": {
            "10s": {"count": 100, "p99": 0.5}}}, "rates": {}}}
        fast = {"windows": {"histograms": {"ags_e2e": {
            "10s": {"count": 100, "p99": 0.001}}}, "rates": {}}}
        for _ in range(2):
            engine.evaluate(_ctx(metrics=slow))
        assert "slo_latency_burn" in engine.firing()
        for _ in range(2):
            engine.evaluate(_ctx(metrics=fast))
        assert "slo_latency_burn" not in engine.firing()
        # too few samples must not fire (idle runtime is not burning SLO)
        sparse = {"windows": {"histograms": {"ags_e2e": {
            "10s": {"count": 3, "p99": 9.9}}}, "rates": {}}}
        eng2 = AlertEngine(rules=default_rules(p99_slo_s=0.01),
                           events=EventLog())
        for _ in range(3):
            eng2.evaluate(_ctx(metrics=sparse))
        assert "slo_latency_burn" not in eng2.firing()

    def test_read_fallback_ratio_rule(self):
        def rates(fast, fb):
            return {"windows": {"histograms": {}, "rates": {
                "read_fastpath": {"10s": {"count": fast, "rate": fast / 10}},
                "read_fallback": {"10s": {"count": fb, "rate": fb / 10}},
            }}}

        engine = AlertEngine(rules=default_rules(), events=EventLog())
        for _ in range(2):
            engine.evaluate(_ctx(metrics=rates(10, 90)))
        assert "read_fallback_ratio" in engine.firing()
        for _ in range(2):
            engine.evaluate(_ctx(metrics=rates(100, 1)))
        assert "read_fallback_ratio" not in engine.firing()

    def test_backpressure_rule(self):
        engine = AlertEngine(
            rules=default_rules(backpressure_depth=100), events=EventLog()
        )
        deep = {"gauges": {"sequencer_inbox_depth": 5000}}
        shallow = {"gauges": {"sequencer_inbox_depth": 3}}
        for _ in range(2):
            engine.evaluate(_ctx(metrics=deep))
        assert "backpressure" in engine.firing()
        for _ in range(2):
            engine.evaluate(_ctx(metrics=shallow))
        assert "backpressure" not in engine.firing()

    def test_backpressure_rule_reads_journal_lag(self):
        engine = AlertEngine(
            rules=default_rules(backpressure_depth=100), events=EventLog()
        )
        behind = {"gauges": {"journal_lag": 500, "sequencer_inbox_depth": 3}}
        for _ in range(2):
            rows = engine.evaluate(_ctx(metrics=behind))
        assert "backpressure" in engine.firing()
        (row,) = [r for r in rows if r["rule"] == "backpressure"]
        assert row["detail"].startswith("journal_lag=500 over 100")


# --------------------------------------------------------------------------- #
# env flags
# --------------------------------------------------------------------------- #


class TestEnvFlags:
    def test_envflag_roundtrip(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        flag = EnvFlag("REPRO_TEST_FLAG")
        assert not flag.enabled()
        flag.enable()
        assert flag.enabled()
        import os

        assert os.environ["REPRO_TEST_FLAG"] == "1"  # children inherit
        flag.disable()
        assert not flag.enabled()
        assert "REPRO_TEST_FLAG" not in os.environ

    def test_envflag_inherited_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "1")
        assert EnvFlag("REPRO_TEST_FLAG").enabled()  # fresh child state

    def test_int_env_and_telemetry_port(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry_port() is None
        monkeypatch.setenv("REPRO_TELEMETRY", "9100")
        assert telemetry_port() == 9100
        monkeypatch.setenv("REPRO_TELEMETRY", "garbage")
        assert telemetry_port() is None
        monkeypatch.setenv("REPRO_TELEMETRY", "99999999")
        assert telemetry_port() is None
        monkeypatch.setenv("REPRO_TELEMETRY", "")
        assert int_env("REPRO_TELEMETRY") is None


# --------------------------------------------------------------------------- #
# the HTTP endpoint, on both parallel backends
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("runtime_cls", BACKENDS)
class TestTelemetryServer:
    def test_all_routes_and_health_flip(self, runtime_cls):
        from repro.obs.tracing import FlightRecorder

        rt = runtime_cls(3, tracer=FlightRecorder())
        try:
            ts = rt.create_space("t")
            for i in range(20):
                rt.out(ts, ("x", i))
                rt.rdp(ts, ("x", i))
            server = rt.serve_telemetry(0, stall_threshold=0.5)
            base = server.url

            status, body = _get(base + "/metrics")
            assert status == 200
            text = body.decode()
            assert "linda_ags_e2e_seconds" in text
            assert 'quantile="0.999"' in text
            assert "linda_window_latency_seconds" in text
            assert "linda_alert_state" in text

            status, body = _get(base + "/health")
            assert status == 200 and json.loads(body)["healthy"]

            status, body = _get(base + "/snapshot")
            assert status == 200
            snap = json.loads(body)
            assert snap["backend"] == runtime_cls.__name__
            assert "windows" in snap["metrics"]
            assert isinstance(snap["alerts"], list)

            status, body = _get(base + "/events")
            assert status == 200 and "events" in json.loads(body)

            status, body = _get(base + "/debug/trace")
            assert status == 200
            assert "traceEvents" in json.loads(body)

            status, body = _get(base + "/unknown")
            assert status == 404

            # the acceptance flip: kill → 503 (unrecovered), recover → 200
            rt.crash_replica(1)
            status, body = _get(base + "/health")
            assert status == 503
            health = json.loads(body)
            assert not health["healthy"] and health["problems"]
            rt.recover_replica(1)
            status, body = _get(base + "/health")
            assert status == 200
        finally:
            rt.shutdown()

    def test_replica_kill_lands_in_event_log(self, runtime_cls):
        before = get_log().last_seq
        rt = runtime_cls(3)
        try:
            server = rt.serve_telemetry(0)
            rt.crash_replica(2)
            status, body = _get(server.url + f"/events?since={before}")
            assert status == 200
            kinds = [e["kind"] for e in json.loads(body)["events"]]
            assert "replica_dead" in kinds
        finally:
            rt.shutdown()


class TestTelemetryServerThreadedOnly:
    """Routes exercised on one backend — behavior is backend-agnostic."""

    def test_debug_profile_returns_speedscope(self):
        rt = ThreadedReplicaRuntime(2)
        try:
            server = rt.serve_telemetry(0)
            ts = rt.create_space("p")
            rt.out(ts, ("y", 1))
            status, body = _get(server.url + "/debug/profile?seconds=0.3")
            assert status == 200
            prof = json.loads(body)
            assert prof["profiles"] and prof["shared"]["frames"]
            status, _ = _get(server.url + "/debug/profile?seconds=abc")
            assert status == 400
        finally:
            rt.shutdown()

    def test_trace_404_without_tracer(self):
        rt = ThreadedReplicaRuntime(2)  # no FlightRecorder configured
        try:
            server = rt.serve_telemetry(0)
            status, _ = _get(server.url + "/debug/trace")
            assert status == 404
        finally:
            rt.shutdown()

    def test_serve_telemetry_is_idempotent_and_closes_on_shutdown(self):
        rt = ThreadedReplicaRuntime(2)
        server = rt.serve_telemetry(0)
        assert rt.serve_telemetry(0) is server  # same endpoint back
        url = server.url
        rt.shutdown()
        assert rt._telemetry is None
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(url + "/health", timeout=2)

    def test_env_auto_serve(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        rt = ThreadedReplicaRuntime(2)
        try:
            assert rt._telemetry is not None
            status, _ = _get(rt._telemetry.url + "/health")
            assert status == 200
        finally:
            rt.shutdown()

    def test_remote_top_renders_from_snapshot(self, capsys):
        from repro import cli

        rt = ThreadedReplicaRuntime(2)
        try:
            ts = rt.create_space("t")
            rt.out(ts, ("z", 1))
            server = rt.serve_telemetry(0)
            rc = cli.main(["top", "--url", server.url, "--once"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "linda top" in out
            assert "ThreadedReplicaRuntime" in out
        finally:
            rt.shutdown()

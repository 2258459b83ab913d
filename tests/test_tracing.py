"""End-to-end AGS tracing: flight recorder, Chrome export, checker.

Covers the observability tentpole across every layer it touches: the
ring-buffer recorder itself, trace-id propagation through the sequencer
batch and the pickling multiproc transport, the Chrome trace-event
exporter, the unified sim-tracer schema, and the trace-driven
replica-consistency checker — including its ability to flag a
deliberately forked apply order in a fault-injection run.
"""

import json
import os

import pytest

from repro import formal
from repro.consul import ClusterConfig, SimCluster
from repro.core.runtime import LocalRuntime
from repro.obs.check import (
    apply_streams,
    check_apply_streams,
    check_consistency,
)
from repro.obs.tracing import (
    FlightRecorder,
    SpanEvent,
    render_events,
    to_chrome_trace,
)
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime
from repro.sim.trace import attach


def span(ts, track, name, **args):
    return SpanEvent(ts, track, "test", name, dur=0.001, args=args)


class TestFlightRecorder:
    def test_records_in_order(self):
        rec = FlightRecorder()
        for i in range(5):
            rec.record(span(float(i), "t", "e", i=i))
        assert [e.args["i"] for e in rec.events()] == [0, 1, 2, 3, 4]

    def test_ring_keeps_most_recent(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(span(float(i), "t", "e", i=i))
        assert len(rec) == 4
        assert [e.args["i"] for e in rec.events()] == [6, 7, 8, 9]

    def test_spans_filter(self):
        rec = FlightRecorder()
        rec.record_span(0.0, "a", "c", "x", trace_id=1)
        rec.record_span(1.0, "b", "c", "y", trace_id=2)
        assert len(rec.spans("x")) == 1
        assert len(rec.spans(track="b")) == 1
        assert len(rec.spans(trace_id=2)) == 1
        rec.clear()
        assert len(rec) == 0

    def test_trace_ids_unique(self):
        rec = FlightRecorder()
        ids = [rec.next_trace_id() for _ in range(100)]
        assert len(set(ids)) == 100


class TestChromeExport:
    def test_export_shape_and_units(self):
        rec = FlightRecorder()
        rec.record_span(0.5, "client:main", "client", "e2e", dur=0.25, trace_id=7)
        rec.record_span(0.6, "replica-0", "membership", "crash")  # instant
        doc = rec.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        evs = doc["traceEvents"]
        names = {e["args"]["name"] for e in evs if e["name"] == "thread_name"}
        assert names == {"client:main", "replica-0"}
        complete = [e for e in evs if e["ph"] == "X"]
        assert complete[0]["ts"] == pytest.approx(0.5e6)
        assert complete[0]["dur"] == pytest.approx(0.25e6)
        assert complete[0]["args"]["trace_id"] == 7
        instants = [e for e in evs if e["ph"] == "i"]
        assert len(instants) == 1
        json.dumps(doc)  # must be serializable as-is

    def test_track_ordering_client_sequencer_replicas(self):
        rec = FlightRecorder()
        for track in ("replica-1", "sequencer", "client:main", "replica-0"):
            rec.record_span(0.0, track, "c", "x", dur=0.1)
        doc = rec.to_chrome()
        rows = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert rows["client:main"] < rows["sequencer"] < rows["replica-0"]
        assert rows["replica-0"] < rows["replica-1"]

    def test_render_events_text(self):
        rec = FlightRecorder()
        rec.record_span(0.0, "client:main", "client", "e2e", dur=0.1, trace_id=3)
        text = render_events(rec.events())
        assert "e2e" in text and "trace=3" in text


class TestLocalRuntimeTracing:
    def test_spans_recorded_per_ags(self):
        tracer = FlightRecorder()
        rt = LocalRuntime(tracer=tracer)
        rt.out(rt.main_ts, "x", 1)
        rt.in_(rt.main_ts, "x", formal(int))
        for name in ("submit_to_order", "apply", "e2e"):
            assert len(tracer.spans(name)) == 2
        # all three spans of one AGS share its trace id
        tid = tracer.spans("e2e")[0].trace_id
        assert {e.name for e in tracer.spans(trace_id=tid)} == {
            "submit_to_order", "apply", "e2e",
        }
        assert check_consistency(tracer).ok

    def test_tracing_disabled_is_default(self):
        rt = LocalRuntime()
        rt.out(rt.main_ts, "x", 1)
        assert rt.tracer is None


class TestThreadedTracing:
    def test_spans_nest_under_one_trace(self):
        tracer = FlightRecorder()
        rt = ThreadedReplicaRuntime(3, tracer=tracer)
        try:
            rt.out(rt.main_ts, "k", 1)
            rt.in_(rt.main_ts, "k", formal(int))
            rt.quiesce()
        finally:
            rt.shutdown()
        e2e = tracer.spans("e2e")
        assert len(e2e) == 2
        for ev in e2e:
            related = tracer.spans(trace_id=ev.trace_id)
            names = sorted(e.name for e in related)
            # 3 replica applies + e2e + submit, all under one trace id
            assert names == ["apply", "apply", "apply", "e2e", "submit_to_order"]
            sub = next(e for e in related if e.name == "submit_to_order")
            # client spans nest: e2e starts with submit and outlasts it
            assert sub.ts == ev.ts and sub.dur <= ev.dur
            assert {e.track for e in related if e.name == "apply"} == {
                "replica-0", "replica-1", "replica-2",
            }
        # the batch broadcast span names the traced commands it carried
        broadcast = tracer.spans("broadcast")
        assert broadcast and all(e.track == "sequencer" for e in broadcast)
        carried = {t for e in broadcast for t in e.args["trace_ids"]}
        assert {e.trace_id for e in e2e} <= carried

    def test_consistency_ok_under_concurrency_and_crash(self):
        tracer = FlightRecorder()
        rt = ThreadedReplicaRuntime(3, tracer=tracer)
        try:
            def worker(proc):
                for i in range(10):
                    proc.out(proc.main_ts, "w", i)

            handles = [rt.eval_(worker) for _ in range(3)]
            rt.crash_replica(1)
            for h in handles:
                h.join(timeout=30)
            rt.quiesce()
        finally:
            rt.shutdown()
        report = check_consistency(tracer)
        assert report.ok, report.summary()
        # the crashed replica stops mid-stream: fewer applies, no forks
        streams = report.streams
        assert len(streams.get("replica-1", [])) <= len(streams["replica-0"])
        assert tracer.spans("crash", track="replica-1")

    def test_no_tracer_means_no_trace_ids(self):
        rt = ThreadedReplicaRuntime(2)
        try:
            rt.out(rt.main_ts, "x", 1)
            rt.quiesce()
            assert rt.tracer is None
        finally:
            rt.shutdown()


class TestMultiprocTracing:
    """Trace-id propagation across the pickling transport + export."""

    def test_trace_ids_survive_pickled_batch_blob(self, tmp_path):
        tracer = FlightRecorder()
        with MultiprocessRuntime(3, tracer=tracer) as rt:
            for k in range(5):
                rt.out(rt.main_ts, "mp", k)
            rt.in_(rt.main_ts, "mp", 0)
            rt.quiesce()
            events = tracer.events()
            # every e2e trace id comes back from all three OS processes,
            # proving the id rode inside the pickled batch blob and back
            # through each replica's result queue
            for ev in tracer.spans("e2e"):
                applies = [
                    e for e in events
                    if e.name == "apply" and e.trace_id == ev.trace_id
                ]
                assert {e.track for e in applies} == {
                    "replica-0", "replica-1", "replica-2",
                }
                rids = {e.args["request_id"] for e in applies}
                assert rids == {ev.args["request_id"]}
            report = check_consistency(tracer)
            assert report.ok and report.compared_slots >= 6
            # replicas agree on each slot, so slot->rid maps are consistent
            out = tmp_path / "trace.json"
            artifact_dir = os.environ.get("TRACE_ARTIFACT_DIR")
            if artifact_dir:
                os.makedirs(artifact_dir, exist_ok=True)
                out = os.path.join(artifact_dir, "trace_multiproc.json")
            with open(out, "w") as f:
                json.dump(to_chrome_trace(events), f)
            reloaded = json.load(open(out))
            assert any(e["ph"] == "X" for e in reloaded["traceEvents"])

    def test_checker_across_crash_and_recovery(self):
        tracer = FlightRecorder()
        with MultiprocessRuntime(3, tracer=tracer) as rt:
            for k in range(6):
                rt.out(rt.main_ts, "pre", k)
            rt.crash_replica(2)
            for k in range(6):
                rt.out(rt.main_ts, "mid", k)
            rt.recover_replica(2)
            for k in range(6):
                rt.out(rt.main_ts, "post", k)
            rt.quiesce()
            assert rt.converged()
            report = check_consistency(tracer)
            assert report.ok, report.summary()
            # the recovered replica rejoined the slot numbering where the
            # donor stood: its post-recovery slots overlap the others'
            assert tracer.spans("recover", track="replica-2")
            post = apply_streams(tracer.events())["replica-2"]
            assert post, "recovered replica recorded no applies"

    def test_forked_apply_order_is_flagged(self):
        """A synthetically reordered apply stream provably fails the check."""
        tracer = FlightRecorder()
        with MultiprocessRuntime(3, tracer=tracer) as rt:
            for k in range(8):
                rt.out(rt.main_ts, "f", k)
            rt.quiesce()
        streams = apply_streams(tracer.events())
        assert check_apply_streams(streams).ok
        # fork replica-1: swap the request ids of two adjacent slots, as a
        # replica applying commands out of order would record them
        seq = streams["replica-1"]
        (s0, r0), (s1, r1) = seq[2], seq[3]
        seq[2], seq[3] = (s0, r1), (s1, r0)
        report = check_apply_streams(streams)
        assert not report.ok
        assert any("forked" in v for v in report.violations)
        assert len(report.violations) == 2  # both touched slots disagree


class TestCheckerUnits:
    def test_empty_trace_is_vacuously_ok(self):
        report = check_consistency([])
        assert report.ok and report.compared_slots == 0
        assert "OK" in report.summary()

    def test_gaps_from_crashed_replicas_tolerated(self):
        streams = {
            "replica-0": [(1, 11), (2, 12), (3, 13), (4, 14)],
            "replica-1": [(1, 11), (2, 12)],  # crashed after slot 2
            "replica-2": [(3, 13), (4, 14)],  # recovered at slot 3
        }
        report = check_apply_streams(streams)
        assert report.ok and report.compared_slots == 4

    def test_non_increasing_slots_flagged(self):
        streams = {"replica-0": [(1, 11), (3, 13), (2, 12)]}
        report = check_apply_streams(streams)
        assert not report.ok
        assert any("not strictly increasing" in v for v in report.violations)

    def test_double_apply_flagged(self):
        streams = {"replica-0": [(1, 11), (1, 11)]}
        assert not check_apply_streams(streams).ok

    def test_report_is_truthy_iff_ok(self):
        assert check_apply_streams({"r": [(1, 1)]})
        assert not check_apply_streams({"r": [(2, 1), (1, 1)]})


class TestSimTracerUnified:
    LIMIT = 240_000_000.0

    def _run(self, n_hosts=3, seed=77, writes=4):
        c = SimCluster(ClusterConfig(n_hosts=n_hosts, seed=seed))
        tracer = attach(c, FlightRecorder())

        def writer(view, n):
            for i in range(n):
                yield view.out(view.main_ts, "s", i)

        p = c.spawn(1, writer, writes)
        c.run_until(p.finished, limit=self.LIMIT)
        c.settle(1_000_000)
        return c, tracer

    def test_sim_apply_stream_feeds_checker(self):
        c, tracer = self._run()
        report = check_consistency(tracer.events())
        assert report.ok, report.summary()
        assert set(report.streams) == {"host-0", "host-1", "host-2"}
        assert report.compared_slots >= 4

    def test_sim_chrome_export_same_schema_as_real(self):
        c, tracer = self._run()
        doc = tracer.to_chrome()
        json.dumps(doc)
        tracks = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert {"host-0", "host-1", "host-2"} <= tracks
        applies = [
            e for e in doc["traceEvents"]
            if e.get("name") == "apply" and e.get("cat") == "replica"
        ]
        assert applies and all("slot" in e["args"] for e in applies)

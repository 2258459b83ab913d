"""Tests for the simulator's protocol tracing into a FlightRecorder."""

from repro.consul import ClusterConfig, SimCluster
from repro.obs.tracing import FlightRecorder, render_events
from repro.sim.trace import attach

LIMIT = 240_000_000.0


def writer(view, n):
    for i in range(n):
        yield view.out(view.main_ts, "x", i)


def select(recorder, layer, event=None, *, host=None):
    """The recorded events of one layer (and event, and host)."""
    return [
        e for e in recorder.events()
        if e.cat == layer and event in (None, e.name)
        and host in (None, e.args["host"])
    ]


def test_trace_records_sequencing_and_delivery():
    c = SimCluster(ClusterConfig(n_hosts=3, seed=61))
    recorder = attach(c, FlightRecorder())
    p = c.spawn(1, writer, 3)
    c.run_until(p.finished, limit=LIMIT)
    sequenced = select(recorder, "ord", "sequence")
    assert len(sequenced) == 3
    # on the host's own track, at virtual µs recorded as virtual seconds
    for e in sequenced:
        assert e.track == f"host-{e.args['host']}"
        assert 0 < e.ts <= c.sim.now / 1e6
        assert "uid=" in e.args["detail"]
    # every command is delivered on all three hosts
    assert len(select(recorder, "ord", "deliver_up")) == 9
    # deliveries carry their sequence numbers and are in host-local order
    for h in range(3):
        seqnos = [
            int(str(e.args["detail"]).split("seqno=")[1].split()[0])
            for e in select(recorder, "ord", "deliver_up", host=h)
        ]
        assert seqnos == sorted(seqnos)


def test_trace_records_failure_lifecycle():
    c = SimCluster(ClusterConfig(n_hosts=3, seed=62))
    recorder = attach(c, FlightRecorder())
    p = c.spawn(0, writer, 2)
    c.run_until(p.finished, limit=LIMIT)
    c.crash(2)
    c.settle(2_000_000)
    assert len(select(recorder, "mem", "suspect")) >= 1
    assert len(select(recorder, "mem", "deliver_failed")) >= 2  # both live hosts
    c.recover(2)
    c.run_until(c.replica(2).recovered_event, limit=LIMIT)
    assert len(select(recorder, "mem", "deliver_recovered")) >= 2
    assert len(select(recorder, "replica", "maybe_send_snapshot")) >= 1
    assert len(select(recorder, "replica", "install_snapshot")) == 1


def test_trace_filters_and_render():
    c = SimCluster(ClusterConfig(n_hosts=2, seed=63))
    recorder = attach(c, FlightRecorder())
    p = c.spawn(0, writer, 2)
    c.run_until(p.finished, limit=LIMIT)
    only_h0 = recorder.spans(track="host-0")
    assert only_h0 and all(e.args["host"] == 0 for e in only_h0)
    text = render_events(select(recorder, "ord")[:5])
    assert "ord" in text
    assert len(text.splitlines()) <= 5


def test_trace_capacity_bounded():
    c = SimCluster(ClusterConfig(n_hosts=2, seed=64))
    recorder = attach(c, FlightRecorder(capacity=5))
    p = c.spawn(0, writer, 10)
    c.run_until(p.finished, limit=LIMIT)
    assert len(recorder) == 5


def test_tracing_does_not_change_behavior():
    def run(traced):
        c = SimCluster(ClusterConfig(n_hosts=3, seed=65))
        if traced:
            attach(c, FlightRecorder())
        p = c.spawn(1, writer, 5)
        c.run_until(p.finished, limit=LIMIT)
        c.settle(1_000_000)
        return c.replica(0).stable_fingerprint(), c.sim.now

    assert run(False) == run(True)

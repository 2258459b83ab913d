"""The process transport alone: PipeTransport against a recording sink.

No ReplicaGroup here — these tests drive ``send``/``broadcast`` directly
and read what the replica processes emit, so they can assert the one
property the group relies on and cannot test for itself: a write never
blocks on a replica that has stopped reading, and per-replica order
survives the detour through the backlog.

Replicas echo ``("QUERY", qid, what, arg)`` as ``("QUERY", qid,
replica_id, answer)``; an unknown *what* answers ``None``, which makes a
numbered, arbitrarily padded echo.
"""

import os
import signal
import sys
import threading
import time

import pytest

from repro import AGS, Guard, LocalRuntime, Op, formal, ref
from repro.core.ags import OpCode
from repro.core.spaces import MAIN_TS, Resilience, Scope, TSHandle
from repro.core.statemachine import CreateSpace, DestroySpace, ExecuteAGS
from repro.replication import PipeTransport, Transport

WAIT_S = 60.0


class RecordingSink:
    def __init__(self):
        self.items = []
        self._qids = {}  # replica_id -> [qid, ...] in arrival order
        self._answers = {}  # (replica_id, qid) -> answer
        self._cond = threading.Condition()

    def __call__(self, replica_id, item):
        with self._cond:
            self.items.append((replica_id, item))
            if item[0] == "QUERY":
                self._qids.setdefault(replica_id, []).append(item[1])
                self._answers[(replica_id, item[1])] = item[3]
            self._cond.notify_all()

    def echoes(self, replica_id):
        with self._cond:
            return list(self._qids.get(replica_id, []))

    def wait_echoes(self, replica_id, count, timeout=WAIT_S):
        with self._cond:
            assert self._cond.wait_for(
                lambda: len(self._qids.get(replica_id, [])) >= count, timeout
            ), f"replica {replica_id} echoed {len(self._qids.get(replica_id, []))}/{count}"

    def answer(self, replica_id, qid, timeout=WAIT_S):
        key = (replica_id, qid)
        with self._cond:
            assert self._cond.wait_for(lambda: key in self._answers, timeout), (
                f"replica {replica_id} never answered query {qid}"
            )
            return self._answers[key]


def _start(n_replicas):
    sink = RecordingSink()
    transport = PipeTransport(n_replicas)
    transport.start(sink)
    return transport, sink


def _signal(transport, replica_id, sig):
    os.kill(transport.processes[replica_id].pid, sig)


def _live_collectors(transport):
    return [t.name for t in transport._collectors if t.is_alive()]


@pytest.fixture
def one():
    transport, sink = _start(1)
    yield transport, sink
    transport.shutdown([transport.probe(0)])


@pytest.fixture
def three():
    transport, sink = _start(3)
    yield transport, sink
    for i in range(3):
        if transport.probe(i):
            _signal(transport, i, signal.SIGCONT)
    transport.shutdown([transport.probe(i) for i in range(3)])


def test_implements_the_transport_protocol():
    assert isinstance(PipeTransport(1), Transport)


def test_fifo_order_survives_backlog_and_drain(one):
    transport, sink = one
    pad = "p" * 256
    for qid in range(50):  # pipe keeping up: written inline
        transport.send(0, ("QUERY", qid, "echo", pad))
    sink.wait_echoes(0, 50)
    assert transport.depth(0) == 0

    _signal(transport, 0, signal.SIGSTOP)
    for qid in range(50, 2050):  # ~600 KiB into a 64 KiB pipe: backlogged
        transport.send(0, ("QUERY", qid, "echo", pad))
    assert transport.depth(0) > 0
    _signal(transport, 0, signal.SIGCONT)
    for qid in range(2050, 2150):  # racing the drain thread
        transport.send(0, ("QUERY", qid, "echo", pad))
    sink.wait_echoes(0, 2150)
    for qid in range(2150, 2200):  # drained: inline again
        transport.send(0, ("QUERY", qid, "echo", pad))
    sink.wait_echoes(0, 2200)

    assert sink.echoes(0) == list(range(2200))
    assert transport.depth(0) == 0


def test_concurrent_senders_never_interleave_frames(one):
    """Four senders share one lane with the drain thread while the child
    stutters: a frame written into the middle of another would desync the
    length-prefixed stream, a lost or doubled backlog entry would change
    the count, and each sender's own order must hold."""
    transport, sink = one
    senders, per_sender = 4, 500
    pad = "s" * 2048
    stop_toggling = threading.Event()

    def toggle():
        while not stop_toggling.is_set():
            _signal(transport, 0, signal.SIGSTOP)
            time.sleep(0.005)
            _signal(transport, 0, signal.SIGCONT)
            time.sleep(0.005)

    def sender(k):
        for n in range(per_sender):
            transport.send(0, ("QUERY", (k, n), "echo", pad))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        toggler = threading.Thread(target=toggle)
        threads = [threading.Thread(target=sender, args=(k,)) for k in range(senders)]
        toggler.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT_S)
            assert not t.is_alive()
        stop_toggling.set()
        toggler.join(WAIT_S)
        assert not toggler.is_alive()
    finally:
        sys.setswitchinterval(interval)
        stop_toggling.set()
    sink.wait_echoes(0, senders * per_sender)
    echoed = sink.echoes(0)
    assert len(echoed) == senders * per_sender
    for k in range(senders):
        assert [n for s, n in echoed if s == k] == list(range(per_sender))


def test_broadcast_does_not_block_on_a_stalled_replica(three):
    transport, sink = three
    alive = [True, True, True]
    payload = "x" * 1024
    _signal(transport, 1, signal.SIGSTOP)
    t0 = time.monotonic()
    for qid in range(5000):
        transport.broadcast(("QUERY", qid, "echo", payload), alive)
    elapsed = time.monotonic() - t0
    # a blocking write would hang here for good once the pipe filled
    assert elapsed < 30.0
    assert transport.depth(1) > 0
    sink.wait_echoes(0, 5000)
    sink.wait_echoes(2, 5000)
    assert sink.echoes(1) == []

    _signal(transport, 1, signal.SIGCONT)
    sink.wait_echoes(1, 5000)
    for i in range(3):
        assert sink.echoes(i) == list(range(5000))
    assert transport.depth(1) == 0


def test_item_larger_than_the_pipe_arrives_intact(one):
    transport, sink = one
    # 3 MiB: 48 pipefuls, 12 state-transfer chunks — and it comes back
    # whole on the reply pipe as well
    big = os.urandom(3 * (1 << 19)).hex()
    cmd = ExecuteAGS(1, -1, 0, AGS.atomic(Op.out(MAIN_TS, "big", big)))
    transport.send(0, ("BATCH", [cmd], None))
    transport.send(0, ("QUERY", 7, "space_tuples", MAIN_TS))
    assert sink.answer(0, 7) == [("big", big)]
    assert transport.depth(0) == 0
    # the batch's one reply frame: its answers, then the replica's applied
    # count after it — the slot a durable group's fsync must have reached
    (comps,) = [item for _rid, item in sink.items if item[0] == "COMPS"]
    _kind, answers, applied = comps
    assert [rid for rid, _result in answers] == [1]
    assert applied == 1


def test_sigkill_mid_frame_is_fenced_and_restartable(one):
    transport, sink = one
    big = "b" * (3 << 20)
    cmd = ExecuteAGS(1, -1, 0, AGS.atomic(Op.out(MAIN_TS, "big", big)))
    transport.send(0, ("BATCH", [cmd], None))
    for qid in range(20):  # the child now streams 3 MiB replies
        transport.send(0, ("QUERY", qid, "space_tuples", MAIN_TS))
    sink.answer(0, 0)
    _signal(transport, 0, signal.SIGSTOP)
    # a command frame the parent can only half write...
    transport.send(0, ("QUERY", 100, "echo", big))
    assert transport.depth(0) > 0
    # ...and a reply frame the child dies half way through
    _signal(transport, 0, signal.SIGKILL)
    transport.send(0, ("QUERY", 101, "echo", "after the kill"))

    transport.stop_replica(0)
    assert transport.depth(0) == 0
    transport.send(0, ("QUERY", 102, "echo", "to a closed lane"))
    seen = len(sink.items)

    transport.restart_replica(0)
    transport.send(0, ("QUERY", 200, "space_tuples", MAIN_TS))
    assert sink.answer(0, 200) == []  # a fresh, empty child
    assert [item[1] for _rid, item in sink.items[seen:]] == [200]


def test_restart_leaves_one_collector_per_replica(one):
    transport, sink = one
    for round_ in range(3):
        transport.stop_replica(0)
        transport.restart_replica(0)
        transport.send(0, ("QUERY", round_, "echo", None))
        sink.answer(0, round_)
    deadline = time.monotonic() + 10.0
    while len(_live_collectors(transport)) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _live_collectors(transport) == ["mp-collector-0.3"]
    assert len(transport._collectors) <= 2  # finished ones were pruned
    transport.shutdown([True])
    assert _live_collectors(transport) == []


# --------------------------------------------------------------------------- #
# statement plans on the pipe: (plan id, actuals), the definition sent once
# --------------------------------------------------------------------------- #


def _planned(client, rid, op, ts, *fields):
    """The command a runtime's bare *op* submits: its plan plus the actuals."""
    plan, actuals = client._plan(OpCode(op), (ts,), fields)
    return ExecuteAGS(rid, -1, 0, plan.ags, actuals)


def test_planned_frame_is_small_and_repeats_exactly(one):
    transport, sink = one
    client = LocalRuntime()  # only its plan cache is used
    sizes = [
        transport.broadcast(
            ("BATCH", [_planned(client, 12345 + i, "out", MAIN_TS, "ping", 5)], None),
            [True],
        )
        for i in range(3)
    ]
    assert sizes[0] > sizes[1]  # the first use carries the plan's definition
    assert sizes[1] <= 128  # 579 B before plans: the whole statement, by value
    assert sizes[2] == sizes[1]
    transport.send(0, ("QUERY", 1, "space_tuples", MAIN_TS))
    assert sink.answer(0, 1) == [("ping", 5)] * 3
    transport.send(0, ("QUERY", 2, "plans", None))
    assert sink.answer(0, 2) == 1

    # a restarted replica knows no plan: the definition rides again
    transport.stop_replica(0)
    transport.restart_replica(0)
    again = transport.broadcast(
        ("BATCH", [_planned(client, 12348, "out", MAIN_TS, "ping", 6)], None), [True]
    )
    assert again == sizes[0]
    transport.send(0, ("QUERY", 3, "space_tuples", MAIN_TS))
    assert sink.answer(0, 3) == [("ping", 6)]


def test_by_value_batch_is_no_larger_than_before_plans(one):
    """The suite's four bag statements, built by hand, travel by value."""
    transport, sink = one
    ts = MAIN_TS
    bag = [
        AGS.atomic(Op.out(ts, "task", 0, 0)),
        AGS.single(
            Guard.in_(ts, "task", formal(int, "id"), formal(int, "p")),
            [Op.out(ts, "inprog", ref("id"), 1, ref("p"))]),
        AGS.single(
            Guard.in_(ts, "inprog", 2, 1, formal(int, "p")),
            [Op.out(ts, "result", 2, ref("p") * 2)]),
        AGS.single(Guard.in_(ts, "result", formal(int), formal(int))),
    ]
    cmds = [ExecuteAGS(i + 1, -1, 0, ags) for i, ags in enumerate(bag)]
    assert transport.broadcast(("BATCH", cmds, None), [True]) <= 1517  # the parent's
    assert transport._announced == {}  # nothing here is a plan with actuals
    transport.send(0, ("QUERY", 1, "applied", None))
    assert sink.answer(0, 1) == 4


def test_plan_tables_are_bounded_by_call_site_shapes(one):
    """Spaces come and go and values never repeat; the sender's tables and
    the replica's grow with the number of shapes, nothing else."""
    transport, sink = one
    client = LocalRuntime()
    rid = iter(range(1, 1 << 30))
    for i in range(2000):
        ts = TSHandle(i + 1, f"scratch-{i}", Resilience.STABLE, Scope.SHARED)
        transport.broadcast(
            ("BATCH", [
                CreateSpace(next(rid), -1, ts.name, ts.resilience, ts.scope, None),
                _planned(client, next(rid), "out", ts, "k", i),
                _planned(client, next(rid), "in", ts, "k", formal(int)),
                DestroySpace(next(rid), -1, ts),
            ], None),
            [True],
        )
    for base in range(0, 10_000, 100):
        transport.broadcast(
            ("BATCH", [
                _planned(client, next(rid), "out", MAIN_TS, "v", v)
                for v in range(base, base + 100)
            ], None),
            [True],
        )
    transport.send(0, ("QUERY", 1, "plans", None))
    assert sink.answer(0, 1) == 2  # out/2 and in/2
    assert len(transport._announced) == 2
    assert len(client._plans) == 2
    transport.send(0, ("QUERY", 2, "space_size", MAIN_TS))
    assert sink.answer(0, 2) == 10_000
    transport.send(0, ("QUERY", 3, "introspect", None))
    assert [sp["name"] for sp in sink.answer(0, 3)["spaces"]] == ["main"]
    errors = [
        result
        for _rid, item in sink.items if item[0] == "COMPS"
        for _id, result in item[1]
        if isinstance(result, Exception) or getattr(result, "error", None)
    ]
    assert errors == []

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

import itertools
import os
import pickle
import signal
import sys
import threading
import time

import pytest

from repro import AGS, Guard, LocalRuntime, Op, formal, ref
from repro._errors import FormalBindingError
from repro.core.ags import Branch, Const, Expr, OpCode, Param
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


def _bag(ts, tid, w, p):
    """The suite's four bag statements, built by hand as a program does."""
    return [
        AGS.atomic(Op.out(ts, "task", tid, p)),
        AGS.single(
            Guard.in_(ts, "task", formal(int, "id"), formal(int, "p")),
            [Op.out(ts, "inprog", ref("id"), w, ref("p"))]),
        AGS.single(
            Guard.in_(ts, "inprog", tid, w, formal(int, "p")),
            [Op.out(ts, "result", tid, ref("p") * 2)]),
        AGS.single(Guard.in_(ts, "result", formal(int), formal(int))),
    ]


def _capture(transport):
    """Every frame the transport writes from here on, length prefix and all."""
    frames = []
    write = transport._write

    def recording(lane, frame):
        frames.append(frame)
        write(lane, frame)

    transport._write = recording
    return frames


def _shipper(transport):
    rid = itertools.count(1)

    def ship(*statements):
        """Broadcast one batch of (ags[, actuals]) statements; its frame size."""
        cmds = []
        for statement in statements:
            ags, actuals = statement if type(statement) is tuple else (statement, ())
            cmds.append(ExecuteAGS(next(rid), -1, 0, ags, actuals))
        return transport.broadcast(("BATCH", cmds, None), [True])

    return ship


def _results(sink):
    return {
        rid: result
        for _replica, item in sink.items if item[0] == "COMPS"
        for rid, result in item[1]
    }


def test_hand_built_statements_cross_as_skeleton_id_and_actuals(one):
    """No statement by value in a broadcast: after its first use a hand-built
    statement is an id and its constants, like a bare operation's plan."""
    transport, sink = one
    frames = _capture(transport)
    ship = _shipper(transport)
    first = [ship(ags) for ags in _bag(MAIN_TS, 0, 1, 5)]
    again = [ship(ags) for ags in _bag(MAIN_TS, 7, 2, 6)]  # other constants
    assert all(size <= 130 for size in again), again  # 420-675 B by value
    assert all(a > b for a, b in zip(first, again))
    for i, frame in enumerate(frames):
        blob = frame[4:]
        kind, defs, entries, _t_send = pickle.loads(blob)
        assert kind == "PLANNED"
        assert all(type(e) is tuple for e in entries)  # never an ExecuteAGS
        if i < 4:  # a definition rides once, in the first frame that uses it
            assert [plan for plan, _ags in defs] == [i]
        else:
            assert defs == []
            assert b"repro.core.ags" not in blob  # no statement, no operand
            assert b"ExecuteAGS" not in blob
    transport.send(0, ("QUERY", 1, "plans", None))
    assert sink.answer(0, 1) == len(transport._announced) == 4
    transport.send(0, ("QUERY", 2, "space_size", MAIN_TS))
    assert sink.answer(0, 2) == 0  # every task was taken, finished, collected
    results = _results(sink)
    assert all(results[rid].succeeded for rid in range(1, 9))
    assert results[2].bindings == {"id": 0, "p": 5}
    assert results[7].bindings == {"p": 6}  # its own formal; no actual leaks
    assert results[8].bindings == {}

    # a restarted replica knows no skeleton: the definitions ride again, in
    # frames byte-equal to the very first (ids are handed out afresh)
    transport.stop_replica(0)
    transport.restart_replica(0)
    assert transport._announced == {}
    del frames[8:]
    ship = _shipper(transport)
    assert [ship(ags) for ags in _bag(MAIN_TS, 0, 1, 5)] == first
    assert frames[8:] == frames[:4]
    transport.send(0, ("QUERY", 3, "plans", None))
    assert sink.answer(0, 3) == 4


def test_skeleton_tables_are_bounded_by_program_text(one):
    """1,000 rounds with constants that never repeat — at top level and
    nested in an expression: the tables grow with the shapes, not the values."""
    transport, sink = one
    ts = MAIN_TS
    # ``send`` keeps commands by value: this one never reaches the table
    seed = ExecuteAGS(10**6, -1, 0, AGS.atomic(Op.out(ts, "n", 0)))
    transport.send(0, ("BATCH", [seed], None))
    assert transport._announced == {}
    ship = _shipper(transport)
    for k in range(1000):
        ship(
            *_bag(ts, k, k % 7, 3 * k),
            AGS.single(
                Guard.in_(ts, "n", formal(int, "p")), [Op.out(ts, "n", ref("p") + k)]),
            AGS.single(
                Guard.rd(ts, "n", formal(int, "a")),
                [Op.out(ts, "m", k, Expr("max", (ref("a"), Const(500 * k))))]),
        )
    transport.send(0, ("QUERY", 1, "plans", None))
    assert sink.answer(0, 1) == 6  # the four bag statements, the two above
    assert len(transport._announced) == 6
    transport.send(0, ("QUERY", 2, "space_tuples", ts))
    tuples = sink.answer(0, 2)
    assert len(tuples) == 1001
    assert ("n", sum(range(1000))) in tuples
    assert ("m", 10, 5000) in tuples and ("m", 999, 499500) in tuples
    assert all(r.succeeded for r in _results(sink).values())


def test_values_ride_in_the_actuals_type_exact(one):
    transport, sink = one
    frames = _capture(transport)
    ship = _shipper(transport)
    ship(AGS.atomic(Op.out(MAIN_TS, 1)), AGS.atomic(Op.out(MAIN_TS, True)))
    ship(AGS.atomic(Op.out(MAIN_TS, 1.0)), AGS.atomic(Op.out(MAIN_TS, (1, (True,)))))
    assert len(transport._announced) == 1  # one skeleton: out(%0; %1)
    (_plan, skeleton), = pickle.loads(frames[0][4:])[1]
    assert skeleton == AGS.atomic(Op.out(Param(0), Param(1)))
    transport.send(0, ("QUERY", 1, "space_tuples", MAIN_TS))
    got = sink.answer(0, 1)
    assert [repr(t) for t in got] == ["(1,)", "(True,)", "(1.0,)", "((1, (True,)),)"]


def test_holes_are_numbered_after_the_statements_own(one):
    """A plan's ``Param`` s keep their indices; the constants written beside
    them by hand take the next ones."""
    transport, sink = one
    frames = _capture(transport)
    ship = _shipper(transport)

    def mixed(n):
        return AGS([
            Branch(Guard.inp(Param(0), "absent", Param(1)), [Op.out(Param(0), "never", n)]),
            Branch(
                Guard.true(),
                [Op.out(Param(0), "mixed", Param(1), Expr("add", (Param(1), Const(n))))],
            ),
        ])

    ship((mixed(7), (MAIN_TS, 100)))
    ship((mixed(8), (MAIN_TS, 200)))
    _kind, defs, entries, _t = pickle.loads(frames[0][4:])
    assert defs == [(0, AGS([
        Branch(Guard.inp(Param(0), Param(2), Param(1)), [Op.out(Param(0), Param(3), Param(4))]),
        Branch(
            Guard.true(),
            [Op.out(Param(0), Param(5), Param(1), Expr("add", (Param(1), Param(6))))],
        ),
    ]))]
    assert entries[0][5] == (MAIN_TS, 100, "absent", "never", 7, "mixed", 7)
    assert pickle.loads(frames[1][4:])[1] == []  # the same skeleton
    # given actuals that do not fill its own holes — a program error — the
    # constants have nowhere exact to go: the statement travels as written,
    # as its own skeleton, and aborts as it does by value
    ship(mixed(9), (mixed(9), (MAIN_TS, 300, "one too many")))
    _kind, defs, entries, _t = pickle.loads(frames[2][4:])
    assert defs == [(1, mixed(9))]
    assert [e[4:] for e in entries] == [(1, ()), (1, (MAIN_TS, 300, "one too many"))]
    transport.send(0, ("QUERY", 1, "space_tuples", MAIN_TS))
    assert sink.answer(0, 1) == [
        ("mixed", 100, 107), ("mixed", 200, 208), ("mixed", 300, 309)
    ]
    aborted = _results(sink)[3]
    assert isinstance(aborted.error, FormalBindingError)
    assert str(aborted.error) == "the statement was given no actual 0"


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

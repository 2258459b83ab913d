"""The replica group's components, each alone — no sleeps, no threads.

Every component is built the way the group builds it, but over a
recording fake transport and the virtual clock the ``clock`` fixture puts
behind ``repro.sync.now``, and none is ``start()``-ed: the test drives
``tick`` / ``sync`` / ``in_band`` itself.
What the whole group does under real threads is the other suites' job
(test_failure_detection, test_durability, test_read_fastpath); what is
checked here is each machine's own rule.
"""

from contextlib import nullcontext

import pytest

from repro import AGS, Op, TimeoutError_, sync
from repro.core.spaces import MAIN_TS
from repro.core.statemachine import ExecuteAGS
from repro.obs.events import get_log
from repro.obs.metrics import MetricsRegistry
from repro.persist.segments import replay_dir
from repro.replication.journal import GroupJournal, replay_commands
from repro.replication.liveness import Liveness, LivenessPolicy
from repro.replication.requests import DONOR_LOST, Requests
from repro.replication.sequencer import Sequencer
from repro.replication.worker import Replica, split_state


# every component here reads the test's clock, never the wall's
pytestmark = pytest.mark.usefixtures("clock")


class Recorder:
    """A transport that writes down what it is handed, per replica FIFO."""

    def __init__(self, n_replicas, on_broadcast=None):
        self.n_replicas = n_replicas
        self.fifos = [[] for _ in range(n_replicas)]
        self.probes = [True] * n_replicas
        self.on_broadcast = on_broadcast

    def send(self, replica_id, item):
        self.fifos[replica_id].append(item)

    def broadcast(self, item, alive):
        if self.on_broadcast is not None:
            self.on_broadcast(item)
        for fifo, up in zip(self.fifos, alive):
            if up:
                fifo.append(item)

    def probe(self, replica_id):
        return self.probes[replica_id]


def _out(rid, *fields):
    return ExecuteAGS(rid, -1, 0, AGS.atomic(Op.out(MAIN_TS, *fields)))


# ---------------------------------------------------------------------- #
# Liveness
# ---------------------------------------------------------------------- #


class _Group:
    """What Liveness is handed: a live mask and the two actions."""

    def __init__(self, n, recover_fails=False):
        self.alive = [True] * n
        self.declared = []
        self.recovered_at = []
        self.recover_fails = recover_fails

    def declare_dead(self, replica_id, cause):
        if not self.alive[replica_id]:
            return False
        self.alive[replica_id] = False
        self.declared.append((replica_id, cause))
        return True

    def recover(self, replica_id):
        self.recovered_at.append(sync.now())
        if self.recover_fails:
            raise TimeoutError_("restart failed")
        self.alive[replica_id] = True


def _liveness(group, transport, **policy):
    policy.setdefault("suspect_after", 1.0)
    return Liveness(
        LivenessPolicy(**policy), transport, group.alive,
        group.declare_dead, group.recover, MetricsRegistry(),
    )


class TestLiveness:
    def test_silence_below_the_threshold_does_nothing(self, clock):
        group, transport = _Group(2), Recorder(2)
        transport.probes = [False, False]  # even with a failing probe
        live = _liveness(group, transport)
        clock.t += 0.9
        live.tick(clock.t)
        assert group.declared == []
        # the tick's heartbeat: an `applied` query under the unregistered qid 0
        assert transport.fifos == [[("QUERY", 0, "applied", None)]] * 2

    def test_delay_is_not_death(self, clock):
        group, transport = _Group(2), Recorder(2)
        live = _liveness(group, transport)
        clock.t += 50.0  # long silent, but the probe passes
        live.tick(clock.t)
        assert group.declared == [] and group.alive == [True, True]

    def test_silent_and_failed_probe_is_declared_exactly_once(self, clock):
        group, transport = _Group(3), Recorder(3)
        live = _liveness(group, transport)
        transport.probes[1] = False
        clock.t += 1.5
        live.heard(0, clock.t)
        live.tick(clock.t)
        live.tick(clock.t)
        clock.t += 5.0
        live.heard(0, clock.t)
        live.heard(2, clock.t)
        live.tick(clock.t)
        assert group.declared == [(1, "detector")]
        # no auto_recover: nothing is ever restarted
        assert group.recovered_at == []

    def test_heard_resets_the_silence(self, clock):
        group, transport = _Group(1), Recorder(1)
        transport.probes = [False]
        live = _liveness(group, transport)
        clock.t += 0.9
        live.heard(0, clock.t)
        clock.t += 0.9
        live.tick(clock.t)
        assert group.declared == []

    def test_backoff_doubles_to_its_cap_then_gives_up(self, clock):
        group, transport = _Group(2, recover_fails=True), Recorder(2)
        live = _liveness(
            group, transport, auto_recover=True,
            backoff_initial=1.0, backoff_max=3.0, max_restarts=4,
        )
        transport.probes[1] = False
        since = get_log().last_seq
        clock.t = t_dead = 200.0
        live.tick(clock.t)
        assert group.declared == [(1, "detector")]
        # walk virtual time in small steps; every restart fails, so each
        # is rescheduled from the instant it ran
        while clock.t < t_dead + 30.0:
            clock.t += 0.25
            live.heard(0, clock.t)
            live.tick(clock.t)
        gaps = [
            b - a for a, b in zip([t_dead] + group.recovered_at, group.recovered_at)
        ]
        assert gaps == [1.0, 2.0, 3.0, 3.0]  # 1, 2, 4→3, 8→3; a fifth never runs
        gave_up = [
            e for e in get_log().events(since) if e["kind"] == "recovery_gave_up"
        ]
        assert len(gave_up) == 1 and gave_up[0]["restarts"] == 4

    def test_a_restart_that_succeeds_owes_nothing_more(self, clock):
        group, transport = _Group(2), Recorder(2)
        live = _liveness(group, transport, auto_recover=True, backoff_initial=1.0)
        transport.probes[1] = False
        clock.t += 2.0
        live.heard(0, clock.t)
        live.tick(clock.t)
        transport.probes[1] = True
        clock.t += 1.0
        live.tick(clock.t)
        assert group.alive == [True, True] and len(group.recovered_at) == 1
        live.rejoined(1, clock.t)
        clock.t += 0.5
        live.tick(clock.t)
        assert len(group.recovered_at) == 1 and group.declared == [(1, "detector")]

    def test_one_tick_judges_silence_and_restarts_by_its_own_now(self, clock):
        group, transport = _Group(2), Recorder(2)
        live = _liveness(
            group, transport, auto_recover=True, backoff_initial=5.0, backoff_max=5.0
        )
        transport.probes[1] = False
        # the clock never moves: only the ticks' own nows pass time
        live.tick(clock.t + 2.0)  # silent past suspect_after by the tick's now alone
        assert group.declared == [(1, "detector")] and group.recovered_at == []
        live.tick(clock.t + 6.9)  # due 5 s after the detecting tick's now, not yet
        assert group.recovered_at == []
        live.tick(clock.t + 7.0)
        assert len(group.recovered_at) == 1 and group.alive == [True, True]

    def test_no_backoff_restarts_in_the_detecting_tick(self, clock):
        group, transport = _Group(2), Recorder(2)
        live = _liveness(group, transport, auto_recover=True, backoff_initial=0.0)
        transport.probes[1] = False
        clock.t += 2.0
        live.tick(clock.t - 0.5)  # a now read before the clock moved on
        assert group.declared == [(1, "detector")] and len(group.recovered_at) == 1


# ---------------------------------------------------------------------- #
# GroupJournal
# ---------------------------------------------------------------------- #


def _journal(tmp_path, delivered, *, fsync=True):
    return GroupJournal(
        str(tmp_path / "journal"), fsync, MetricsRegistry(),
        lambda replica, rid, result: delivered.append((replica, rid)),
    )


class TestGroupJournal:
    def test_admit_parks_what_is_ahead_of_the_disk(self, tmp_path):
        delivered = []
        journal = _journal(tmp_path, delivered)
        journal.write([(_out(1, "a"), None), (_out(2, "b"), None)])
        assert journal.status()["journal_slot"] == 2
        assert journal.status()["durable_slot"] == 0
        assert journal.admit(2, 0, [(2, "r2")], 0.0) is False
        assert delivered == []  # parked, and not the caller's to deliver
        journal.sync()
        assert delivered == [(0, 2)]
        assert journal.status()["durable_slot"] == 2
        # at or below the durable slot: the caller delivers it, now
        assert journal.admit(2, 1, [(2, "r2")], 0.0) is True
        assert journal.admit(1, 1, [(1, "r1")], 0.0) is True
        assert delivered == [(0, 2)]
        journal.close()

    def test_one_commit_releases_in_applied_order_lane_order_kept(self, tmp_path):
        delivered = []
        journal = _journal(tmp_path, delivered)
        journal.write([(_out(i, "s", i), None) for i in (1, 2, 3)])
        # arrival order: replica 1 ran ahead, replica 0 trails; replica 0's
        # two frames at slot 3 must stay in its lane order
        assert not journal.admit(3, 1, [(30, None)], 0.0)
        assert not journal.admit(2, 1, [(20, None)], 0.0)
        assert not journal.admit(1, 0, [(10, None)], 0.0)
        assert not journal.admit(3, 0, [(31, None)], 0.0)
        assert not journal.admit(3, 0, [(32, None)], 0.0)
        journal.sync()
        assert delivered == [(0, 10), (1, 20), (1, 30), (0, 31), (0, 32)]
        assert journal._held == []
        journal.close()

    def test_a_commit_releases_only_what_it_covers(self, tmp_path):
        delivered = []
        journal = _journal(tmp_path, delivered)
        journal.write([(_out(1, "a"), None)])
        journal.admit(1, 0, [(1, None)], 0.0)
        journal.admit(2, 0, [(2, None)], 0.0)  # a slot not yet written
        journal.sync()
        assert delivered == [(0, 1)]
        journal.write([(_out(2, "b"), None)])
        journal.sync()
        assert delivered == [(0, 1), (0, 2)]
        journal.close()

    def test_barrier_times_out_with_both_slots_in_its_message(self, tmp_path):
        journal = _journal(tmp_path, [])
        journal.write([(_out(1, "a"), None)])
        journal.sync()
        journal.write([(_out(2, "b"), None), (_out(3, "c"), None)])
        with pytest.raises(TimeoutError_, match="slot 1 of 3"):
            journal.barrier(nullcontext, 0.0)
        journal.sync()
        journal.barrier(nullcontext, 0.0)
        journal.close()

    def test_fsync_off_never_parks(self, tmp_path):
        delivered = []
        journal = _journal(tmp_path, delivered, fsync=False)
        assert journal.durable and not journal.fenced
        journal.write([(_out(1, "a"), None), (_out(2, "b"), None)])
        st = journal.status()
        assert st["durable_slot"] == st["journal_slot"] == 2
        assert journal.admit(2, 0, [(2, None)], 0.0) is True
        journal.barrier(nullcontext, 0.0)
        assert journal.thread is None
        journal.close()

    def test_a_record_is_a_batch_read_back_past_the_snapshot(self, tmp_path):
        journal = _journal(tmp_path, [], fsync=False)
        journal.write([(_out(1, "a"), None), (_out(2, "b"), None)])  # defines out/2
        journal.write([(_out(3, "c"), None)])  # uses it by id only
        records = replay_dir(journal.dir).records
        assert [(slot, frame[0]) for slot, frame in records] == [
            (2, "PLANNED"), (3, "PLANNED")
        ]
        # covered at 1: the first record straddles the snapshot and yields
        # its tail; covered at 2: only the snapshot defines the plan
        for covered, tail in ((1, [(2, "b"), (3, "c")]), (2, [(3, "c")])):
            journal.compact(covered, {})
            cmds = replay_commands(replay_dir(journal.dir))
            assert [(slot, cmd.actuals[-1]) for slot, cmd in cmds] == tail
            assert [cmd.request_id for _slot, cmd in cmds] == [s for s, _ in tail]
        journal.close()

    def test_no_directory_is_inert(self):
        journal = GroupJournal(None, True, MetricsRegistry(), None)
        assert not journal.durable and not journal.fenced
        assert journal.status() is None
        journal.barrier(nullcontext, 0.0)
        assert journal.thread is None
        journal.close()


# ---------------------------------------------------------------------- #
# Requests
# ---------------------------------------------------------------------- #


class TestRequests:
    def test_ask_round_trip_and_late_answer(self):
        transport, alive = Recorder(2), [True, True]
        requests = Requests(transport, alive)
        with pytest.raises(TimeoutError_, match="did not answer"):
            requests.ask(1, "applied", timeout=0.0)
        (_tag, qid, what, arg), = transport.fifos[1]
        assert (what, arg) == ("applied", None) and qid >= 1
        assert requests._pending == {}  # the timeout reaped it
        requests.answer(qid, 1, 7)  # the late answer finds no registration
        assert requests._pending == {}

    def test_answer_wakes_the_request_it_names(self):
        transport, alive = Recorder(2), [True, True]
        requests = Requests(transport, alive)
        p = requests.open(0)
        requests.put(p, "fingerprint")
        requests.answer(p.qid, 1, "wrong replica")
        assert not p.latch.wait(0)
        requests.answer(p.qid, 0, 42)
        assert requests.wait(p, 0.0, "query") == 42
        assert requests._pending == {}

    def test_fail_raises_what_a_dead_replica_gets_up_front(self):
        transport, alive = Recorder(2), [True, True]
        requests = Requests(transport, alive)
        p = requests.open(1)
        other = requests.open(0)
        requests.fail(1)
        with pytest.raises(TimeoutError_, match="replica 1 crashed"):
            requests.wait(p, 0.0, "query")
        assert not other.latch.wait(0)
        alive[1] = False
        with pytest.raises(TimeoutError_, match="replica 1 has crashed"):
            requests.ask(1, "applied", timeout=0.0)
        assert transport.fifos[1] == []  # nothing was even sent
        requests.fail()  # the group itself failed: everyone
        with pytest.raises(TimeoutError_, match="replica 0 crashed"):
            requests.wait(other, 0.0, "query")
        assert requests._pending == {}

    def test_a_send_that_raises_leaves_no_registration(self):
        requests = Requests(Recorder(1), [True])

        def broken(replica, item):
            raise OSError("lane closed")

        with pytest.raises(OSError):
            requests.ask(0, "applied", timeout=1.0, send=broken)
        assert requests._pending == {}
        assert requests.ask(0, "applied", timeout=1.0, probe=True, send=broken) is DONOR_LOST
        assert requests._pending == {}

    def test_probe_returns_donor_lost_without_touching_the_order(self):
        transport, alive = Recorder(2), [True, True]
        requests = Requests(transport, alive)
        transport.probes[1] = False
        # no in_band, no death declaration: the caller holds the order, so
        # the wait looks at the transport probe itself — and the replica
        # stays "alive" for the caller to declare dead afterwards
        assert requests.ask(1, "xfer_begin", 1024, timeout=30.0, probe=True) is DONOR_LOST
        assert alive == [True, True] and requests._pending == {}
        assert [item[2] for item in transport.fifos[1]] == ["xfer_begin"]

    def test_tell_registers_nothing(self):
        transport = Recorder(1)
        requests = Requests(transport, [True])
        requests.tell(0, "sleep", 0.5)
        assert transport.fifos[0] == [("QUERY", 0, "sleep", 0.5)]
        assert requests._pending == {}


# ---------------------------------------------------------------------- #
# Sequencer.in_band
# ---------------------------------------------------------------------- #


class TestSequencerInBand:
    def test_send_lands_behind_the_flushed_batch_and_the_floor_counts_it(self):
        floors = []
        transport = Recorder(2, on_broadcast=lambda item: floors.append(seq.floor()))
        alive = [True, True]
        seq = Sequencer(transport, alive, MetricsRegistry())
        a, b = _out(1, "a"), _out(2, "b")
        seq.ship(a, None)
        seq.ship(b, None)
        assert transport.fifos == [[], []] and seq.floor() == 0  # pending only
        with seq.in_band() as order:
            assert seq.depth() == 0  # flushed on entry
            order.send(1, ("QUERY", 9, "applied", None))
        batch = ("BATCH", [a, b], transport.fifos[0][0][2])
        assert transport.fifos[0] == [batch]
        assert transport.fifos[1] == [batch, ("QUERY", 9, "applied", None)]
        # counted as sequenced before the broadcast returned
        assert floors == [2] and seq.floor() == 2

    def test_broadcast_under_the_order_and_the_live_mask(self):
        transport, alive = Recorder(3), [True, True, True]
        seq = Sequencer(transport, alive, MetricsRegistry())
        with seq.in_band() as order:
            alive[1] = False  # flipped under the order, as a death is
            order.broadcast([(_out(1, "x"), None)])
        assert [len(f) for f in transport.fifos] == [1, 0, 1]
        assert seq.floor() == 1
        with seq.in_band() as order:
            order.resume_at(40)
        assert seq.floor() == 40

    def test_the_journal_is_written_before_the_broadcast(self):
        calls = []

        class Journal:
            def write(self, batch):
                calls.append(("write", len(batch)))

        transport = Recorder(1, on_broadcast=lambda item: calls.append(("broadcast",)))
        seq = Sequencer(
            transport, [True], MetricsRegistry(), journal=Journal()
        )
        seq.ship(_out(1, "a"), None)
        with seq.in_band():
            pass
        assert calls == [("write", 1), ("broadcast",)]

    def test_a_dying_sequencer_tells_the_group(self):
        reasons = []
        seq = Sequencer(
            Recorder(1), [True], MetricsRegistry(), on_fatal=reasons.append
        )
        seq._pending.append(("BOOM",))
        seq.thread.stop()
        seq.thread.run()  # on this thread: dies on the malformed entry
        assert len(reasons) == 1 and "sequencer thread died" in reasons[0]


# ---------------------------------------------------------------------- #
# Replica.handle
# ---------------------------------------------------------------------- #


class TestReplica:
    @pytest.fixture
    def replica(self):
        emitted = []
        r = Replica(3, emitted.append)
        r.emitted = emitted
        return r

    def test_every_request_kind_answers_once_or_not_at_all(self, replica):
        replica.handle(("BATCH", [_out(1, "a", 1), _out(2, "b", 2)], None))
        del replica.emitted[:]
        answering = {
            "fingerprint": None, "space_size": MAIN_TS, "space_tuples": MAIN_TS,
            "applied": None, "blocked": None, "introspect": None,
            "snapshot": None, "xfer_begin": 64, "xfer_chunk": (100, 0),
            "install_done": (77, 1), "no-such-kind": None,
        }
        for qid, (what, arg) in enumerate(answering.items(), start=100):
            before = len(replica.emitted)
            assert replica.handle(("QUERY", qid, what, arg)) is True
            (answer,) = replica.emitted[before:]
            assert answer[:3] == ("QUERY", qid, 3), what
        answers = {a[1]: a[3] for a in replica.emitted}
        assert answers[101] == 2 and answers[103] == 2
        assert answers[102] == [("a", 1), ("b", 2)]
        assert answers[110] is None  # unknown kinds answer None
        del replica.emitted[:]
        one_way = {
            "xfer_end": 107, "install_chunk": (5, 0, b"x"), "sleep": 0.0,
        }
        for what, arg in one_way.items():
            assert replica.handle(("QUERY", 0, what, arg)) is True
        assert replica.emitted == []

    def test_heartbeat_is_an_applied_query_under_qid_zero(self, replica):
        replica.handle(("QUERY", 0, "applied", None))
        assert replica.emitted == [("QUERY", 0, 3, 0)]

    def test_transfer_out_and_install_in(self, replica):
        replica.handle(("BATCH", [_out(i, "t", i) for i in range(1, 30)], None))
        replica.handle(("QUERY", 5, "xfer_begin", 128))
        _t, xid, total, n_bytes, applied = replica.emitted[-1][3]
        assert (xid, applied) == (5, 29) and total > 1
        chunks = []
        for idx in range(total):
            replica.handle(("QUERY", 6, "xfer_chunk", (xid, idx)))
            chunks.append(replica.emitted[-1][3])
        assert sum(map(len, chunks)) == n_bytes
        replica.handle(("QUERY", 0, "xfer_end", xid))
        replica.handle(("QUERY", 7, "xfer_chunk", (xid, 0)))
        assert replica.emitted[-1] == ("QUERY", 7, 3, None)  # forgotten

        fresh = Replica(1, replica.emitted.append)
        for idx, chunk in enumerate(chunks):
            fresh.handle(("QUERY", 0, "install_chunk", (9, idx, chunk)))
        fresh.handle(("QUERY", 9, "install_done", (9, total)))
        assert replica.emitted[-1] == ("QUERY", 9, 1, "installed")
        assert fresh.applied == 29
        assert fresh.sm.fingerprint() == replica.sm.fingerprint()

    def test_install_with_a_missing_chunk_is_refused_and_still_answered(self, replica):
        chunks = split_state(replica.sm.snapshot(), 12, 16)
        assert len(chunks) > 2
        for idx, chunk in enumerate(chunks):
            if idx != 1:
                replica.handle(("QUERY", 0, "install_chunk", (4, idx, chunk)))
        replica.handle(("QUERY", 8, "install_done", (4, len(chunks))))
        assert replica.emitted == [("QUERY", 8, 3, ("incomplete", [1]))]
        assert replica.applied == 0  # nothing torn was installed

    def test_reads_park_on_their_floor(self, replica):
        from repro import Guard, formal

        read = ExecuteAGS(
            50, -1, 0, AGS.single(Guard.rdp(MAIN_TS, "k", formal(int)))
        )
        replica.handle(("READS", [(1, read)]))
        assert replica.emitted == []  # applied 0 < floor 1
        replica.handle(("BATCH", [_out(1, "k", 9)], None))
        kinds = [item[0] for item in replica.emitted]
        assert kinds == ["COMPS", "COMPS"]
        (rid, result), = replica.emitted[1][1]
        assert rid == 50 and result.succeeded and replica.emitted[1][2] == 1

    def test_stop_and_halt_end_the_loop(self):
        emitted, halted = [], []
        replica = Replica(0, emitted.append, lambda: bool(halted))
        assert replica.handle(("STOP",)) is False
        halted.append(True)
        assert replica.handle(("BATCH", [_out(1, "a")], None)) is False
        assert replica.applied == 0 and emitted == []

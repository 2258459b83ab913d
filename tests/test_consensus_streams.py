"""Tests for the consensus and ordered-stream paradigms."""

import threading

import pytest

from repro import LocalRuntime
from repro.paradigms import Consensus, TupleStream


@pytest.fixture
def rt():
    return LocalRuntime()


class TestConsensus:
    def test_single_proposer_decides_own_value(self, rt):
        c = Consensus(rt.main_ts, "k")
        assert c.agree(rt, pid=1, value="alpha") == "alpha"
        assert c.decided_value(rt) == "alpha"

    def test_agreement_among_concurrent_proposers(self, rt):
        c = Consensus(rt.main_ts, "k")
        decided = {}
        barrier = threading.Barrier(5)

        def participant(proc, pid):
            barrier.wait()
            decided[pid] = c.agree(proc, pid, f"value-{pid}")

        handles = [rt.eval_(participant, i) for i in range(5)]
        for h in handles:
            h.join(timeout=30)
        values = set(decided.values())
        assert len(values) == 1  # agreement
        assert values.pop() in {f"value-{i}" for i in range(5)}  # validity

    def test_late_joiner_sees_decision(self, rt):
        c = Consensus(rt.main_ts, "k")
        c.agree(rt, 1, 42)
        # a late participant proposes something else: decision unchanged
        assert c.agree(rt, 2, 99) == 42

    def test_decide_blocks_until_some_proposal(self, rt):
        c = Consensus(rt.main_ts, "k")
        out = []

        def waiter(proc):
            out.append(c.decide(proc))

        h = rt.eval_(waiter)
        import time

        time.sleep(0.05)
        assert out == []  # nothing to decide on yet
        c.propose(rt, 7, "late")
        h.join(timeout=30)
        assert out == ["late"]

    def test_crash_of_decider_candidate_harmless(self, rt):
        # proposer 1 deposits and "crashes" (never calls decide);
        # proposer 2 still reaches a decision — possibly adopting 1's value
        c = Consensus(rt.main_ts, "k")
        c.propose(rt, 1, "from-the-dead")
        got = c.agree(rt, 2, "alive")
        assert got in ("from-the-dead", "alive")
        assert c.decided_value(rt) == got

    def test_independent_instances(self, rt):
        a = Consensus(rt.main_ts, "a")
        b = Consensus(rt.main_ts, "b")
        assert a.agree(rt, 1, "A") == "A"
        assert b.agree(rt, 1, "B") == "B"


class TestTupleStream:
    def test_fifo_single_producer_consumer(self, rt):
        s = TupleStream(rt.main_ts, "s")
        s.create(rt)
        for i in range(5):
            assert s.append(rt, i * 10) == i
        assert [s.pop(rt) for _ in range(5)] == [0, 10, 20, 30, 40]
        assert s.length(rt) == 0

    def test_try_pop_empty(self, rt):
        s = TupleStream(rt.main_ts, "s")
        s.create(rt)
        assert s.try_pop(rt) is None
        s.append(rt, "x")
        assert s.try_pop(rt) == "x"
        assert s.try_pop(rt) is None

    def test_blocking_pop_waits_for_producer(self, rt):
        s = TupleStream(rt.main_ts, "s")
        s.create(rt)
        got = []

        def consumer(proc):
            got.append(s.pop(proc))

        h = rt.eval_(consumer)
        import time

        time.sleep(0.05)
        assert got == []
        s.append(rt, "finally")
        h.join(timeout=30)
        assert got == ["finally"]

    def test_multi_producer_multi_consumer_exactly_once(self, rt):
        s = TupleStream(rt.main_ts, "s")
        s.create(rt)
        n_items = 60
        results = []
        lock = threading.Lock()

        def producer(proc, base):
            for i in range(n_items // 3):
                s.append(proc, base + i)

        def consumer(proc, count):
            for _ in range(count):
                v = s.pop(proc)
                with lock:
                    results.append(v)

        producers = [rt.eval_(producer, b) for b in (0, 100, 200)]
        consumers = [rt.eval_(consumer, n_items // 3) for _ in range(3)]
        for h in producers + consumers:
            h.join(timeout=60)
        assert len(results) == n_items
        assert len(set(results)) == n_items  # exactly once, no duplicates
        assert s.length(rt) == 0

    def test_pop_recovers_when_its_slot_is_claimed_between_reads(self, rt):
        """Consumer A reads head 0, then — before it waits on slot 0 —
        consumer B pops the only element.  Nobody will ever fill slot 0
        again: A must notice and take the next element, not wait there."""
        s = TupleStream(rt.main_ts, "s")
        s.create(rt)
        s.append(rt, "first")
        read_head = threading.Event()
        go_on = threading.Event()

        class ParkedAfterHead:
            """Consumer A's api: parks once, right after reading the head."""

            def __init__(self, proc):
                self._proc = proc

            def __getattr__(self, name):
                return getattr(self._proc, name)

            def rd(self, ts, *fields, **kw):
                got = self._proc.rd(ts, *fields, **kw)
                if fields[1] == "head" and not read_head.is_set():
                    read_head.set()
                    assert go_on.wait(30)
                return got

        a = rt.eval_(lambda proc: s.pop(ParkedAfterHead(proc)))
        assert read_head.wait(30)  # A holds h == 0
        assert s.pop(rt) == "first"  # B claims slot 0
        s.append(rt, "second")
        go_on.set()
        assert a.join(timeout=30) == "second"
        assert s.length(rt) == 0

    def test_ordering_preserved_per_append_order(self, rt):
        # appends are serialized by the tail counter: pops see global order
        s = TupleStream(rt.main_ts, "s")
        s.create(rt)
        for i in range(10):
            s.append(rt, i)
        popped = [s.pop(rt) for _ in range(10)]
        assert popped == sorted(popped)

    def test_peek_range(self, rt):
        s = TupleStream(rt.main_ts, "s")
        s.create(rt)
        s.append(rt, "a")
        s.append(rt, "b")
        s.pop(rt)
        assert s.peek_range(rt) == (1, 2)
        assert s.length(rt) == 1

    def test_two_streams_independent(self, rt):
        a = TupleStream(rt.main_ts, "a")
        b = TupleStream(rt.main_ts, "b")
        a.create(rt)
        b.create(rt)
        a.append(rt, 1)
        b.append(rt, 2)
        assert a.pop(rt) == 1
        assert b.pop(rt) == 2

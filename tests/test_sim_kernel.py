"""Unit tests for the discrete-event kernel and processes."""

import pytest

from repro.sim import SimProcess, Simulator, hold
from repro.sim.kernel import MS


@pytest.fixture
def sim():
    return Simulator(seed=1)


class TestScheduling:
    def test_callbacks_run_in_time_order(self, sim):
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 30

    def test_ties_break_by_schedule_order(self, sim):
        order = []
        for tag in "abc":
            sim.schedule(5, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_cancel(self, sim):
        hits = []
        h = sim.schedule(10, hits.append, 1)
        h.cancel()
        sim.run()
        assert hits == []

    def test_run_until_stops_clock(self, sim):
        sim.schedule(100, lambda: None)
        sim.run(until=50)
        assert sim.now == 50
        sim.run()
        assert sim.now == 100

    def test_nested_scheduling(self, sim):
        hits = []

        def outer():
            hits.append(sim.now)
            sim.schedule(5, hits.append, sim.now + 5)

        sim.schedule(10, outer)
        sim.run()
        assert hits == [10, 15]

    def test_determinism_same_seed(self):
        def run(seed):
            s = Simulator(seed=seed)
            vals = []
            def tick(n):
                if n:
                    vals.append(s.rng.random())
                    s.schedule(s.rng.uniform(1, 10), tick, n - 1)
            tick(20)
            s.run()
            return vals, s.now

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestEvents:
    def test_wait_then_trigger(self, sim):
        ev = sim.event("e")
        got = []
        ev.add_waiter(got.append)
        sim.schedule(10, ev.succeed, 42)
        sim.run()
        assert got == [42]

    def test_wait_after_trigger_fires_immediately(self, sim):
        ev = sim.event()
        ev.succeed("v")
        got = []
        ev.add_waiter(got.append)
        sim.run()
        assert got == ["v"]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_run_until_event(self, sim):
        ev = sim.event()
        sim.schedule(25, ev.succeed, "done")
        assert sim.run_until_event(ev) == "done"
        assert sim.now == 25

    def test_run_until_event_deadlock_detected(self, sim):
        ev = sim.event("never")
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run_until_event(ev)


class TestProcesses:
    def test_hold_advances_time(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield hold(100)
            trace.append(sim.now)

        SimProcess(sim, proc())
        sim.run()
        assert trace == [0, 100]

    def test_return_value_via_finished(self, sim):
        def proc():
            yield hold(1)
            return "answer"

        p = SimProcess(sim, proc())
        assert sim.run_until_event(p.finished) == "answer"

    def test_wait_on_event(self, sim):
        ev = sim.event()

        def proc():
            value = yield ev
            return value * 2

        p = SimProcess(sim, proc())
        sim.schedule(10, ev.succeed, 21)
        assert sim.run_until_event(p.finished) == 42

    def test_join_other_process(self, sim):
        def child():
            yield hold(50)
            return "child-result"

        def parent():
            c = SimProcess(sim, child())
            result = yield c
            return f"got {result}"

        p = SimProcess(sim, parent())
        assert sim.run_until_event(p.finished) == "got child-result"
        assert sim.now == 50

    def test_exception_propagates_to_joiner(self, sim):
        def bad():
            yield hold(1)
            raise ValueError("inner")

        def parent():
            b = SimProcess(sim, bad())
            yield b

        p = SimProcess(sim, parent())
        sim.run()
        assert isinstance(p.error, ValueError)

    def test_kill_stops_process(self, sim):
        trace = []

        def proc():
            trace.append("start")
            yield hold(100)
            trace.append("end")  # must never run

        p = SimProcess(sim, proc())
        sim.run(until=50)
        p.kill()
        sim.run()
        assert trace == ["start"]
        assert not p.alive
        assert not p.finished.triggered

    def test_invalid_yield_raises(self, sim):
        def proc():
            yield "nonsense"

        p = SimProcess(sim, proc())
        sim.run()
        assert isinstance(p.error, TypeError)

    def test_two_processes_interleave(self, sim):
        trace = []

        def proc(tag, step):
            for _ in range(3):
                yield hold(step)
                trace.append((tag, sim.now))

        SimProcess(sim, proc("a", 10))
        SimProcess(sim, proc("b", 15))
        sim.run()
        # at the t=30 tie, b resumes first: its wakeup was scheduled at
        # t=15, before a's at t=20 (FIFO among equal times)
        assert trace == [
            ("a", 10), ("b", 15), ("a", 20), ("b", 30), ("a", 30), ("b", 45)
        ]

    def test_ms_constant(self):
        assert MS == 1000.0

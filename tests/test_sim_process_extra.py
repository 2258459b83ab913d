"""Additional coverage for sim processes and the xkernel header model."""

import pytest

from repro.sim import Simulator, hold
from repro.sim.process import spawn
from repro.xkernel.message import Message, payload_size


class TestSpawnHelper:
    def test_spawn_runs(self):
        sim = Simulator()

        def gen():
            yield hold(5)
            return "done"

        p = spawn(sim, gen(), name="helper")
        assert sim.run_until_event(p.finished) == "done"
        assert p.name == "helper"

    def test_chained_joins(self):
        sim = Simulator()

        def leaf(v):
            yield hold(1)
            return v

        def mid():
            a = yield spawn(sim, leaf(1))
            b = yield spawn(sim, leaf(2))
            return a + b

        def root():
            total = yield spawn(sim, mid())
            return total * 10

        p = spawn(sim, root())
        assert sim.run_until_event(p.finished) == 30

    def test_join_already_finished_process(self):
        sim = Simulator()

        def quick():
            return 7
            yield  # pragma: no cover - makes it a generator

        q = spawn(sim, quick())
        sim.run()
        assert q.finished.triggered

        def late():
            v = yield q
            return v + 1

        p = spawn(sim, late())
        assert sim.run_until_event(p.finished) == 8

    def test_kill_is_idempotent(self):
        sim = Simulator()

        def forever():
            while True:
                yield hold(10)

        p = spawn(sim, forever())
        sim.run(until=25)
        p.kill()
        p.kill()  # second kill is a no-op
        assert not p.alive

    def test_exception_from_joined_process_chains(self):
        sim = Simulator()

        def bad():
            yield hold(1)
            raise KeyError("inner")

        def outer():
            try:
                yield spawn(sim, bad())
            except KeyError:
                return "caught"

        p = spawn(sim, outer())
        assert sim.run_until_event(p.finished) == "caught"


class TestMessageSizes:
    def test_header_sizes_accumulate_and_release(self):
        m = Message("payload")
        base = m.size
        m.push_header("a", ("H", 1), size=10)
        m.push_header("b", ("H", 2), size=20)
        assert m.size == base + 30
        m.pop_header("b")
        assert m.size == base + 10

    def test_auto_header_size_uses_pickle(self):
        m = Message("p")
        m.push_header("a", ("some", "header"))
        assert m.size == payload_size("p") + payload_size(("some", "header"))

    def test_peek_does_not_remove(self):
        m = Message("p")
        m.push_header("a", 1)
        assert m.peek_header("a") == 1
        assert m.pop_header("a") == 1
        with pytest.raises(ValueError):
            m.pop_header("a")

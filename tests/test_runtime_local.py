"""Unit/integration tests for the single-host LocalRuntime."""

import gc
import sys
import threading
import time

import pytest

from repro import (
    AGS,
    Guard,
    LocalRuntime,
    Op,
    Resilience,
    Scope,
    ScopeError,
    TimeoutError_,
    formal,
    ref,
)
from repro.core.statemachine import TSStateMachine


@pytest.fixture
def rt():
    return LocalRuntime()


class TestClassicOps:
    def test_out_in_roundtrip(self, rt):
        rt.out(rt.main_ts, "msg", "hello", 1)
        t = rt.in_(rt.main_ts, "msg", formal(str), formal(int))
        assert t == ("msg", "hello", 1)

    def test_rd_leaves_tuple(self, rt):
        rt.out(rt.main_ts, "x", 5)
        assert rt.rd(rt.main_ts, "x", formal(int)) == ("x", 5)
        assert rt.in_(rt.main_ts, "x", formal(int)) == ("x", 5)

    def test_inp_hit_and_miss(self, rt):
        assert rt.inp(rt.main_ts, "x", formal(int)) is None
        rt.out(rt.main_ts, "x", 1)
        assert rt.inp(rt.main_ts, "x", formal(int)) == ("x", 1)
        assert rt.inp(rt.main_ts, "x", formal(int)) is None

    def test_rdp(self, rt):
        assert rt.rdp(rt.main_ts, "x") is None
        rt.out(rt.main_ts, "x")
        assert rt.rdp(rt.main_ts, "x") == ("x",)
        assert rt.rdp(rt.main_ts, "x") == ("x",)

    def test_in_blocks_until_available(self, rt):
        got = []

        def consumer():
            got.append(rt.in_(rt.main_ts, "later", formal(int)))

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.05)
        assert got == []
        rt.out(rt.main_ts, "later", 9)
        t.join(timeout=5)
        assert got == [("later", 9)]

    def test_in_timeout(self, rt):
        with pytest.raises(TimeoutError_):
            rt.in_(rt.main_ts, "never", timeout=0.05)
        # the timed-out statement must not linger and steal later tuples
        rt.out(rt.main_ts, "never")
        assert rt.inp(rt.main_ts, "never") is not None

    def test_move_copy(self, rt):
        dst = rt.create_space("dst")
        rt.out(rt.main_ts, "t", 1)
        rt.out(rt.main_ts, "t", 2)
        rt.copy(rt.main_ts, dst, "t", formal(int))
        assert rt.space_size(dst) == 2
        rt.move(rt.main_ts, dst, "t", formal(int))
        assert rt.space_size(dst) == 4
        assert rt.space_size(rt.main_ts) == 0


class TestAGSExecution:
    def test_fetch_and_add(self, rt):
        rt.out(rt.main_ts, "c", 0)
        res = rt.execute(
            AGS.single(
                Guard.in_(rt.main_ts, "c", formal(int, "v")),
                [Op.out(rt.main_ts, "c", ref("v") + 5)],
            )
        )
        assert res.succeeded and res["v"] == 0
        assert rt.rd(rt.main_ts, "c", formal(int)) == ("c", 5)

    def test_concurrent_increments_never_lose_updates(self, rt):
        rt.out(rt.main_ts, "c", 0)
        n_threads, n_iters = 8, 50
        incr = AGS.single(
            Guard.in_(rt.main_ts, "c", formal(int, "v")),
            [Op.out(rt.main_ts, "c", ref("v") + 1)],
        )

        def worker():
            for _ in range(n_iters):
                rt.execute(incr)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rt.rd(rt.main_ts, "c", formal(int)) == ("c", n_threads * n_iters)


class TestEval:
    def test_eval_runs_and_returns(self, rt):
        def child(proc, a, b):
            proc.out(proc.main_ts, "sum", a + b)
            return a + b

        h = rt.eval_(child, 2, 3)
        assert h.join(timeout=5) == 5
        assert rt.in_(rt.main_ts, "sum", formal(int)) == ("sum", 5)

    def test_eval_exception_reraised_on_join(self, rt):
        def bad(proc):
            raise ValueError("boom")

        h = rt.eval_(bad)
        with pytest.raises(ValueError):
            h.join(timeout=5)

    def test_producer_consumer_pipeline(self, rt):
        def producer(proc, n):
            for i in range(n):
                proc.out(proc.main_ts, "item", i)

        def consumer(proc, n):
            return sum(proc.in_(proc.main_ts, "item", formal(int))[1] for _ in range(n))

        hp = rt.eval_(producer, 20)
        hc = rt.eval_(consumer, 20)
        assert hc.join(timeout=10) == sum(range(20))
        hp.join(timeout=5)


class TestSpaces:
    def test_create_and_use_space(self, rt):
        h = rt.create_space("aux", Resilience.VOLATILE)
        rt.out(h, "k", 1)
        assert rt.in_(h, "k", formal(int)) == ("k", 1)

    def test_private_space_scoping(self, rt):
        h = rt.create_space("priv", Resilience.STABLE, Scope.PRIVATE, owner=1)
        view1 = rt.view(1)
        view1.out(h, "secret", 42)
        assert view1.rd(h, "secret", formal(int)) == ("secret", 42)
        view2 = rt.view(2)
        with pytest.raises(ScopeError):
            view2.out(h, "intrusion", 1)

    def test_destroy_space(self, rt):
        h = rt.create_space("tmp")
        rt.destroy_space(h)
        from repro import SpaceError

        with pytest.raises(SpaceError):
            rt.out(h, "x")

    def test_handles_inside_tuples(self, rt):
        h = rt.create_space("inner")
        rt.out(rt.main_ts, "where", h)
        t = rt.in_(rt.main_ts, "where", formal())
        assert t[1] == h


class TestStatementPlans:
    """The classic operations compile once per call-site shape."""

    def test_cache_is_bounded_by_program_text(self, rt):
        # spaces come and go, values never repeat: still the same few shapes
        for i in range(2000):
            ts = rt.create_space(f"scratch-{i}")
            rt.out(ts, "k", i)
            assert rt.in_(ts, "k", formal(int)) == ("k", i)
            rt.destroy_space(ts)
        for v in range(10_000):
            rt.out(rt.main_ts, "v", v)
        assert len(rt._plans) == 2  # out/2 and in/2: the ("v", v) outs are out/2 again
        assert rt.metrics_snapshot()["gauges"]["statement_plans"] == 2
        assert rt.space_size(rt.main_ts) == 10_000

    def test_shapes_differ_by_opcode_arity_and_formals_only(self, rt):
        rt.out(rt.main_ts, "a", 1)
        rt.out(rt.main_ts, "b", 2.5)  # same shape: two holes
        rt.out(rt.main_ts, "a", 1, 2)  # arity
        rt.rd(rt.main_ts, "a", formal(int))
        rt.rd(rt.main_ts, "b", formal(float))  # the formal's type
        rt.rd(rt.main_ts, "a", formal(int, "n"))  # its name
        rt.rdp(rt.main_ts, "a", formal(int))  # the opcode
        rt.rd(rt.main_ts, "a", formal(int))  # met before
        assert len(rt._plans) == 6

    def test_an_illegal_shape_is_refused_every_time_and_never_kept(self, rt):
        from repro import AGSError

        for _ in range(2):
            with pytest.raises(AGSError, match="actuals, not formals"):
                rt.out(rt.main_ts, "k", formal(int))
            with pytest.raises(AGSError, match="named formals"):
                rt.move(rt.main_ts, rt.main_ts, "k", formal(int, "n"))
            with pytest.raises(AGSError, match="at least one field"):
                rt.inp(rt.main_ts)
        assert rt._plans == {}

    def test_every_value_is_checked_on_every_call(self, rt):
        from repro import AGSError

        rt.out(rt.main_ts, "k", (1, 2))
        for bad in ([1], (1, [2]), {"a": 1}):
            with pytest.raises(AGSError, match="not a valid tuple field value"):
                rt.out(rt.main_ts, "k", bad)
            with pytest.raises(AGSError, match="not a valid tuple field value"):
                rt.rdp(rt.main_ts, bad, formal(int))
        with pytest.raises(AGSError, match="not a valid tuple field value"):
            rt.out([0], "k", 1)
        assert rt.space_size(rt.main_ts) == 1

    def test_snapshot_reads_share_the_runtime_cache(self, rt):
        rt.out(rt.main_ts, "k", 1)
        slot = rt.retain_snapshot()
        rt.in_(rt.main_ts, "k", formal(int))
        view = rt.read_at(slot)
        assert view.rdp(rt.main_ts, "k", formal(int)) == ("k", 1)
        assert rt.rdp(rt.main_ts, "k", formal(int)) is None
        assert len(rt._plans) == 3  # out/2, in/2, rdp/2 — the view added none


class TestRetainedSnapshots:
    def test_read_at_under_concurrent_retains(self, rt):
        slots = []
        for i in range(5):
            rt.out(rt.main_ts, "n", i)
            slots.append(rt.retain_snapshot())
        with pytest.raises(KeyError):
            rt.read_at(slots[0])  # only the newest four are kept
        assert rt.read_at().slot == slots[-1]
        assert rt.read_at(slots[1]).size(rt.main_ts) == 2
        for i in range(5):
            rt.inp(rt.main_ts, "n", i)
        for i in range(200):  # enough to make building a view take a while
            rt.out(rt.main_ts, "resident", i, "r")

        # One thread retains fresh slots while this one reads the newest;
        # a tiny switch interval makes the interleaving dense.  Retained
        # slot base + 2i + 1 holds the residents and ("n", i), nothing else;
        # the slot retained just before base holds ("n", -1).
        rt.out(rt.main_ts, "n", -1)
        rt.retain_snapshot()
        rt.inp(rt.main_ts, "n", -1)
        base = rt.state_machine.applied_count

        def retain():
            for i in range(1000):
                rt.out(rt.main_ts, "n", i)
                rt.retain_snapshot()
                rt.inp(rt.main_ts, "n", i)

        def machines():
            gc.collect()
            return sum(isinstance(o, TSStateMachine) for o in gc.get_objects())

        before = machines()
        errors: dict[str, int] = {}
        wrong = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        t = threading.Thread(target=retain)
        t.start()
        try:
            for _ in range(20_000):
                if not t.is_alive():
                    break
                try:
                    view = rt.read_at()
                except Exception as exc:  # noqa: BLE001 - counted, then asserted
                    name = type(exc).__name__
                    errors[name] = errors.get(name, 0) + 1
                    continue
                i = -1 if view.slot < base else (view.slot - base - 1) // 2
                if view.size(rt.main_ts) != 201 or view.rdp(rt.main_ts, "n", i) is None:
                    wrong.append(view.slot)
        finally:
            t.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not t.is_alive()
        assert errors == {}
        assert wrong == []
        # the runtime holds no more machine copies than the slots it keeps
        view = None
        assert machines() - before <= 4

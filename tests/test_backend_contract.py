"""One contract, every runtime.

Every backend — single-process ``LocalRuntime``, its journaling subclass
``SegmentedWALRuntime``, thread-replicated ``ThreadedReplicaRuntime``,
process-replicated ``MultiprocessRuntime`` — implements the same :class:`~repro.core.runtime.BaseRuntime` API, so the
observable Linda semantics must be identical.  This suite states that
contract once and runs it over all of them, replacing the per-backend
near-duplicate tests; backend-specific behaviour (ordered cancel,
pickling, snapshot recovery) stays in the per-backend files.
"""

import time

import pytest

from repro import (
    AGS,
    FAILURE_TAG,
    Guard,
    LocalRuntime,
    Op,
    SpaceError,
    formal,
    ref,
)
from repro.core.ags import Branch, Param
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime
from repro.persist import SegmentedWALRuntime

# The -s4 variants run the same runtimes partitioned into 4 shard groups
# (still 3 replicas per shard): the whole contract — semantics, crash
# handling, fingerprint convergence, metrics — must be shard-transparent.
# "journaled" is LocalRuntime under the journaling ``_apply`` hook.
BACKENDS = ["local", "journaled", "threaded", "multiproc", "threaded-s4", "multiproc-s4"]


@pytest.fixture(params=BACKENDS)
def rt(request, tmp_path):
    if request.param == "local":
        runtime = LocalRuntime()
    elif request.param == "journaled":
        runtime = SegmentedWALRuntime(str(tmp_path / "journal"), fsync=False)
    elif request.param == "threaded":
        runtime = ThreadedReplicaRuntime(n_replicas=3)
    elif request.param == "threaded-s4":
        runtime = ThreadedReplicaRuntime(n_replicas=3, shards=4)
    elif request.param == "multiproc-s4":
        runtime = MultiprocessRuntime(n_replicas=3, shards=4)
    else:
        runtime = MultiprocessRuntime(n_replicas=3)
    yield runtime
    shutdown = getattr(runtime, "shutdown", None)
    if shutdown is not None:
        shutdown()


def _replicated(runtime) -> bool:
    return hasattr(runtime, "crash_replica")


def test_runtime_is_a_context_manager(rt):
    with rt as entered:
        assert entered is rt
        rt.out(rt.main_ts, "cm", 1)
        assert rt.inp(rt.main_ts, "cm", formal(int)) == ("cm", 1)
    if _replicated(rt):
        # leaving the block shut the replica workers down
        for group in rt.shard_groups:
            assert not any(
                group.transport.probe(i) for i in range(group.n_replicas)
            )


class TestLindaOps:
    def test_out_in_roundtrip(self, rt):
        rt.out(rt.main_ts, "x", 1)
        assert rt.in_(rt.main_ts, "x", formal(int)) == ("x", 1)

    def test_rd_leaves_tuple_in_withdraws(self, rt):
        rt.out(rt.main_ts, "k", 7)
        assert rt.rd(rt.main_ts, "k", formal(int)) == ("k", 7)
        assert rt.in_(rt.main_ts, "k", formal(int)) == ("k", 7)
        assert rt.inp(rt.main_ts, "k", formal(int)) is None

    def test_inp_rdp_do_not_block(self, rt):
        assert rt.inp(rt.main_ts, "absent", formal(int)) is None
        assert rt.rdp(rt.main_ts, "absent", formal(int)) is None
        rt.out(rt.main_ts, "present", 3)
        assert rt.rdp(rt.main_ts, "present", formal(int)) == ("present", 3)
        assert rt.inp(rt.main_ts, "present", formal(int)) == ("present", 3)

    def test_blocking_in_wakes_on_out(self, rt):
        h = rt.eval_(lambda proc: proc.in_(proc.main_ts, "later", formal(int)))
        rt.out(rt.main_ts, "later", 9)
        assert h.join(timeout=30) == ("later", 9)

    def test_move_and_copy(self, rt):
        dst = rt.create_space("dst")
        rt.out(rt.main_ts, "t", 1)
        rt.out(rt.main_ts, "t", 2)
        rt.copy(rt.main_ts, dst, "t", formal(int))
        assert rt.space_size(dst) == 2
        rt.move(rt.main_ts, dst, "t", formal(int))
        assert rt.space_size(dst) == 4
        assert rt.inp(rt.main_ts, "t", formal(int)) is None

    def test_space_lifecycle(self, rt):
        h = rt.create_space("jobs")
        rt.out(h, "j", 1)
        assert rt.space_size(h) == 1
        rt.destroy_space(h)
        with pytest.raises(SpaceError):
            rt.out(h, "k", 2)


class TestAtomicity:
    def test_ags_atomic_increment_under_concurrency(self, rt):
        rt.out(rt.main_ts, "c", 0)
        incr = AGS.single(
            Guard.in_(rt.main_ts, "c", formal(int, "v")),
            [Op.out(rt.main_ts, "c", ref("v") + 1)],
        )

        def worker(proc):
            for _ in range(10):
                proc.execute(incr)

        handles = [rt.eval_(worker) for _ in range(4)]
        for h in handles:
            h.join(timeout=60)
        assert rt.rd(rt.main_ts, "c", formal(int)) == ("c", 40)

    def test_disjunctive_guard_fires_available_branch(self, rt):
        rt.out(rt.main_ts, "b", 2)
        res = rt.execute(
            AGS(
                [
                    Branch(Guard.inp(rt.main_ts, "a", formal(int, "x")), []),
                    Branch(Guard.inp(rt.main_ts, "b", formal(int, "x")), []),
                ]
            )
        )
        assert res.succeeded and res["x"] == 2


class TestStatementPlans:
    """``execute(plan, actuals)``: a statement with holes, its values beside it."""

    @staticmethod
    def _bump(ts):
        return AGS.single(
            Guard.in_(ts, Param(0), formal(int, "old")),
            [Op.out(ts, Param(0), ref("old") + Param(1))],
        )

    def test_hand_written_plan_runs_as_the_statement_with_its_values_built_in(self, rt):
        ts = rt.main_ts
        by_value = AGS.single(
            Guard.in_(ts, "ctr", formal(int, "old")),
            [Op.out(ts, "ctr", ref("old") + 5)],
        )
        rt.out(ts, "ctr", 1)
        want = rt.execute(by_value)
        submitted = rt.metrics_snapshot()["counters"]["commands_submitted"]
        got = rt.execute(self._bump(ts), ("ctr", 5))
        # one command: on -s4 the route read the first field through the
        # hole and took the single-shard path, not the cross-shard rung
        assert rt.metrics_snapshot()["counters"]["commands_submitted"] == submitted + 1
        assert (want.fired, want.bindings) == (0, {"old": 1})
        assert (got.fired, got.bindings, got.error) == (0, {"old": 6}, None)
        assert rt.rd(ts, "ctr", formal(int)) == ("ctr", 11)
        assert rt.space_size(ts) == 1
        if _replicated(rt):
            assert rt.converged()

    def test_parked_plan_survives_crash_and_recovery(self, rt):
        if not _replicated(rt):
            pytest.skip("no replicas to crash on this backend")
        ts = rt.main_ts
        h = rt.eval_(lambda proc: proc.execute(self._bump(ts), ("later", 5), timeout=60))
        deadline = time.monotonic() + 30
        while not (waiters := rt.introspection_snapshot()["sm"]["waiters"]):
            assert time.monotonic() < deadline, "the plan never parked"
            time.sleep(0.01)
        # parked with its actuals: what it waits on reads through the hole
        assert waiters[0]["waiting_on"][0]["template"] == "('later', ?int)"
        rt.crash_replica(1)
        rt.recover_replica(1)  # the parked plan crosses in the snapshot
        rt.out(ts, "later", 1)
        res = h.join(timeout=60)
        assert res.succeeded and res.bindings == {"old": 1}
        assert rt.rd(ts, "later", formal(int)) == ("later", 6)
        assert rt.converged()
        assert len(rt.fingerprints()) == 3


class TestReplication:
    def test_crash_replica_mid_stream(self, rt):
        if not _replicated(rt):
            pytest.skip("no replicas to crash on this backend")
        rt.out(rt.main_ts, "pre", 1)
        rt.crash_replica(1)
        rt.out(rt.main_ts, "post", 2)
        assert rt.in_(rt.main_ts, "post", formal(int)) == ("post", 2)
        assert rt.converged()
        assert len(rt.fingerprints()) == 2
        assert rt.inp(rt.main_ts, FAILURE_TAG, 1) is not None

    def test_fingerprints_converge_under_concurrency(self, rt):
        if not _replicated(rt):
            pytest.skip("no replica fingerprints on this backend")

        def worker(proc, tag):
            for i in range(20):
                proc.out(proc.main_ts, tag, i)

        handles = [rt.eval_(worker, f"t{i}") for i in range(4)]
        for h in handles:
            h.join(timeout=60)
        prints = rt.fingerprints()
        assert len(prints) == 3
        assert len(set(prints)) == 1


class TestMetrics:
    def test_metrics_snapshot_populated(self, rt):
        for i in range(10):
            rt.out(rt.main_ts, "m", i)
            rt.in_(rt.main_ts, "m", i)
        snap = rt.metrics_snapshot()
        hists = snap["histograms"]
        assert hists["submit_to_order"]["count"] > 0
        assert hists["order_to_apply"]["count"] > 0
        assert hists["ags_e2e"]["count"] >= 20
        assert snap["counters"]["commands_submitted"] >= 20

    def test_posts_are_counted_and_wire_bytes_are_readable(self, rt, request):
        """The suite's four bag statements, hand-built, the fill pipelined:
        every command that ships in a batch is in ``commands_submitted``, and
        where there is a wire ``broadcast_bytes`` over it is bytes per command."""
        if not _replicated(rt):
            pytest.skip("no sequencer to post to on this backend")
        ts, w = rt.main_ts, 1
        for tid in range(100):
            rt.sharded.post_ags(AGS.atomic(Op.out(ts, "task", tid, 3 * tid)))
        rt.quiesce()
        for _ in range(100):
            tid = rt.execute(AGS.single(
                Guard.in_(ts, "task", formal(int, "id"), formal(int, "p")),
                [Op.out(ts, "inprog", ref("id"), w, ref("p"))],
            ))["id"]
            rt.execute(AGS.single(
                Guard.in_(ts, "inprog", tid, w, formal(int, "p")),
                [Op.out(ts, "result", tid, ref("p") * 2)],
            ))
            got = rt.execute(AGS.single(Guard.in_(ts, "result", formal(int, "id"), formal(int, "r"))))
            assert got.bindings == {"id": tid, "r": 6 * tid}
        counters = rt.metrics_snapshot()["counters"]
        if len(rt.shard_groups) == 1:
            assert counters["commands_submitted"] == 400  # the 100 posts among them
        else:  # task -> inprog -> result cross partitions: the rung's own commands
            assert counters["commands_submitted"] > 400
        if request.node.callspec.params["rt"].startswith("multiproc"):
            # 420-675 B each by value; the four definitions ride once
            assert counters["broadcast_bytes"] / counters["commands_submitted"] <= 130
        else:
            assert "broadcast_bytes" not in counters  # no wire, nothing to read

    def test_detector_instruments_read_zero_without_a_detector(self, rt):
        """Same instrument names on every group: dashboards index them."""
        if not _replicated(rt):
            pytest.skip("no replica group on this backend")
        snap = rt.metrics_snapshot()
        assert snap["counters"]["failures_detected"] == 0
        assert snap["counters"]["auto_recoveries"] == 0
        assert snap["histograms"]["detection_latency"]["count"] == 0

    def test_statement_plans_gauge_counts_call_site_shapes(self, rt):
        assert rt.metrics_snapshot()["gauges"]["statement_plans"] == 0
        for i in range(10):
            rt.out(rt.main_ts, "m", i)  # out/2
            rt.in_(rt.main_ts, "m", formal(int))  # in/2 with an int formal
        rt.execute(AGS.atomic(Op.out(rt.main_ts, "by", "hand")))  # not a plan
        # sampled when asked, once for the runtime however it is sharded
        assert rt.metrics_snapshot()["gauges"]["statement_plans"] == 2

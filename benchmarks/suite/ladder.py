"""The per-layer ladder: one statement timed through each depth, from outside.

Every metric here comes from calling a layer's public function around a
``perf_counter`` pair — the median of the per-call samples — in the order

    core.matching -> core.ags -> core.statemachine -> core.runtime
    -> replication.group (1 replica) -> parallel.threaded (3)
    -> parallel.multiproc (3) -> +shards=4 -> +durable_dir

Sizes are fixed (a 50,000-tuple store, a 10,000-record journal) so the
numbers mean the same at any ``calls``; only the number of calls per
metric scales.

The whole ladder runs pinned to one CPU, like every workload process
(``workloads.pin_to_one_cpu`` says why).
"""

from __future__ import annotations

import itertools
import os
import pickle
import shutil
import tempfile
from statistics import median
from time import perf_counter
from typing import Any, Callable

from repro import (
    AGS, Guard, LocalRuntime, Op, Pattern, TupleStore, formal, make_tuple, ref,
)
from repro.core.statemachine import ExecuteAGS
from repro.obs.inspect import disable_introspection, enable_introspection
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime
from repro.persist import SegmentedLog, replay_dir
from repro.replication import InMemoryTransport, ReplicaGroup
from repro.replication.group import CLIENT_ORIGIN

from benchmarks.suite import adapters
from benchmarks.suite.trace import Tracer
from benchmarks.suite.workloads import (
    BagOfTasks, DurableBag, LocalCore, ShardedMix, Workload, bag_resident,
    core_fields, core_pattern, pin_to_one_cpu, prepare_journal,
)

RESIDENT = 50_000  # tuples under the core rungs, as in local_core
JOURNAL_RECORDS = 10_000  # as durable_bag recovers
BATCH = 64  # commands per codec / journal batch
_US = 1e6


class Ladder:
    """Runs the rungs; ``metrics`` fills with ``<module>.<metric>`` values."""

    def __init__(self, calls: int, tracer: Tracer, tmp: str, seed: int):
        self.calls = max(50, calls)
        self.tracer = tracer
        self.tmp = tmp
        self.seed = seed
        self.metrics: dict[str, float] = {}
        self.n: dict[str, int] = {}  # samples behind each metric's median
        self._rids = itertools.count(10**9)  # ids no runtime's own counter reaches

    # -- measuring ------------------------------------------------------ #

    def sample(
        self,
        metric: str,
        call: str,
        fn: Callable[[int], Any],
        calls: int | None = None,
        budget_s: float = 1.0,
        before: Callable[[int], Any] | None = None,
    ) -> float:
        """Median seconds of *fn(i)* over *calls* calls (fewer if the time
        budget runs out first); a span per call under one span per metric.
        *before(i)* runs untimed ahead of each call."""
        n = calls or self.calls
        samples: list[float] = []
        spans = []
        start = perf_counter()
        for i in range(n):
            if before is not None:
                before(i)
            t0 = perf_counter()
            fn(i)
            t1 = perf_counter()
            samples.append(t1 - t0)
            spans.append((t0, t1))
            if t1 - start > budget_s and i >= 20:
                break
        parent = self.tracer.span(f"ladder.{metric}", start, perf_counter())
        for i, (t0, t1) in enumerate(spans):
            self.tracer.span(call, t0, t1, parent, stmt=i)
        self.n[metric] = len(samples)
        return median(samples)

    def us(self, metric: str, call: str, fn: Callable[[int], Any], **kw: Any) -> float:
        value = self.sample(metric, call, fn, **kw) * _US
        self.metrics[metric] = value
        return value

    def run(self) -> dict[str, float]:
        pin_to_one_cpu()  # like every workload process; see there
        self.core_rungs()
        thr1 = self.thread_rungs()
        self.sharding_rungs()
        self.codec_rung()
        self.process_rungs(thr1)
        self.persist_rungs()
        return self.metrics

    # -- core.* --------------------------------------------------------- #

    def core_rungs(self) -> None:
        n, us = self.calls, self.us
        us("core.tuples.make_us", "core.tuples.make_tuple+Pattern",
           lambda i: (make_tuple("k1", i), Pattern(("k1", formal(int)))))

        store = TupleStore()
        for v in range(RESIDENT):
            store.add(make_tuple(*_core_tuple(v)))
        fresh = [make_tuple(*_core_tuple(RESIDENT + i)) for i in range(n)]
        keyed = [Pattern(core_pattern(f"k{i % 64}", 0)) for i in range(n)]
        absent = Pattern(("absent", formal(int)))
        # shape-0 tuples number v = 0 mod 4; the newest ones, so that the
        # keyed takes below (oldest first) never remove them
        wild = [Pattern((formal(str), RESIDENT - 4 * (i + 1))) for i in range(n)]
        us("core.matching.add_us", "core.matching.TupleStore.add",
           lambda i: store.add(fresh[i]))
        us("core.matching.read_hit_us", "core.matching.TupleStore.find",
           lambda i: store.find(keyed[i], remove=False))
        us("core.matching.take_hit_us", "core.matching.TupleStore.find",
           lambda i: store.find(keyed[i], remove=True))
        us("core.matching.miss_us", "core.matching.TupleStore.find",
           lambda i: store.find(absent, remove=False))
        us("core.matching.wild_first_us", "core.matching.TupleStore.find",
           lambda i: store.find(wild[i], remove=False), budget_s=0.4)

        ts = LocalRuntime().main_ts
        us("core.ags.build_out_us", "core.ags.AGS.atomic",
           lambda i: AGS.atomic(Op.out(ts, "k1", i)))
        us("core.ags.build_in_us", "core.ags.AGS.single",
           lambda i: AGS.single(Guard.in_(ts, "k1", formal(int, "v"))))
        us("core.ags.build_body_us", "core.ags.AGS.single",
           lambda i: _increment(ts, 1))

        # one preloaded LocalRuntime serves the state-machine rungs (through
        # its public state_machine) and the runtime rungs above them
        rt = LocalRuntime()
        for v in range(RESIDENT):
            rt.out(ts, *_core_tuple(v))
        rt.out(ts, "ctr", 1, 0)
        sm = rt.state_machine

        def command(ags: AGS) -> ExecuteAGS:
            return ExecuteAGS(next(self._rids), CLIENT_ORIGIN, 0, ags)

        outs = [command(AGS.atomic(Op.out(ts, "k1", i))) for i in range(n)]
        ins = [command(AGS.single(Guard.in_(ts, "k1", formal(int, "v")))) for _ in range(n)]
        incs = [command(_increment(ts, 1)) for _ in range(n)]
        apply = "core.statemachine.TSStateMachine.apply"
        us("core.statemachine.apply_out_us", apply, lambda i: sm.apply(outs[i]))
        us("core.statemachine.apply_in_us", apply, lambda i: sm.apply(ins[i]))
        us("core.statemachine.apply_ags_us", apply, lambda i: sm.apply(incs[i]))
        # one parked in at a time, as in pingpong: every state change
        # retries all parked statements, so a backlog would be timed too
        parks = [command(AGS.single(Guard.in_(ts, "wake", i, formal(int)))) for i in range(n)]
        wakes = [command(AGS.atomic(Op.out(ts, "wake", i, 0))) for i in range(n)]
        us("core.statemachine.wake_us", apply, lambda i: sm.apply(wakes[i]),
           before=lambda i: sm.apply(parks[i]))
        self.metrics["core.statemachine.snapshot_ms"] = 1e3 * self.sample(
            "core.statemachine.snapshot_ms",
            "core.statemachine.TSStateMachine.snapshot",
            lambda i: sm.snapshot(), calls=5,
        )

        us("core.runtime.out_us", "core.runtime.LocalRuntime.out",
           lambda i: rt.out(ts, "k2", i))
        us("core.runtime.in_us", "core.runtime.LocalRuntime.in_",
           lambda i: rt.in_(ts, "k2", formal(int)))
        us("core.runtime.rd_us", "core.runtime.LocalRuntime.rd",
           lambda i: rt.rd(ts, "k3", formal(int)))
        us("core.runtime.ags_us", "core.runtime.LocalRuntime.execute",
           lambda i: rt.execute(_increment(ts, 1)))

        # match attempts per hit, from the runtime's own counters, after
        # the local_core script (the only rung that needs the switch on)
        enable_introspection()
        try:
            wl = LocalCore(self.seed, scale=0.1)
            wl.setup()
        finally:
            disable_introspection()
        spaces = wl.rt.introspection_snapshot()["sm"]["spaces"]
        templates = [t for sp in spaces for t in sp["templates"]]
        self.metrics["core.matching.attempts_per_hit"] = sum(
            t["attempts"] for t in templates
        ) / max(1, sum(t["hits"] for t in templates))

    # -- replication.group, parallel.threaded --------------------------- #

    def thread_rungs(self) -> float:
        """Returns the one-replica threaded ``out`` (µs), the base of two hops."""
        n, us = self.calls, self.us
        group = ReplicaGroup(InMemoryTransport(1))
        try:
            ts = LocalRuntime().main_ts
            cmds = [
                ExecuteAGS(group.next_request_id(), CLIENT_ORIGIN, 0,
                           AGS.atomic(Op.out(ts, "k1", i)))
                for i in range(n)
            ]
            us("replication.group.call_us", "replication.group.ReplicaGroup.call",
               lambda i: group.call(cmds[i]))
        finally:
            group.shutdown()

        thr1 = self._blocking_out(lambda: ThreadedReplicaRuntime(1), "parallel.threaded")
        rt = ThreadedReplicaRuntime(3)
        try:
            ts = rt.main_ts
            out3 = us("parallel.threaded.out_us",
                      "parallel.threaded.ThreadedReplicaRuntime.out",
                      lambda i: rt.out(ts, "k1", i))
            self.metrics["replication.group.fanout_us"] = out3 - thr1
            posts = [AGS.atomic(Op.out(ts, "p", i)) for i in range(5 * n // 2)]
            t0 = perf_counter()
            for ags in posts:
                adapters.post_ags(rt, ags)
            adapters.quiesce(rt)
            t1 = perf_counter()
            self.tracer.span("ladder.replication.group.post_us", t0, t1)
            self.metrics["replication.group.post_us"] = (t1 - t0) / len(posts) * _US
            self.metrics["replication.group.rd_us"] = self._rd(rt)
        finally:
            rt.shutdown()
        rt = ThreadedReplicaRuntime(3, read_fastpath=False)
        try:
            self.metrics["replication.group.rd_ordered_us"] = self._rd(rt)
        finally:
            rt.shutdown()
        return thr1

    def _blocking_out(self, make: Callable[[], Any], layer: str) -> float:
        """Median µs of a blocking ``out`` on a fresh runtime from *make*."""
        rt = make()
        try:
            ts = rt.main_ts
            name = f"{layer}.{type(rt).__name__}.out"
            for i in range(20):
                rt.out(ts, "warm", i)
            return _US * self.sample(name, name, lambda i: rt.out(ts, "k1", i))
        finally:
            adapters.shutdown(rt)

    def _rd(self, rt: Any) -> float:
        ts = rt.main_ts
        for k in range(64):
            rt.out(ts, "cfg", k, k)
        name = f"parallel.threaded.ThreadedReplicaRuntime.rd[fast={rt.group.read_fastpath}]"
        return _US * self.sample(
            name, name, lambda i: rt.rd(ts, "cfg", i % 64, formal(int))
        )

    # -- replication.transport ------------------------------------------ #

    def codec_rung(self) -> None:
        ts = LocalRuntime().main_ts
        shapes = [
            lambda i: AGS.atomic(Op.out(ts, "task", i, i % 1000)),
            lambda i: AGS.single(
                Guard.in_(ts, "task", formal(int, "id"), formal(int, "p")),
                [Op.out(ts, "inprog", ref("id"), 1, ref("p"))]),
            lambda i: AGS.single(
                Guard.in_(ts, "inprog", i, 1, formal(int, "p")),
                [Op.out(ts, "result", i, ref("p") * 2)]),
            lambda i: AGS.single(Guard.in_(ts, "result", formal(int), formal(int))),
        ]
        batch = ("BATCH", [
            ExecuteAGS(i + 1, CLIENT_ORIGIN, 0, shapes[i % 4](i)) for i in range(BATCH)
        ])
        size = [0]

        def round_trip(_i: int) -> None:
            blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
            size[0] = len(blob)
            pickle.loads(blob)

        per_batch = self.sample(
            "replication.transport.codec_us_per_cmd", "pickle.dumps+loads", round_trip,
            calls=max(50, self.calls // 8),
        )
        self.metrics["replication.transport.codec_us_per_cmd"] = per_batch / BATCH * _US
        self.metrics["replication.transport.codec_bytes_per_cmd"] = size[0] / BATCH

    # -- parallel.multiproc, persist.durable_on_vs_off ------------------ #

    def process_rungs(self, thr1: float) -> None:
        mp1 = self._blocking_out(lambda: MultiprocessRuntime(1), "parallel.multiproc")
        self.metrics["replication.transport.mp_hop_us"] = mp1 - thr1

        t0 = perf_counter()
        rt = MultiprocessRuntime(3)
        try:
            rt.inp(rt.main_ts, "first", formal(int))  # served, and leaves nothing
        except BaseException:
            rt.shutdown()
            raise
        t1 = perf_counter()
        self.tracer.span("ladder.parallel.multiproc.spawn_s", t0, t1)
        self.metrics["parallel.multiproc.spawn_s"] = t1 - t0

        def blocking_out(rt: Any) -> None:
            ts = rt.main_ts
            self.us("parallel.multiproc.out_us",
                    "parallel.multiproc.MultiprocessRuntime.out",
                    lambda i: rt.out(ts, "k1", i))

        # the same three processes then carry the volatile mini bag
        bag = BagOfTasks(self.seed, scale=_MINI_BAG)
        bag.construct = lambda: rt  # type: ignore[method-assign]
        off = self._bag_rate(bag, blocking_out)

        journal = os.path.join(self.tmp, "ladder-bag")
        prepare_journal(journal, _MINI_BAG)
        durable = DurableBag(self.seed, scale=_MINI_BAG, journal_dir=journal)
        on = self._bag_rate(durable, self._journal_bytes)
        self.metrics["persist.durable_on_vs_off"] = on / off

    def _bag_rate(self, wl: Workload, then: Callable[[Any], None]) -> float:
        """Statements/s over a few mini-bag rounds, conservation checked;
        *then(rt)* gets the runtime before it is shut down."""
        try:
            wl.setup()
            t0 = perf_counter()
            rounds = [wl.run_round(traced=False) for _ in range(6)]
            self.tracer.span(f"ladder.{wl.name}.mini", t0, perf_counter())
            problems = wl.check()
            if problems or wl.failed():
                raise RuntimeError(f"ladder {wl.name}: {problems or wl.errors()}")
            then(wl.rt)
        finally:
            wl.close()
        return median(r.statements / r.wall_s for r in rounds)

    def _journal_bytes(self, rt: Any) -> None:
        status = adapters.journal_status(rt)[0]
        self.metrics["persist.segments.bytes_per_cmd"] = (
            status["total_bytes"] / status["journal_slot"]
        )

    # -- replication.sharding ------------------------------------------- #

    def sharding_rungs(self) -> None:
        cross = {}
        for scale in (1, 2):  # 2,000 and 4,000 resident tuples
            wl = ShardedMix(self.seed, scale=scale)
            wl.warmup_rounds = 0
            wl.strong_probe = True  # rdp beside the rungs: counts the violations
            wl.STATEMENTS = ShardedMix.STATEMENTS // scale  # one round, same length
            try:
                wl.setup()
                start = perf_counter()
                rnd = wl.run_round(traced=True)
                parent = self.tracer.span(
                    f"ladder.replication.sharding[resident={wl.scaled(wl.RESIDENT)}]",
                    start, perf_counter())
                by_op: dict[str, list[float]] = {}
                for cid, op, t0, t1, stmt in rnd.spans:
                    by_op.setdefault(op, []).append(t1 - t0)
                    self.tracer.span(f"{wl.layer}.{op}", t0, t1, parent, f"client-{cid}", stmt)
                cross[scale] = 1e3 * median(by_op["inp"])
                if scale == 1:
                    self.metrics["replication.sharding.single_us"] = _US * median(
                        by_op["in_"] + by_op["out"])
                    self.metrics["replication.sharding.cross_ms"] = cross[1]
                    for _ in range(3):  # 240 probes in all: a round alone often sees none
                        wl.run_round(traced=False)
                    self.metrics["replication.sharding.probe_violations"] = float(
                        sum(wl.violations))
                    ts = wl.ts
                    routed = _US * self.sample(
                        "replication.sharding.route_us",
                        "parallel.threaded.ThreadedReplicaRuntime.out[shards=4]",
                        lambda i: wl.rt.out(ts, "route", i))
                    self.metrics["replication.sharding.route_us"] = (
                        routed - self.metrics["parallel.threaded.out_us"])
            finally:
                wl.close()
        per_tuple = (cross[2] - cross[1]) / ShardedMix.RESIDENT
        self.metrics["replication.sharding.cross_per_tuple_us"] = per_tuple * 1e3

    # -- persist.segments ----------------------------------------------- #

    def persist_rungs(self) -> None:
        ts = LocalRuntime().main_ts
        records = [
            (i + 1, ExecuteAGS(i + 1, CLIENT_ORIGIN, 0, AGS.atomic(Op.out(ts, *fields))))
            for i, fields in enumerate(bag_resident(JOURNAL_RECORDS / 10_000))
        ]
        synced = SegmentedLog(os.path.join(self.tmp, "ladder-synced"), fsync=True)
        unsynced = SegmentedLog(os.path.join(self.tmp, "ladder-unsynced"), fsync=False)
        try:
            batches = max(10, self.calls // BATCH)
            per_batch = self.sample(
                "persist.segments.append_us", "persist.segments.SegmentedLog.append_many",
                lambda i: synced.append_many(records[i * BATCH:(i + 1) * BATCH]),
                calls=batches,
            )
            self.metrics["persist.segments.append_us"] = per_batch / BATCH * _US
            one = max(50, self.calls // 10)
            with_sync = self.sample(
                "persist.segments.fsync_ms[on]", "persist.segments.SegmentedLog.append",
                lambda i: synced.append(*records[i]), calls=one)
            without = self.sample(
                "persist.segments.fsync_ms[off]", "persist.segments.SegmentedLog.append",
                lambda i: unsynced.append(*records[i]), calls=one)
            self.metrics["persist.segments.fsync_ms"] = (with_sync - without) * 1e3
        finally:
            synced.close()
            unsynced.close()

        journal = os.path.join(self.tmp, "ladder-replay")
        log = SegmentedLog(journal, fsync=False)
        try:
            log.append_many(records)
        finally:
            log.close()
        replayed = []
        self.metrics["persist.segments.replay_s"] = self.sample(
            "persist.segments.replay_s", "persist.segments.replay_dir",
            lambda i: replayed.append(len(replay_dir(journal).records)), calls=3,
        )
        if replayed[-1] != len(records):
            raise RuntimeError(f"replay_dir read {replayed[-1]} of {len(records)} records")


_MINI_BAG = 0.2  # the ladder's bags: 2,000 resident tuples, 50 tasks a round


def _core_tuple(v: int) -> tuple:
    key, _shape, rest = core_fields(v)
    return (key, *rest)


def _increment(ts: Any, j: int) -> AGS:
    return AGS.single(
        Guard.in_(ts, "ctr", j, formal(int, "old")),
        [Op.out(ts, "ctr", j, ref("old") + 1)],
    )


def run_ladder(calls: int, seed: int, tmp_root: str) -> tuple[Ladder, Tracer]:
    """All rungs in a scratch directory under *tmp_root*, removed afterwards."""
    tracer = Tracer("ladder")
    tmp = tempfile.mkdtemp(prefix="ladder-", dir=tmp_root)
    try:
        ladder = Ladder(calls, tracer, tmp, seed)
        ladder.run()
        return ladder, tracer
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

"""Sharded tuple space — partitioning vs full replication on a fixed fleet.

The single-sequencer deployment totally orders every command through one
sequencer and applies it on **every** replica: with R replicas, each
``out`` costs one batch pickle plus R pipe writes plus R state-machine
applies.  ``shards=N`` splits the space into N content-partitioned
replica groups with independent sequencers, and a single-shard statement
touches only its own group — the per-command multicast and apply cost
drops from the whole fleet to one partition's replicas.

So the honest comparison holds the **fleet** fixed: ``FLEET`` replica
processes total, deployed as one fully replicated group (``shards=1``,
every process holds everything) or as 2/4 partitions.  Throughput gains
at higher shard counts are exactly the broadcast+apply work that
partitioning removes; they do not depend on spare cores (on a 1-core
host the win is *work removed*, not parallelism gained — with free cores
the independent sequencers additionally run concurrently).

Workloads, per (backend, shard count):

- **pipelined out/s** — clients post ``out`` statements over 16 distinct
  channels (first fields) without waiting, then the run is timed to full
  drain via per-shard in-band quiesces.  Saturates every sequencer; the
  headline column.
- **blocking out+in/s** — synchronous out/in round trips on
  client-private channels: per-operation latency, which sharding must
  not regress (each pair still costs one multicast on one shard).

A final traced segment mixes single-shard and cross-shard (wildcard)
statements on a 4-shard runtime and feeds the flight recorder through
:func:`repro.obs.check.check_consistency` — the per-shard total-order
invariant is machine-checked in the same run that measures throughput.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable

from repro import AGS, Op, formal
from repro.bench import Table, save_table
from repro.obs.check import check_consistency
from repro.obs.tracing import FlightRecorder
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime

SHARD_COUNTS = (1, 2, 4)
CHANNELS = 16  # distinct first fields = distinct partitions
CLIENTS = 8
#: Total replica processes/threads, split evenly across the shard groups:
#: shards=1 -> one 8-replica group, shards=4 -> four 2-replica groups.
FLEET = 8

PIPELINED_OPS = {"threaded": 600, "multiproc": 300}  # per client
BLOCKING_OPS = {"threaded": 150, "multiproc": 50}
QUICK_DIVISOR = 5


def _spawn_clients(clients: int, body: Callable[[int], None]) -> float:
    barrier = threading.Barrier(clients + 1)

    def worker(c: int) -> None:
        barrier.wait()
        body(c)

    threads = [
        threading.Thread(target=worker, args=(c,), name=f"bench-client-{c}")
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def _warmup(rt: Any) -> None:
    for j in range(CHANNELS):
        rt.out(rt.main_ts, f"ch{j}", -1)
        rt.inp(rt.main_ts, f"ch{j}", -1)
    rt.quiesce()


def _pipelined_out(rt: Any, per_client: int) -> float:
    """Pipelined out/s over CHANNELS distinct first fields."""
    _warmup(rt)
    sharded = rt.sharded

    def body(c: int) -> None:
        for k in range(per_client):
            chan = f"ch{(c + k) % CHANNELS}"
            sharded.post_ags(AGS.atomic(Op.out(rt.main_ts, chan, c, k)))

    elapsed = _spawn_clients(CLIENTS, body)
    t0 = time.perf_counter()
    rt.quiesce()  # in-band per shard: answered after every posted command
    drained = elapsed + (time.perf_counter() - t0)
    return CLIENTS * per_client / drained


def _blocking_roundtrip(rt: Any, per_client: int) -> float:
    """Synchronous out+in pairs/s on client-private channels."""
    _warmup(rt)

    def body(c: int) -> None:
        chan = f"client{c}"
        for k in range(per_client):
            rt.out(rt.main_ts, chan, k)
            rt.in_(rt.main_ts, chan, k)

    elapsed = _spawn_clients(CLIENTS, body)
    return CLIENTS * per_client / elapsed


def _checked_cross_shard_segment() -> dict[str, Any]:
    """Mixed single/cross-shard traffic under a tracer, consistency-checked."""
    tracer = FlightRecorder()
    rt = ThreadedReplicaRuntime(2, shards=4, tracer=tracer)
    try:
        for i in range(40):
            rt.out(rt.main_ts, f"ch{i % CHANNELS}", i)
        drained = 0
        while rt.inp(rt.main_ts, formal(str), formal(int)) is not None:
            drained += 1  # wildcard first field: the cross-shard rung
        rt.quiesce()
    finally:
        rt.shutdown()
    report = check_consistency(tracer)
    return {
        "ok": report.ok,
        "drained": drained,
        "compared_slots": report.compared_slots,
        "violations": report.violations,
    }


def run_benchmark(quick: bool = False) -> dict[str, Any]:
    div = QUICK_DIVISOR if quick else 1
    table = Table(
        f"Sharding a fixed fleet of {FLEET} replicas: {CLIENTS} clients, "
        f"{CHANNELS} channels",
        ["backend", "shards", "replicas/shard", "pipelined out/s",
         "blocking out+in/s", "out/s vs 1 shard"],
    )
    results: dict[str, Any] = {}
    for name, make_rt in (
        (
            "threaded",
            lambda s: ThreadedReplicaRuntime(FLEET // s, shards=s),
        ),
        (
            "multiproc",
            lambda s: MultiprocessRuntime(FLEET // s, shards=s),
        ),
    ):
        per_backend: dict[int, dict[str, float]] = {}
        for shards in SHARD_COUNTS:
            rt = make_rt(shards)
            try:
                pipelined = _pipelined_out(rt, PIPELINED_OPS[name] // div)
            finally:
                rt.shutdown()
            rt = make_rt(shards)
            try:
                blocking = _blocking_roundtrip(rt, BLOCKING_OPS[name] // div)
            finally:
                rt.shutdown()
            per_backend[shards] = {
                "replicas_per_shard": FLEET // shards,
                "pipelined_out_per_s": pipelined,
                "blocking_pair_per_s": blocking,
            }
            base = per_backend[SHARD_COUNTS[0]]["pipelined_out_per_s"]
            table.add(
                name, shards, FLEET // shards, pipelined, blocking,
                f"{pipelined / base:.2f}x",
            )
        results[name] = per_backend
    consistency = _checked_cross_shard_segment()
    table.note(
        "fixed fleet: a command on 1 shard is broadcast to and applied by "
        f"all {FLEET} replicas; on 4 shards only by its partition's "
        f"{FLEET // 4} — the removed multicast+apply work is the speedup. "
        f"cross-shard consistency check: "
        f"{'OK' if consistency['ok'] else 'VIOLATED'} "
        f"({consistency['compared_slots']} slots cross-checked)"
    )
    table.note(
        "ops per client (pipelined/blocking): threaded "
        f"{PIPELINED_OPS['threaded'] // div}/{BLOCKING_OPS['threaded'] // div}, "
        f"multiproc {PIPELINED_OPS['multiproc'] // div}/"
        f"{BLOCKING_OPS['multiproc'] // div}; nproc={os.cpu_count()}"
    )
    if quick:
        print(table)
    else:
        save_table(table, "bench_sharding")
    return {"results": results, "consistency": consistency}


def test_sharding_throughput(benchmark):
    out = benchmark.pedantic(
        run_benchmark, kwargs={"quick": True}, rounds=1, iterations=1
    )
    mp = out["results"]["multiproc"]
    # the headline claim: partitioning a fixed process fleet beats full
    # replication on ordered out throughput
    assert (
        mp[4]["pipelined_out_per_s"] >= 1.5 * mp[1]["pipelined_out_per_s"]
    )
    assert out["consistency"]["ok"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_DIVISOR}x fewer ops per cell (CI smoke; writes nothing)",
    )
    opts = parser.parse_args(argv)
    run_benchmark(quick=opts.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

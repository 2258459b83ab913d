"""Command batching — amortizing the per-command sequencing cost.

The replica group's sequencer may drain *all* submissions waiting at the
sequencer lock into one ordered batch, which the transport marshals once
and ships to every replica.  On the multiprocess backend each command
otherwise pays its own pickle plus one pipe write per replica (and one
reply frame back from each), so batching under sustained load should buy
real throughput; on the threaded backend the per-command cost is just a
lock + queue put, so the win is smaller.

Two workloads per (backend, mode):

- **blocking** — clients issue synchronous outs and wait for the ordered
  completion each time.  Latency-bound: clients spend almost all their
  time waiting, the sequencer rarely sees more than one queued
  submission, and batching can't help much.
- **pipelined** — clients post outs without waiting (Linda's ``out`` is
  semantically asynchronous), then the run is timed to full drain via an
  in-band quiesce.  This keeps the sequencer saturated, which is exactly
  the regime batching exists for.

The mean batch size column is read back from the runtime's own metrics
(``batch_size`` histogram) — unbatched runs must show exactly 1.0.
"""

from __future__ import annotations

import threading
import time

from repro import AGS, Op
from repro.bench import Table, save_table
from repro.core.statemachine import ExecuteAGS
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime
from repro.replication.group import CLIENT_ORIGIN

CLIENTS = 8
BLOCKING_OPS = {"threaded": 250, "multiproc": 100}  # outs per client
PIPELINED_OPS = {"threaded": 600, "multiproc": 250}
QUICK_DIVISOR = 5


def _spawn_clients(clients: int, body) -> float:
    """Run *body(c)* on `clients` threads; return wall seconds to join."""
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


def _warmup(rt) -> None:
    """Absorb replica startup (process spawn, imports) before timing."""
    for k in range(20):
        rt.out(rt.main_ts, "warmup", k)
    rt.group.quiesce()


def _blocking_throughput(rt, clients: int, per_client: int) -> float:
    _warmup(rt)

    def body(c: int) -> None:
        for k in range(per_client):
            rt.out(rt.main_ts, "bench", c, k)

    return clients * per_client / _spawn_clients(clients, body)


def _pipelined_throughput(rt, clients: int, per_client: int) -> float:
    _warmup(rt)
    group = rt.group

    def body(c: int) -> None:
        for k in range(per_client):
            rid = group.next_request_id()
            group.post(
                ExecuteAGS(rid, CLIENT_ORIGIN, 0, AGS.atomic(
                    Op.out(rt.main_ts, "pipe", c, k)
                ))
            )

    barrier_elapsed = _spawn_clients(clients, body)
    t0 = time.perf_counter()
    group.quiesce()  # in-band: answered only after every posted command
    drained = barrier_elapsed + (time.perf_counter() - t0)
    return clients * per_client / drained


def _measure(make_rt, name: str, div: int) -> dict[bool, dict[str, float]]:
    """{batching: {"blocking": out/s, "pipelined": out/s, "batch": mean}}."""
    results: dict[bool, dict[str, float]] = {}
    for batching in (False, True):
        rt = make_rt(batching)
        try:
            blocking = _blocking_throughput(
                rt, CLIENTS, BLOCKING_OPS[name] // div
            )
        finally:
            rt.shutdown()
        rt = make_rt(batching)
        try:
            pipelined = _pipelined_throughput(
                rt, CLIENTS, PIPELINED_OPS[name] // div
            )
            mean_batch = rt.metrics_snapshot()["histograms"]["batch_size"]["mean"]
        finally:
            rt.shutdown()
        results[batching] = {
            "blocking": blocking, "pipelined": pipelined, "batch": mean_batch,
        }
    return results


def run_benchmark(quick: bool = False) -> dict[str, dict[bool, dict[str, float]]]:
    """Measure both backends, save the report table, return raw numbers."""
    div = QUICK_DIVISOR if quick else 1
    table = Table(
        f"Command batching: out/s with {CLIENTS} concurrent clients",
        ["backend", "mode", "blocking out/s", "pipelined out/s",
         "mean batch", "pipelined speedup"],
    )
    out: dict[str, dict[bool, dict[str, float]]] = {}
    for name, make_rt in (
        ("threaded", lambda b: ThreadedReplicaRuntime(3, batching=b)),
        ("multiproc", lambda b: MultiprocessRuntime(3, batching=b)),
    ):
        res = _measure(make_rt, name, div)
        out[name] = res
        speedup = res[True]["pipelined"] / res[False]["pipelined"]
        table.add(name, "unbatched", res[False]["blocking"],
                  res[False]["pipelined"], res[False]["batch"], "")
        table.add(name, "batched", res[True]["blocking"],
                  res[True]["pipelined"], res[True]["batch"],
                  f"{speedup:.2f}x")
    table.note(
        "batching amortizes one pickle + one pipe write per replica per "
        "command into one per batch; it pays off once the sequencer is "
        "saturated (pipelined column), most on the multiproc backend"
    )
    save_table(table, "bench_batching")
    return out


def test_batching_throughput(benchmark):
    out = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    mp = out["multiproc"]
    # the headline claim: batched multiproc out-throughput beats unbatched
    assert mp[True]["pipelined"] > mp[False]["pipelined"]
    # and genuinely multi-command batches formed under pipelined fan-in
    assert mp[True]["batch"] > 1.5
    assert mp[False]["batch"] == 1.0


def main(argv=None) -> int:
    import argparse

    from repro.bench import make_result, metric, save_result

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_DIVISOR}x fewer ops per cell (CI smoke)",
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        default="BENCH_batching.json",
        help="machine-readable results path (default: "
        "benchmarks/results/BENCH_batching.json)",
    )
    opts = parser.parse_args(argv)
    out = run_benchmark(quick=opts.quick)
    metrics: dict[str, dict] = {}
    for name, res in out.items():
        metrics[f"{name}_blocking_batched_out_per_s"] = metric(
            res[True]["blocking"], "higher", unit="ops/s"
        )
        metrics[f"{name}_pipelined_unbatched_out_per_s"] = metric(
            res[False]["pipelined"], "higher", unit="ops/s"
        )
        metrics[f"{name}_pipelined_batched_out_per_s"] = metric(
            res[True]["pipelined"], "higher", unit="ops/s"
        )
        metrics[f"{name}_pipelined_speedup"] = metric(
            res[True]["pipelined"] / res[False]["pipelined"], "higher"
        )
        metrics[f"{name}_mean_batch"] = metric(res[True]["batch"], "higher")
    payload = make_result(
        "batching",
        metrics,
        config={
            "clients": CLIENTS,
            "ops": {"blocking": BLOCKING_OPS, "pipelined": PIPELINED_OPS},
        },
        quick=opts.quick,
    )
    print(f"wrote {save_result(payload, opts.json)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Sampling-profiler overhead — what continuous profiling costs.

The profiler's acceptance bar mirrors the flight recorder's: **zero**
overhead when off and **cheap enough to leave on** at the default rate.
Off-path cost is structural, not statistical: when no profiler is
running, the only residue is one dict store per thread start
(``register_thread``) — there is no per-operation branch at all, so the
"off" configuration here is byte-for-byte the seed hot path.  The
enabled path is a sampler *thread* walking ``sys._current_frames()``
at ``DEFAULT_HZ`` (97 Hz, prime, so it cannot phase-lock with periodic
work); the workload threads never see it except through GIL pressure.

Measured as blocking out-throughput with concurrent clients on both
real backends, three configurations each:

- **off**  — profiling never started (the seed behaviour);
- **on**   — ``start_profiling()`` at the default 97 Hz; on the
  multiprocess backend this also runs one sampler per replica process,
  driven over the in-band query lane;
- **hot**  — 997 Hz, ~10x the default rate, showing the cost scales
  with the sampling rate and nothing else.

The off→on delta is the headline: the committed full-size table records
it against the <5% acceptance bound (the test's bound is looser because
blocking round trips are latency-bound and scheduler noise dominates).
"""

from __future__ import annotations

import os
import threading
import time

from repro.bench import Table, save_table
from repro.obs.profile import DEFAULT_HZ
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime

CLIENTS = 8
OPS = {"threaded": 250, "multiproc": 100}  # blocking outs per client
QUICK_DIVISOR = 5
HOT_HZ = 997.0
#: Repeats per (backend, config) cell, best-of.  Blocking round trips are
#: latency-bound, so scheduler interference only ever *lowers* a
#: measurement — the max over fresh runtimes is the low-noise estimator.
REPEATS = 3


def _spawn_clients(clients: int, body) -> float:
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


def _throughput(rt, per_client: int) -> float:
    for k in range(20):  # absorb replica startup before timing
        rt.out(rt.main_ts, "warmup", k)
    rt.quiesce()

    def body(c: int) -> None:
        for k in range(per_client):
            rt.out(rt.main_ts, "bench", c, k)

    return CLIENTS * per_client / _spawn_clients(CLIENTS, body)


CONFIGS = [("off", None), ("on", DEFAULT_HZ), ("hot", HOT_HZ)]


def run_benchmark(quick: bool = False) -> dict[str, dict[str, float]]:
    """Measure both backends, return raw numbers; a full-size run also
    saves the report table (a quick one only prints it)."""
    div = QUICK_DIVISOR if quick else 1
    table = Table(
        f"Sampling-profiler overhead: blocking out/s, {CLIENTS} clients",
        ["backend", "profiling", "out/s", "samples", "vs off"],
    )
    out: dict[str, dict[str, float]] = {}
    for name, make_rt in (
        ("threaded", lambda: ThreadedReplicaRuntime(3)),
        ("multiproc", lambda: MultiprocessRuntime(3)),
    ):
        per = OPS[name] // div
        repeats = 1 if quick else REPEATS
        rates: dict[str, float] = {}
        for label, hz in CONFIGS:
            best, samples = 0.0, 0
            for _ in range(repeats):
                rt = make_rt()
                try:
                    if hz is not None:
                        rt.start_profiling(hz)
                    rate = _throughput(rt, per)
                    got = sum(rt.stop_profiling().values()) if hz else 0
                finally:
                    rt.shutdown()
                if rate > best:
                    best, samples = rate, got
            rates[label] = best
            table.add(
                name, label, best, samples,
                f"{best / rates['off']:.2f}x",
            )
        out[name] = rates
    table.note(
        "off-path cost is structural zero (no per-op branch; one dict "
        f"store per thread start); 'on' samples every thread at "
        f"{DEFAULT_HZ:g} Hz, 'hot' at {HOT_HZ:g} Hz — multiproc rows "
        "include one sampler per replica process; each cell is the best "
        f"of {1 if quick else REPEATS} fresh-runtime repeats (blocking "
        "round trips are latency-bound, so interference only lowers a "
        "measurement)"
    )
    table.note(
        f"blocking outs per client: threaded {OPS['threaded'] // div}, "
        f"multiproc {OPS['multiproc'] // div}; nproc={os.cpu_count()}"
    )
    if quick:
        print(table)
    else:
        save_table(table, "bench_profile")
    return out


def test_profile_overhead(benchmark):
    out = benchmark.pedantic(
        run_benchmark, kwargs={"quick": True}, rounds=1, iterations=1
    )
    for rates in out.values():
        # profiling at the default rate must stay within 25% of the
        # unprofiled throughput even under CI scheduler noise; the
        # committed full-size table is what records the <5% claim
        assert rates["on"] > 0.75 * rates["off"], rates


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

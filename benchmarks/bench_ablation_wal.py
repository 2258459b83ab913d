"""Ablation A5 — stable storage: logging vs replication.

The paper's Sec. 3 argues the design choice this ablation measures:
stable storage could be had by logging to disk, but "in situations where
stable values must also be shared among multiple processors — as is the
case here — replication is a more appropriate choice."  We built the
logging alternative (:mod:`repro.persist`) and measure what each costs:

- **per-operation overhead**: plain in-memory ops vs write-ahead logging
  (OS-buffered) vs logging with per-record fsync (true stable storage);
- **recovery**: log replay time as the log grows, and what compaction
  buys.

The logging arm is :class:`~repro.persist.SegmentedWALRuntime`: a
LocalRuntime over the replica groups' journal, one record (a PLANNED
frame of one command) per command.  It compacts only when asked, so
every command is journaled and nothing is snapshotted unless the
benchmark calls ``compact()`` — the O(history) reference.

The replication side's costs are E2/E4's (one multicast, ~3 ms on the
simulated testbed); the comparison the table's note draws is the paper's:
logging is cheap *per op* on one machine (buffered) or brutally expensive
(fsync), and either way the values are trapped on that machine — only
replication gives every processor local access *and* failure resilience.
"""

from __future__ import annotations

import os
import time

from repro import AGS, Guard, LocalRuntime, Op, formal, ref
from repro.bench import Table, save_table
from repro.core.spaces import MAIN_TS
from repro.persist import SegmentedWALRuntime

N_OPS = 300


def time_ops(rt) -> float:
    """Microseconds per atomic increment on *rt*: best of three windows.

    The ordering assertions below gate CI, so one window that lands on a
    slow stretch of a shared runner must not decide them.
    """
    rt.out(MAIN_TS, "c", 0)
    incr = AGS.single(
        Guard.in_(MAIN_TS, "c", formal(int, "v")),
        [Op.out(MAIN_TS, "c", ref("v") + 1)],
    )
    best = float("inf")
    for _window in range(3):
        t0 = time.perf_counter()
        for _ in range(N_OPS):
            rt.execute(incr)
        best = min(best, time.perf_counter() - t0)
    return best / N_OPS * 1e6


def test_a5_logging_overhead(benchmark, tmp_path):
    def run():
        table = Table(
            "A5a: per-op cost of stable storage by logging (us/op)",
            ["configuration", "us per atomic update"],
        )
        plain = time_ops(LocalRuntime())
        buffered_rt = SegmentedWALRuntime(str(tmp_path / "buf.wal"), fsync=False)
        buffered = time_ops(buffered_rt)
        buffered_rt.close()
        durable_rt = SegmentedWALRuntime(str(tmp_path / "dur.wal"), fsync=True)
        durable = time_ops(durable_rt)
        durable_rt.close()
        table.add("in-memory (no stability)", plain)
        table.add("WAL, OS-buffered", buffered)
        table.add("WAL, fsync per record", durable)
        table.note(
            "paper's point: per-machine logging is either not actually "
            "stable (buffered) or pays a disk sync per op; and the values "
            "remain single-host either way — replication (E2: ~3 ms/AGS "
            "simulated) shares them"
        )
        table.note(f"{N_OPS} updates a window, best of 3; nproc={os.cpu_count()}")
        save_table(table, "ablation_wal_overhead")
        return plain, buffered, durable

    plain, buffered, durable = benchmark.pedantic(run, rounds=1, iterations=1)
    assert plain < buffered < durable
    assert durable > 5 * plain  # fsync dominates everything


def test_a5_recovery_replay(benchmark, tmp_path):
    def run():
        table = Table(
            "A5b: WAL recovery (log replay) and compaction",
            ["log records", "replay ms", "after compaction ms"],
        )
        rows = {}
        for n in (100, 1000, 5000):
            path = str(tmp_path / f"replay{n}.wal")
            rt = SegmentedWALRuntime(path, fsync=False)
            for i in range(n):
                rt.out(MAIN_TS, "x", i % 50)
            rt.crash()
            t0 = time.perf_counter()
            back = SegmentedWALRuntime.recover(path)
            replay_ms = (time.perf_counter() - t0) * 1000
            back.compact()
            back.crash()
            t0 = time.perf_counter()
            again = SegmentedWALRuntime.recover(path)
            compact_ms = (time.perf_counter() - t0) * 1000
            assert again.replayed == 1
            again.close()
            rows[n] = (replay_ms, compact_ms)
            table.add(n, replay_ms, compact_ms)
        table.note("replay is linear in the log; a snapshot head makes "
                   "recovery O(state) instead of O(history)")
        table.note(f"one out per record, 50 distinct tuples; nproc={os.cpu_count()}")
        save_table(table, "ablation_wal_recovery")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rows[5000][0] > rows[100][0]  # replay grows with history
    assert rows[5000][1] < rows[5000][0]  # compaction beats full replay

"""Ablations A3/A4/A5c — recovery pacing, detection, and bounded replay.

Implementation parameters DESIGN.md calls out, each with a real
trade-off this file quantifies:

**A3 — snapshot fragment size.**  E7's development caught the failure
mode twice: unfragmented (or unpaced) snapshot transfers monopolize the
shared 10 Mb medium, starve heartbeats, and get the recovering host (or
its helpers) falsely re-suspected.  The sweep shows the trade: tiny
fragments waste wire/CPU on per-frame overhead; huge ones push the group
toward detector churn.

**A4 — failure-detection latency.**  The heartbeat interval and suspect
timeout trade detection latency (how long a crashed worker's in-progress
subtasks sit unrecycled) against steady-state chatter (frames/second of
heartbeats).  The paper's fail-stop conversion is only as fast as this
detector.

**A5c — recovery time vs snapshot interval.**  The
segmented WAL's acceptance bar: recovery must be bounded by the snapshot
cadence, not the history.  A single-host workload of 10x–100x the A5b
log sizes runs once against a :class:`SegmentedWALRuntime` that never
compacts (the full-log reference: replay is O(history)) and once per
snapshot interval against one that does (replay is one snapshot load
plus the delta since the last compaction, with a mid-interval crash so
the delta is representative).  The headline metric is the 10x speedup, which the
durable plane promises to keep ≥5x; ``main()`` runs it at full size and
saves ``ablation_recovery_interval.txt``.
"""

from __future__ import annotations

from repro import FAILURE_TAG, formal
from repro.bench import Table, save_table
from repro.bench.workloads import make_cluster
from repro.consul.replica import ReplicaLayer


def recovery_with_fragment_size(frag_bytes: int, n_tuples: int, seed: int) -> dict:
    original = ReplicaLayer.SNAPSHOT_FRAGMENT_BYTES
    ReplicaLayer.SNAPSHOT_FRAGMENT_BYTES = frag_bytes
    try:
        cluster = make_cluster(3, seed=seed, quiet=False)

        def writer(view, n):
            for i in range(n):
                yield view.out(view.main_ts, "data", i, "payload-" * 4)

        p = cluster.spawn(0, writer, 5)
        cluster.run_until(p.finished, limit=120_000_000.0)
        cluster.crash(2)
        cluster.settle(1_000_000)
        p = cluster.spawn(0, writer, n_tuples)
        cluster.run_until(p.finished, limit=600_000_000.0)
        frames0 = cluster.segment.stats.frames
        t0 = cluster.sim.now
        cluster.recover(2)
        r2 = cluster.replica(2)
        cluster.run_until(r2.recovered_event, limit=600_000_000.0)
        rejoin_ms = (cluster.sim.now - t0) / 1000.0
        cluster.settle(3_000_000)
        return {
            "rejoin_ms": rejoin_ms,
            "frames": cluster.segment.stats.frames - frames0,
            "converged": cluster.converged(),
        }
    finally:
        ReplicaLayer.SNAPSHOT_FRAGMENT_BYTES = original


def test_a3_fragment_size_tradeoff(benchmark):
    def run():
        table = Table(
            "A3: snapshot fragment size (2000-tuple transfer, 3 replicas)",
            ["fragment B", "rejoin ms", "transfer frames", "converged"],
        )
        rows = {}
        for frag in (1024, 8192, 65536):
            r = recovery_with_fragment_size(frag, 2000, seed=frag)
            rows[frag] = r
            table.add(frag, r["rejoin_ms"], r["frames"], r["converged"])
        table.note(
            "small fragments pay per-frame overhead; the paced 8 KiB "
            "default balances transfer speed against heartbeat starvation"
        )
        save_table(table, "ablation_fragment_size")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for frag, r in rows.items():
        assert r["converged"], f"fragment size {frag}: diverged"
    # smaller fragments cost more frames
    assert rows[1024]["frames"] > rows[65536]["frames"]


def detection_run(hb_us: float, suspect_us: float, seed: int) -> dict:
    cluster = make_cluster(
        3, seed=seed, quiet=False,
        hb_interval_us=hb_us, suspect_timeout_us=suspect_us,
    )
    # measure steady-state chatter over one quiet virtual second
    frames0 = cluster.segment.stats.frames
    cluster.run(until=cluster.sim.now + 1_000_000)
    chatter = cluster.segment.stats.frames - frames0

    # now crash a host and time the failure tuple's appearance
    def watch(view):
        t = yield view.rd(view.main_ts, FAILURE_TAG, formal(int))
        return t

    p = cluster.spawn(0, watch)
    cluster.run(until=cluster.sim.now + 10_000)
    t0 = cluster.sim.now
    cluster.crash(2)
    cluster.run_until(p.finished, limit=600_000_000.0)
    return {
        "chatter_fps": chatter,  # frames per virtual second
        "detect_ms": (cluster.sim.now - t0) / 1000.0,
    }


def test_a4_detection_latency_vs_chatter(benchmark):
    def run():
        table = Table(
            "A4: failure-detector tuning (heartbeat interval, timeout)",
            ["hb ms", "timeout ms", "chatter frames/s", "detect ms"],
        )
        rows = {}
        for hb, to in ((10_000.0, 40_000.0), (25_000.0, 100_000.0),
                       (100_000.0, 400_000.0)):
            r = detection_run(hb, to, seed=int(hb))
            rows[(hb, to)] = r
            table.add(hb / 1000, to / 1000, r["chatter_fps"], r["detect_ms"])
        table.note(
            "the failure tuple (fail-stop conversion) appears one detector "
            "timeout after the crash; chatter scales inversely with the "
            "heartbeat period"
        )
        save_table(table, "ablation_detection")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    fast = rows[(10_000.0, 40_000.0)]
    slow = rows[(100_000.0, 400_000.0)]
    assert fast["detect_ms"] < slow["detect_ms"]
    assert fast["chatter_fps"] > slow["chatter_fps"]


# --------------------------------------------------------------------- #
# A5c — segmented recovery vs full-log replay
# --------------------------------------------------------------------- #

#: A5b's largest replay measurement is 5 000 records — the "1x" here.
BASE_OPS = 5_000
#: Live tuples kept in the space; everything older is consumed, so the
#: snapshot stays O(state) while the log grows O(history).
KEEP = 1_000
#: Snapshot intervals (records between compactions) swept at 10x.
INTERVALS_10X = (1_000, 5_000, 20_000)
INTERVAL_100X = 20_000
QUICK_DIVISOR = 10


def _populate(rt, n_ops: int, compact_every: int | None) -> None:
    """Drive *n_ops* logged commands, compacting at the given cadence.

    First fills the space to KEEP live tuples, then runs out/in pairs so
    the space size stays put while the log keeps growing.  Compaction is
    invoked deterministically from this loop (the runtime has no trigger
    of its own), so every run of a given configuration journals the same
    history.
    """
    from repro.core.spaces import MAIN_TS

    since = 0
    for i in range(n_ops):
        if i < KEEP or (i - KEEP) % 2 == 0:
            rt.out(MAIN_TS, "x", i)
        else:
            rt.in_(MAIN_TS, "x", formal(int))
        since += 1
        if compact_every is not None and since >= compact_every:
            rt.compact()
            since = 0


def _timed_recovery(kind: str, n_ops: int, interval: int | None, tmp: str):
    """Populate, crash, recover; return (recover_seconds, replayed)."""
    import os
    import time

    from repro.persist import SegmentedWALRuntime

    if kind == "fulllog":
        path = os.path.join(tmp, f"full-{n_ops}.wal")
        rt = SegmentedWALRuntime(path, fsync=False)
        _populate(rt, n_ops, None)
        rt.crash()
        t0 = time.perf_counter()
        back = SegmentedWALRuntime.recover(path, fsync=False)
    else:
        path = os.path.join(tmp, f"seg-{n_ops}-{interval}")
        # segments must rotate well below the snapshot interval or
        # compaction has nothing closed to prune and recovery re-scans
        # the whole history anyway (it would skip the covered slots, but
        # only after unpickling them)
        rt = SegmentedWALRuntime(path, fsync=False, segment_bytes=1 << 15)
        # crash mid-interval: the replayed delta is interval/2, the
        # representative case, not the flattering just-compacted one
        assert interval is not None
        _populate(rt, n_ops, interval)
        _populate(rt, interval // 2, None)
        rt.crash()
        t0 = time.perf_counter()
        back = SegmentedWALRuntime.recover(path, fsync=False)
    seconds = time.perf_counter() - t0
    replayed = back.replayed
    back.close()
    return seconds, replayed


def run_recovery_ablation(quick: bool = False) -> dict:
    """Measure the recovery curves and return raw numbers; a full-size run
    also saves the table (a quick one only prints it)."""
    import os
    import tempfile

    div = QUICK_DIVISOR if quick else 1
    sizes = {"10x": 10 * BASE_OPS // div, "100x": 100 * BASE_OPS // div}
    table = Table(
        "A5c: recovery time vs snapshot interval (segmented WAL)",
        ["size", "records", "mode", "interval", "recover ms", "replayed"],
    )
    out: dict = {"sizes": sizes, "curves": {}}
    with tempfile.TemporaryDirectory(prefix="bench-a5c-") as tmp:
        for label, n_ops in sizes.items():
            full_s, full_replayed = _timed_recovery("fulllog", n_ops, None, tmp)
            table.add(label, n_ops, "full log", "-", full_s * 1000, full_replayed)
            intervals = (
                INTERVALS_10X if label == "10x" else (INTERVAL_100X,)
            )
            curve = {"fulllog_s": full_s, "segmented": {}}
            for interval in intervals:
                iv = max(interval // div, 10)
                seg_s, seg_replayed = _timed_recovery(
                    "segmented", n_ops, iv, tmp
                )
                # keyed by the NOMINAL interval so quick and full runs
                # report the same curve
                curve["segmented"][interval] = seg_s
                table.add(
                    label, n_ops, "segmented", iv, seg_s * 1000, seg_replayed
                )
            out["curves"][label] = curve
    best_10x = min(out["curves"]["10x"]["segmented"].values())
    out["speedup_10x"] = out["curves"]["10x"]["fulllog_s"] / best_10x
    table.note(
        "full-log replay is O(history); segmented recovery is one snapshot "
        "load (O(state), state capped at "
        f"{KEEP} live tuples) plus the delta since the last compaction — "
        f"10x speedup here: {out['speedup_10x']:.1f}x (bar: >=5x)"
    )
    table.note(
        f"{'quick' if quick else 'full'} size (records column); "
        f"nproc={os.cpu_count()}"
    )
    if quick:
        print(table)
    else:
        save_table(table, "ablation_recovery_interval")
    return out


def test_a5c_segmented_recovery_bound(benchmark):
    out = benchmark.pedantic(
        run_recovery_ablation, kwargs={"quick": True}, rounds=1, iterations=1
    )
    # the acceptance bar, at quick size: bounded recovery beats full
    # replay by >=5x even before the history grows to the full 10x run
    assert out["speedup_10x"] >= 5.0, out
    # the curve means something: longer intervals replay bigger deltas
    seg = out["curves"]["10x"]["segmented"]
    assert len(seg) == len(INTERVALS_10X)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_DIVISOR}x smaller logs (CI smoke; writes nothing)",
    )
    opts = parser.parse_args(argv)
    run_recovery_ablation(quick=opts.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

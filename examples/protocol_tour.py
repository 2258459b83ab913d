#!/usr/bin/env python3
"""A guided tour of the protocol stack, narrated by its trace.

Runs a tiny cluster through the full lifecycle — normal ordering,
sequencer crash and takeover, restart and state transfer — and prints the
structured event timeline each phase recorded into a flight recorder.  Useful for understanding
*how* the implementation realizes the paper's guarantees, layer by layer.

Run:  python examples/protocol_tour.py
"""

from repro import formal
from repro.consul import ClusterConfig, SimCluster
from repro.obs.tracing import FlightRecorder, render_events
from repro.sim.trace import attach


def banner(title: str) -> None:
    print(f"\n━━━ {title} " + "━" * max(0, 60 - len(title)))


def main() -> None:
    cluster = SimCluster(ClusterConfig(n_hosts=3, seed=7))
    recorder = attach(cluster, FlightRecorder())

    def show(since: float, layer: str, event: str | None = None) -> None:
        """Print one layer's events (of one kind) from virtual µs *since*."""
        print(render_events(
            e for e in recorder.events()
            if e.ts * 1e6 >= since and e.cat == layer and event in (None, e.name)
        ))

    # ---- phase 1: one out(), totally ordered --------------------------- #
    banner("phase 1: one out() from host 2 (host 0 is the sequencer)")

    def client(view):
        yield view.out(view.main_ts, "greeting", "hello")

    mark = cluster.sim.now
    p = cluster.spawn(2, client)
    cluster.run_until(p.finished, limit=60_000_000)
    show(mark, "ord")
    print("  → one sequence event at host 0, one delivery per host.")

    # ---- phase 2: crash the sequencer ------------------------------------ #
    banner("phase 2: crash host 0; host 1 takes the ordering over")
    mark = cluster.sim.now
    cluster.crash(0)
    cluster.settle(2_000_000)
    show(mark, "mem")
    show(mark, "ord", "start_takeover_sync")
    print("  → suspicion on both survivors, ONE ordered exclusion "
          "(announce-leader dedup), takeover sync at host 1.")

    def read_failure(view):
        t = yield view.rd(view.main_ts, "ft_failure", formal(int))
        return t

    p = cluster.spawn(1, read_failure)
    cluster.run_until(p.finished, limit=60_000_000)
    print(f"  failure tuple in tuple space: {p.finished.value}")

    # ---- phase 3: keep working on the survivors --------------------------- #
    banner("phase 3: the group keeps serving (host 1 now sequences)")
    mark = cluster.sim.now

    def writer(view):
        for i in range(2):
            yield view.out(view.main_ts, "post-crash", i)

    p = cluster.spawn(2, writer)
    cluster.run_until(p.finished, limit=60_000_000)
    show(mark, "ord", "sequence")

    # ---- phase 4: restart and state transfer ------------------------------- #
    banner("phase 4: restart host 0 — rejoin + snapshot")
    mark = cluster.sim.now
    cluster.recover(0)
    cluster.run_until(cluster.replica(0).recovered_event, limit=120_000_000)
    show(mark, "mem")
    show(mark, "replica")
    cluster.settle(2_000_000)
    prints = [cluster.replica(h).stable_fingerprint() for h in range(3)]
    print(f"  → all three replicas identical again: {len(set(prints)) == 1}")

    banner("totals")
    print(f"  events traced : {len(recorder)}")
    s = cluster.segment.stats.snapshot()
    print(f"  wire          : {s['frames']} frames "
          f"({s['broadcast_frames']} broadcasts), {s['bytes']} bytes")


if __name__ == "__main__":
    main()

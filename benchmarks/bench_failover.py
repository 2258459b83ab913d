"""Failover latency — what a replica crash actually costs the clients.

The liveness plane (``LivenessPolicy``) turns the paper's fail-silent
crash into a fail-stop event: a monitor thread combines in-band
PING/PONG silence with a transport probe, declares the replica dead
through the same ordered path as a cooperative ``crash_replica``, and —
with ``auto_recover`` — restarts it and transfers state back in.  This
benchmark measures that whole arc on both parallel backends, under live
client churn, with the kill injected *behind the group's back* by
:class:`repro.chaos.ChaosMonkey` (SIGKILL on multiproc):

- **detect**: kill → the group's alive mask flips (detector latency;
  bounded by ``suspect_after`` + a few probe ticks);
- **visible**: kill → a client's blocking ``rd`` of the ordered failure
  tuple returns (the paper's programmable failure handling — when a
  *program* can react);
- **recover**: detection → the reincarnated replica rejoins via state
  transfer;
- **max stall**: the longest gap between consecutive completed ops any
  churn client observed across the whole run — the end-to-end
  availability cost of crash + detection + frozen-order state transfer;
- **converged**: all replicas fingerprint-identical at the end.

Medians over ``--repeats`` trials; ``--quick`` is the CI smoke size.
"""

from __future__ import annotations

import argparse
import os
import statistics
import threading
import time

from repro import formal
from repro.bench import Table, save_table
from repro.chaos import ChaosMonkey
from repro.core.statemachine import FAILURE_TAG
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime
from repro.replication import LivenessPolicy

N_REPLICAS = 3
CLIENTS = 4

# Tight detector so the benchmark measures the machinery, not the
# defaults: suspect after 250ms of silence, probing every 50ms.
POLICY_KW = dict(
    probe_interval=0.05,
    suspect_after=0.25,
    auto_recover=True,
    backoff_initial=0.05,
    backoff_max=0.5,
)


def _make_runtime(backend: str):
    policy = LivenessPolicy(**POLICY_KW)
    if backend == "threaded":
        return ThreadedReplicaRuntime(n_replicas=N_REPLICAS, detect_failures=policy)
    return MultiprocessRuntime(n_replicas=N_REPLICAS, detect_failures=policy)


def _failover_trial(backend: str, churn_s: float, seed: int) -> dict[str, float]:
    """One kill under churn; return the latency decomposition."""
    rt = _make_runtime(backend)
    monkey = ChaosMonkey(rt, seed=seed)
    stop = threading.Event()
    counts = [0] * CLIENTS
    max_gap = [0.0] * CLIENTS

    def churn(c: int) -> None:
        last = time.perf_counter()
        k = 0
        while not stop.is_set():
            rt.out(rt.main_ts, "churn", c, k)
            rt.in_(rt.main_ts, "churn", c, k)
            now = time.perf_counter()
            max_gap[c] = max(max_gap[c], now - last)
            last = now
            counts[c] += 1
            k += 1

    threads = [
        threading.Thread(target=churn, args=(c,), name=f"churn-{c}")
        for c in range(CLIENTS)
    ]
    visible: list[float] = []
    try:
        for t in threads:
            t.start()
        time.sleep(churn_s)  # a healthy baseline before the fault

        victim = monkey.rng.randrange(1, N_REPLICAS)
        t_kill = time.perf_counter()

        def watch() -> None:
            # programmable failure handling: block on the ordered
            # failure tuple like the paper's recovery AGSs would
            rt.rd(rt.main_ts, FAILURE_TAG, formal(int), timeout=30.0)
            visible.append(time.perf_counter() - t_kill)

        watcher = threading.Thread(target=watch, name="failure-watcher")
        watcher.start()
        monkey.kill_replica(victim)
        t_detect = monkey.wait_detected(victim, timeout=10.0)
        t_recover = monkey.wait_recovered(victim, timeout=30.0)
        watcher.join(30.0)
        time.sleep(churn_s)  # churn across the healed group
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=60.0)
    try:
        rt.quiesce()
        converged = rt.converged()
    finally:
        rt.shutdown()
    return {
        "detect_s": t_detect,
        "visible_s": visible[0] if visible else float("nan"),
        "recover_s": t_recover,
        "max_stall_s": max(max_gap),
        "ops": float(sum(counts)),
        "converged": float(converged),
    }


def _median(trials: list[dict[str, float]], key: str) -> float:
    return statistics.median(t[key] for t in trials)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick", action="store_true", help="CI-sized run (writes nothing)"
    )
    ap.add_argument(
        "--repeats", type=int, default=0,
        help="trials per backend (default: 3, or 1 with --quick)",
    )
    args = ap.parse_args()
    repeats = args.repeats or (1 if args.quick else 3)
    churn_s = 0.2 if args.quick else 0.5

    table = Table(
        "Failover under churn: SIGKILL → detect → failure tuple → "
        f"auto-recover ({N_REPLICAS} replicas, {CLIENTS} clients, "
        f"suspect_after={POLICY_KW['suspect_after']}s)",
        ["backend", "detect ms", "visible ms", "recover ms",
         "max stall ms", "ops", "converged"],
    )
    for backend in ("threaded", "multiproc"):
        trials = [
            _failover_trial(backend, churn_s, seed) for seed in range(repeats)
        ]
        table.add(
            backend,
            f"{_median(trials, 'detect_s') * 1e3:.0f}",
            f"{_median(trials, 'visible_s') * 1e3:.0f}",
            f"{_median(trials, 'recover_s') * 1e3:.0f}",
            f"{_median(trials, 'max_stall_s') * 1e3:.0f}",
            f"{_median(trials, 'ops'):.0f}",
            "yes" if all(t["converged"] for t in trials) else "NO",
        )
    table.note(
        f"median of {repeats} trial(s) per backend, {churn_s:g}s of churn "
        f"either side of the kill; nproc={os.cpu_count()}"
    )
    if args.quick:
        print(table)
    else:
        save_table(table, "bench_failover")


if __name__ == "__main__":
    main()

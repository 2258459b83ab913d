"""Ablation A1 — total-order algorithm: fixed sequencer vs token ring.

DESIGN.md calls out the ordering protocol as the implementation's key
design choice.  The paper's Consul uses a centralized ordering scheme;
this ablation quantifies the trade-off against the classic decentralized
alternative on identical workloads:

- **idle-cluster latency** (1 client): the sequencer answers in a fixed
  two hops; a token-ring submission waits for the token (~half a rotation
  on average) — sequencer should win clearly;
- **multi-source throughput** (every host submitting): the sequencer's
  CPU serializes all ordering work; the ring rotates it — the gap should
  narrow or invert;
- **wire cost**: the ring replaces per-request REQ unicasts with a steady
  background of token frames.
"""

from __future__ import annotations

from repro.bench import Table, save_table
from repro.bench.workloads import make_cluster, mean

N_SAMPLES = 30


def idle_latency(ordering: str, n_hosts: int, seed: int) -> float:
    cluster = make_cluster(n_hosts, seed=seed, ordering=ordering)
    samples: list[float] = []

    def driver(view):
        for i in range(N_SAMPLES):
            t0 = view.sim.now
            yield view.out(view.main_ts, "m", i)
            samples.append(view.sim.now - t0)

    proc = cluster.spawn(n_hosts - 1, driver)
    cluster.run_until(proc.finished, limit=240_000_000.0)
    if proc.error is not None:
        raise proc.error
    return mean(samples)


def loaded_run(ordering: str, n_hosts: int, per_host: int, seed: int) -> dict:
    cluster = make_cluster(n_hosts, seed=seed, ordering=ordering)
    t0 = cluster.sim.now

    def driver(view, tag):
        for i in range(per_host):
            yield view.out(view.main_ts, tag, i)

    procs = [cluster.spawn(h, driver, f"t{h}") for h in range(n_hosts)]
    cluster.run_until_all(procs, limit=600_000_000.0)
    elapsed = cluster.sim.now - t0
    total = n_hosts * per_host
    cluster.settle(2_000_000)
    assert cluster.converged()
    assert cluster.replica(0).space_size(cluster.main_ts) == total
    return {
        "elapsed_ms": elapsed / 1000.0,
        "throughput_per_s": total / (elapsed / 1_000_000.0),
        "frames": cluster.segment.stats.frames,
    }


def test_ablation_ordering_idle_latency(benchmark):
    def run():
        table = Table(
            "A1a: single-client out() latency, sequencer vs token ring "
            "(virtual ms)",
            ["replicas", "sequencer ms", "token ring ms"],
        )
        rows = {}
        for n in (3, 5, 8):
            seq = idle_latency("sequencer", n, seed=n) / 1000.0
            tok = idle_latency("token", n, seed=n) / 1000.0
            rows[n] = (seq, tok)
            table.add(n, seq, tok)
        table.note("token ring pays ~half a rotation of waiting per op")
        save_table(table, "ablation_ordering_latency")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for n, (seq, tok) in rows.items():
        assert seq < tok  # the paper's centralized choice wins idle latency
    # and the ring's penalty grows with ring size
    assert rows[8][1] > rows[3][1]


def test_ablation_ordering_loaded_throughput(benchmark):
    def run():
        table = Table(
            "A1b: all-hosts load (every host submits 20 ops), 5 replicas",
            ["algorithm", "elapsed ms", "ops/s", "frames"],
        )
        seq = loaded_run("sequencer", 5, 20, seed=1)
        tok = loaded_run("token", 5, 20, seed=1)
        table.add("sequencer", seq["elapsed_ms"], seq["throughput_per_s"],
                  seq["frames"])
        table.add("token ring", tok["elapsed_ms"], tok["throughput_per_s"],
                  tok["frames"])
        table.note(
            "under multi-source load the sequencer CPU serializes ordering; "
            "the ring distributes it (at the cost of token traffic)"
        )
        save_table(table, "ablation_ordering_loaded")
        return seq, tok

    seq, tok = benchmark.pedantic(run, rounds=1, iterations=1)
    # correctness held for both (asserted inside); the ring must at least
    # close most of the idle-latency gap under load
    assert tok["elapsed_ms"] < seq["elapsed_ms"] * 3

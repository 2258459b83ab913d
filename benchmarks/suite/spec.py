"""What the suite declares: workloads, metrics, units, directions, bounds.

This is the vocabulary later issues use.  ``BENCHMARK.json`` at the repo
root carries the same names (the smoke test holds the two together); the
prediction column — which end-to-end metric a layer metric should move,
on which workload — lives only here and in the README, because the
manifest's entries have a fixed set of keys.
"""

from __future__ import annotations

from typing import NamedTuple

#: Client threads in the multi-client workloads.  Every workload is a
#: closed loop; the harness never starts more clients than ``os.cpu_count()``.
MAX_CLIENTS = 2

#: Statements a blocking call may take before it counts as failed.
STATEMENT_TIMEOUT_S = 30.0


class Workload(NamedTuple):
    name: str
    why: str  # one line, <= 200 characters (BENCHMARK.json carries it)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the prediction, written before measuring


WORKLOADS = [
    Workload(
        "local_core",
        "LocalRuntime, 1 client, out/in/rd/inp/AGS mix over 50k resident tuples: "
        "core.* does all the work, so every replication or codec change must leave it flat",
    ),
    Workload(
        "pingpong",
        "S/Net ping-pong on 3 threaded replicas: one command in flight, so the fixed "
        "per-command cost of replication.group sets the round trip and batching cannot help",
    ),
    Workload(
        "pingpong_mp",
        "the same ping-pong on 3 replica processes: adds pickle and multiprocessing.Queue hops, "
        "so a codec or transport change moves this and leaves pingpong flat",
    ),
    Workload(
        "bag_of_tasks",
        "the paper's bag of tasks on 3 replica processes, pipelined fill and AGS-heavy workers: "
        "many commands in flight, so batch size, codec bytes and body interpretation set throughput",
    ),
    Workload(
        "durable_bag",
        "bag_of_tasks with durable_dir and fsync on a recovered journal: the throughput ratio is "
        "the writer's price of durability, and setup_s is the time without service after a crash",
    ),
    Workload(
        "read_mostly",
        "90% rd on the read fast path beside 10% AGS increments on one threaded group: "
        "a change that trades the ordered path against the read lane shows as one metric up, one down",
    ),
    Workload(
        "sharded_mix",
        "shards=4 with keyed pairs, wildcard-first-field inp and reads of a resident sentinel: the "
        "only workload where replication.sharding works; p99 is the cross-shard rung",
    ),
]

# The timings carry the widest bound a manifest may state, not the 0.10
# one would like: the reference VM's host runs at speeds a quarter apart
# and drifts between them within minutes (README, "Noise"), so ten runs of
# one commit spread by 5-17% of their median.
END_TO_END = [
    EndToEnd("ops_per_s", "statements/s", "higher", 0.25),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25),
    EndToEnd("op_p99_ms", "ms", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
]

_LC = "ops_per_s on local_core"
LAYERS = [
    Layer("core.tuples.make_us", "us", "lower", _LC),
    Layer("core.matching.add_us", "us", "lower", _LC),
    Layer("core.matching.take_hit_us", "us", "lower", _LC),
    Layer("core.matching.read_hit_us", "us", "lower", _LC),
    Layer("core.matching.miss_us", "us", "lower", _LC),
    Layer("core.matching.wild_first_us", "us", "lower",
          _LC + "; op_p99_ms on sharded_mix"),
    Layer("core.matching.attempts_per_hit", "ratio", "lower", _LC),
    Layer("core.ags.build_out_us", "us", "lower",
          _LC + "; op_p50_ms on pingpong (client side of every statement)"),
    Layer("core.ags.build_in_us", "us", "lower", _LC + "; op_p50_ms on pingpong"),
    Layer("core.ags.build_body_us", "us", "lower", _LC + "; ops_per_s on bag_of_tasks"),
    Layer("core.statemachine.apply_out_us", "us", "lower",
          _LC + " and bag_of_tasks (applied 3x per command there)"),
    Layer("core.statemachine.apply_in_us", "us", "lower", _LC + " and bag_of_tasks"),
    Layer("core.statemachine.apply_ags_us", "us", "lower", _LC + " and bag_of_tasks"),
    Layer("core.statemachine.wake_us", "us", "lower",
          "op_p50_ms on pingpong (every in_ there is released by an out)"),
    Layer("core.statemachine.snapshot_ms", "ms", "lower", "setup_s on durable_bag"),
    Layer("core.runtime.out_us", "us", "lower", _LC),
    Layer("core.runtime.in_us", "us", "lower", _LC),
    Layer("core.runtime.rd_us", "us", "lower", _LC),
    Layer("core.runtime.ags_us", "us", "lower", _LC),
    Layer("replication.group.call_us", "us", "lower", "op_p50_ms on pingpong"),
    Layer("replication.group.fanout_us", "us", "lower",
          "op_p50_ms on pingpong and pingpong_mp (designated replier)"),
    Layer("replication.group.post_us", "us", "lower",
          "ops_per_s on bag_of_tasks and durable_bag"),
    Layer("replication.group.batch_mean", "cmd/batch", "higher",
          "ops_per_s on bag_of_tasks; must stay ~1 on pingpong"),
    Layer("replication.group.batches_per_cmd", "ratio", "lower",
          "ops_per_s on bag_of_tasks; must stay ~1 on pingpong"),
    Layer("replication.group.submit_to_order_us", "us", "lower",
          "queue wait: op_p50_ms on pingpong; op_p99_ms on bag_of_tasks"),
    Layer("replication.group.order_to_apply_us", "us", "lower",
          "apply: op_p50_ms on pingpong; op_p99_ms on bag_of_tasks"),
    Layer("replication.group.read_fast_share", "ratio", "higher",
          "ops_per_s on read_mostly"),
    Layer("replication.group.rd_us", "us", "lower", "op_p50_ms on read_mostly"),
    Layer("replication.group.rd_ordered_us", "us", "lower",
          "op_p50_ms on read_mostly if the fast path is lost"),
    Layer("replication.transport.codec_bytes_per_cmd", "B", "lower",
          "ops_per_s on bag_of_tasks; op_p50_ms on pingpong_mp; nothing on pingpong"),
    Layer("replication.transport.codec_us_per_cmd", "us", "lower",
          "ops_per_s on bag_of_tasks; op_p50_ms on pingpong_mp; nothing on pingpong"),
    Layer("replication.transport.mp_hop_us", "us", "lower", "op_p50_ms on pingpong_mp"),
    Layer("parallel.threaded.out_us", "us", "lower", "op_p50_ms on pingpong"),
    Layer("parallel.multiproc.out_us", "us", "lower", "op_p50_ms on pingpong_mp"),
    Layer("parallel.multiproc.spawn_s", "s", "lower",
          "setup_s on pingpong_mp and bag_of_tasks"),
    Layer("replication.sharding.route_us", "us", "lower",
          "ops_per_s on sharded_mix; must be ~0 on every unsharded workload"),
    Layer("replication.sharding.single_us", "us", "lower", "ops_per_s on sharded_mix"),
    Layer("replication.sharding.cross_ms", "ms", "lower", "op_p99_ms on sharded_mix"),
    Layer("replication.sharding.cross_per_tuple_us", "us", "lower",
          "op_p99_ms on sharded_mix as the space grows"),
    Layer("replication.sharding.probe_violations", "count", "lower",
          "nothing end to end: sharded_mix reads with rd, which waits where rdp misses"),
    Layer("persist.segments.append_us", "us", "lower", "ops_per_s on durable_bag only"),
    Layer("persist.segments.fsync_ms", "ms", "lower", "ops_per_s on durable_bag only"),
    Layer("persist.segments.bytes_per_cmd", "B", "lower",
          "setup_s and ops_per_s on durable_bag"),
    Layer("persist.segments.replay_s", "s", "lower", "setup_s on durable_bag"),
    Layer("persist.durable_on_vs_off", "ratio", "higher",
          "ops_per_s(durable_bag) / ops_per_s(bag_of_tasks): the writer's price of durability"),
    Layer("harness.trace_overhead", "ratio", "higher",
          "bounds how far the ladder can be trusted"),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]


def manifest(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The content ``BENCHMARK.json`` must have, from the tables above."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYERS
        ],
    }

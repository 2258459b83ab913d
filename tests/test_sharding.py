"""Content-partitioned sharding: router, classifier, and cross-shard rung.

The sharded deployments must be *transparent*: every observable Linda
semantic of the single-sequencer group holds unchanged (the backend
contract suite runs verbatim over the ``-s4`` variants), while this file
pins down the machinery itself — the stable partitioner, the AGS shard
classifier, cross-shard statements, per-shard read-your-writes, and
failure/recovery of individual shard groups.
"""

import subprocess
import sys

import pytest

from repro import AGS, FAILURE_TAG, Guard, Op, formal, ref
from repro.core.matching import shard_key, shard_of
from repro.core.spaces import MAIN_TS
from repro.obs.check import check_consistency
from repro.obs.tracing import FlightRecorder
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime


# --------------------------------------------------------------------------- #
# the partitioner
# --------------------------------------------------------------------------- #


class TestPartitioner:
    def test_shard_of_is_stable_and_in_range(self):
        for n in (1, 2, 4, 7):
            for first in ("task", 0, 3.5, ("a", 1), None, True):
                k = shard_of(0, first, n)
                assert 0 <= k < n
                assert shard_of(0, first, n) == k

    def test_single_shard_short_circuits(self):
        assert shard_of(0, "anything", 1) == 0

    def test_space_id_is_part_of_the_key(self):
        # the same first field in different spaces must be free to land on
        # different shards; with 64-bit digests the keys always differ
        assert shard_key(0, "x") != shard_key(1, "x")

    def test_memo_does_not_alias_equal_but_distinct_values(self):
        # 1, 1.0 and True are == and hash-equal, but repr (hence shard)
        # distinct — the hot-path memo must not collapse them
        import hashlib

        for first in (1, 1.0, True):
            expected = int.from_bytes(
                hashlib.blake2b(
                    repr((0, first)).encode(), digest_size=8
                ).digest(),
                "big",
                signed=False,
            )
            assert shard_key(0, first) == expected  # cold (or cached) path
            assert shard_key(0, first) == expected  # memoized path

    def test_deterministic_across_hash_seeds(self):
        """The partition key must not involve builtin hash().

        Replicas run in separate OS processes with different
        PYTHONHASHSEED values; a salted hash would route the same tuple to
        different shards in different processes.  Compute a batch of shard
        assignments in subprocesses under two forced seeds and require
        identical results.
        """
        prog = (
            "from repro.core.matching import shard_of\n"
            "vals = ['task', 'result', 'worker-7', 0, 123456789, 3.25,\n"
            "        ('nested', 'tuple'), None, True]\n"
            "print([shard_of(sid, v, 8) for sid in (0, 1) for v in vals])\n"
        )
        outs = set()
        for seed in ("0", "4242"):
            res = subprocess.run(
                [sys.executable, "-c", prog],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                check=True,
            )
            outs.add(res.stdout.strip())
        assert len(outs) == 1, f"shard routing varied with PYTHONHASHSEED: {outs}"


# --------------------------------------------------------------------------- #
# the AGS classifier
# --------------------------------------------------------------------------- #


class TestShardClassifier:
    def test_constant_first_field_pins_one_shard(self):
        ags = AGS.atomic(Op.out(MAIN_TS, "jobs", 1))
        assert ags.shard_set(4) == frozenset({shard_of(MAIN_TS.id, "jobs", 4)})

    def test_guard_and_body_same_channel_stay_single_shard(self):
        ags = AGS.single(
            Guard.in_(MAIN_TS, "c", formal(int, "v")),
            [Op.out(MAIN_TS, "c", ref("v") + 1)],
        )
        assert ags.shard_set(4) == frozenset({shard_of(MAIN_TS.id, "c", 4)})

    def test_distinct_channels_may_span_shards(self):
        ags = AGS.single(
            Guard.in_(MAIN_TS, "task", formal(int, "n")),
            [Op.out(MAIN_TS, "result", ref("n"))],
        )
        expect = {
            shard_of(MAIN_TS.id, "task", 4),
            shard_of(MAIN_TS.id, "result", 4),
        }
        assert ags.shard_set(4) == frozenset(expect)

    def test_wildcard_first_field_is_unroutable(self):
        ags = AGS.atomic(Op.inp(MAIN_TS, formal(str), formal(int)))
        assert ags.shard_set(4) is None

    def test_one_shard_total_is_always_shard_zero(self):
        ags = AGS.atomic(Op.inp(MAIN_TS, formal(str), formal(int)))
        assert ags.shard_set(1) == frozenset({0})


# --------------------------------------------------------------------------- #
# sharded runtime behaviour
# --------------------------------------------------------------------------- #


@pytest.fixture
def rt4():
    runtime = ThreadedReplicaRuntime(n_replicas=3, shards=4)
    yield runtime
    runtime.shutdown()


class TestShardedRuntime:
    def test_content_actually_spreads_across_groups(self, rt4):
        for i in range(32):
            rt4.out(rt4.main_ts, f"chan-{i}", i)
        rt4.quiesce()
        sizes = [g.space_size(rt4.main_ts) for g in rt4.shard_groups]
        assert sum(sizes) == 32
        assert sum(1 for s in sizes if s > 0) >= 2, f"no spread: {sizes}"

    def test_read_your_writes_per_shard(self, rt4):
        # rd on each channel takes that shard's read fast path; the session
        # floor must make the immediately preceding out visible
        for i in range(16):
            chan = f"ryw-{i}"
            rt4.out(rt4.main_ts, chan, i)
            assert rt4.rd(rt4.main_ts, chan, formal(int)) == (chan, i)

    def test_cross_shard_wildcard_consumes_everything(self, rt4):
        for i in range(8):
            rt4.out(rt4.main_ts, f"w{i}", i)
        seen = set()
        for _ in range(8):
            got = rt4.inp(rt4.main_ts, formal(str), formal(int))
            assert got is not None
            seen.add(got[0])
        assert seen == {f"w{i}" for i in range(8)}
        assert rt4.inp(rt4.main_ts, formal(str), formal(int)) is None
        assert rt4.space_size(rt4.main_ts) == 0

    def test_rung_replies_are_not_memoized(self, rt4):
        """An ExtractTuples reply is a whole partition and is submitted
        once, under a fresh id: remembering it can serve no resubmission."""
        for i in range(60):
            rt4.out(rt4.main_ts, f"m{i}", i)
        for _ in range(50):
            assert rt4.inp(rt4.main_ts, formal(str), formal(int)) is not None
        for shard in range(4):
            snapshot, _applied = rt4.query(0, "snapshot", shard=shard)
            kept = [
                result
                for _rid, result in snapshot["completed"]
                if isinstance(result, dict) and "extracted" in result
            ]
            assert kept == []
        left = [
            i for i in range(60) if rt4.rdp(rt4.main_ts, f"m{i}", i) is not None
        ]
        assert len(left) == 10

    def test_cross_shard_move_is_deterministic(self):
        """move with a wildcard template relocates every tuple, and two

        independent sharded runtimes end up with identical space contents
        (the rung replays extracted tuples in a deterministic order).
        """
        contents = []
        for _round in range(2):
            rt = ThreadedReplicaRuntime(n_replicas=3, shards=4)
            try:
                dst = rt.create_space("dst")
                for i in range(10):
                    rt.out(rt.main_ts, f"m{i % 3}", i)
                rt.move(rt.main_ts, dst, formal(str), formal(int))
                assert rt.space_size(rt.main_ts) == 0
                assert rt.space_size(dst) == 10
                got = []
                while True:
                    t = rt.inp(dst, formal(str), formal(int))
                    if t is None:
                        break
                    got.append(tuple(t))
                contents.append(sorted(got))
            finally:
                rt.shutdown()
        assert contents[0] == contents[1]

    def test_cross_shard_blocking_in_wakes_on_out(self, rt4):
        h = rt4.eval_(
            lambda proc: proc.in_(proc.main_ts, formal(str, "k"), 77)
        )
        rt4.out(rt4.main_ts, "wake-chan", 77)
        assert h.join(timeout=30) == ("wake-chan", 77)

    def test_space_ids_identical_across_shards(self, rt4):
        h1 = rt4.create_space("alpha")
        h2 = rt4.create_space("beta")
        assert h1.id != h2.id
        for g in rt4.shard_groups:
            # every shard's registry must resolve both handles
            assert g.space_size(h1) == 0
            assert g.space_size(h2) == 0
        rt4.destroy_space(h1)
        h3 = rt4.create_space("gamma")
        rt4.out(h3, "x", 1)
        assert rt4.space_size(h3) == 1


class TestShardFailure:
    def test_crash_deposits_one_failure_tuple_globally(self, rt4):
        rt4.crash_replica(1)
        assert rt4.inp(rt4.main_ts, FAILURE_TAG, 1) is not None
        # exactly one: the shard-filtered HostFailed conversion must not
        # deposit a copy per shard group
        assert rt4.inp(rt4.main_ts, FAILURE_TAG, 1) is None

    def test_shard_group_crash_and_recover_reconverges(self, rt4):
        for i in range(12):
            rt4.out(rt4.main_ts, f"pre-{i}", i)
        victim = rt4.shard_groups[2]
        victim.crash_replica(1, notify=False)
        for i in range(12):
            rt4.out(rt4.main_ts, f"mid-{i}", i)
        # replica 1 is down in shard2 only: combined fingerprints skip it
        assert len(rt4.fingerprints()) == 2
        assert rt4.converged()
        victim.recover_replica(1)
        for i in range(12):
            rt4.out(rt4.main_ts, f"post-{i}", i)
        prints = rt4.fingerprints()
        assert len(prints) == 3
        assert len(set(prints)) == 1

    def test_chaos_monkey_targets_named_and_random_shards(self, rt4):
        from repro.chaos import ChaosMonkey

        monkey = ChaosMonkey(rt4, seed=7, shard="shard3")
        assert monkey.group is rt4.shard_groups[3]
        monkey = ChaosMonkey(rt4, seed=7, shard=1)
        assert monkey.group is rt4.shard_groups[1]
        monkey = ChaosMonkey(rt4, seed=7, shard="random")
        assert monkey.group in rt4.shard_groups
        with pytest.raises(ValueError):
            ChaosMonkey(rt4, shard="shard99")


class TestShardedTraces:
    def test_consistency_checker_partitions_by_shard(self):
        tracer = FlightRecorder()
        rt = ThreadedReplicaRuntime(n_replicas=3, shards=2, tracer=tracer)
        try:
            for i in range(24):
                rt.out(rt.main_ts, f"tr-{i}", i)
                rt.in_(rt.main_ts, f"tr-{i}", i)
            rt.quiesce()
        finally:
            rt.shutdown()
        report = check_consistency(tracer)
        assert report.ok, report.summary()
        shards = {t.split("/")[0] for t in report.streams if "/" in t}
        assert shards == {"shard0", "shard1"}
        assert report.compared_slots > 0


class TestShardedMultiproc:
    def test_out_in_and_convergence_across_process_shards(self):
        with MultiprocessRuntime(n_replicas=2, shards=2) as rt:
            for i in range(8):
                rt.out(rt.main_ts, f"mp-{i}", i)
            for i in range(8):
                assert rt.in_(rt.main_ts, f"mp-{i}", formal(int)) == (
                    f"mp-{i}",
                    i,
                )
            assert rt.converged()

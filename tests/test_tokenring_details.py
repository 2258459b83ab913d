"""Focused token-ring ordering tests (beyond the shared protocol suite)."""

from repro.consul import ClusterConfig, SimCluster
from repro.consul.config import ConsulConfig
from repro.consul.tokenring import TokenRingLayer

LIMIT = 600_000_000.0


def make(n=3, seed=0, **consul):
    return SimCluster(
        ClusterConfig(n_hosts=n, seed=seed, ordering="token",
                      consul=ConsulConfig(**consul))
    )


def writer(view, tag, n):
    for i in range(n):
        yield view.out(view.main_ts, tag, i)


class TestRotation:
    def test_layer_type_installed(self):
        c = make()
        assert isinstance(c.ordering(0), TokenRingLayer)

    def test_token_circulates_when_idle(self):
        c = make(seed=1)
        c.run(until=1_000_000)
        passes = sum(c.ordering(h).tokens_passed for h in range(3))
        assert passes > 10  # the token keeps moving even with no traffic

    def test_all_hosts_get_to_sequence(self):
        c = make(seed=2)
        procs = [c.spawn(h, writer, f"t{h}", 4) for h in range(3)]
        c.run_until_all(procs, limit=LIMIT)
        c.settle(1_000_000)
        assert c.converged()
        # every host passed the token at least once → every host held it
        assert all(c.ordering(h).tokens_passed > 0 for h in range(3))

    def test_single_member_ring_short_circuits(self):
        c = make(n=1, seed=3)
        p = c.spawn(0, writer, "x", 5)
        c.run_until(p.finished, limit=LIMIT)
        assert c.replica(0).space_size(c.main_ts) == 5
        # nobody to pass to: the sole member keeps the token
        assert c.ordering(0).has_token


class TestTokenFailures:
    def test_regeneration_has_higher_epoch(self):
        c = make(seed=4)
        p = c.spawn(1, writer, "pre", 2)
        c.run_until(p.finished, limit=LIMIT)
        c.crash(0)
        p = c.spawn(1, writer, "post", 2)
        c.run_until(p.finished, limit=LIMIT)
        c.settle(2_000_000)
        epochs = {c.ordering(h).token_epoch for h in (1, 2)}
        assert max(epochs) >= 1  # at least one regeneration happened
        assert c.converged()

    def test_two_crashes_sequential(self):
        c = make(n=5, seed=5)
        p = c.spawn(4, writer, "a", 3)
        c.run_until(p.finished, limit=LIMIT)
        c.crash(0)
        c.settle(2_000_000)
        c.crash(1)
        p = c.spawn(4, writer, "b", 3)
        c.run_until(p.finished, limit=LIMIT)
        c.settle(3_000_000)
        assert c.converged()
        live = c.live_hosts()
        tuples = c.replica(live[0]).space_tuples(c.main_ts)
        assert sum(1 for t in tuples if t[0] == "b") == 3

    def test_pending_submissions_survive_token_loss(self):
        c = make(seed=6)
        # submit from host 2 and immediately crash host 0 (likely holder
        # region); the submission must eventually be ordered
        p = c.spawn(2, writer, "x", 3)
        c.run(until=c.sim.now + 2_000)
        c.crash(0)
        c.run_until(p.finished, limit=LIMIT)
        c.settle(2_000_000)
        tuples = c.replica(1).space_tuples(c.main_ts)
        assert sum(1 for t in tuples if t[0] == "x") == 3
        assert c.converged()

"""Focused membership-layer tests (leaders, dedup, views, gossip)."""

from repro.consul import ClusterConfig, SimCluster
from repro.consul.config import ConsulConfig
from repro.core.statemachine import FAILURE_TAG, HostFailed

LIMIT = 240_000_000.0


def make(n=3, seed=0, **consul):
    return SimCluster(
        ClusterConfig(n_hosts=n, seed=seed, consul=ConsulConfig(**consul))
    )


class TestLeadership:
    def test_announce_leader_is_lowest_unsuspected(self):
        c = make()
        m = c.membership(2)
        assert m.announce_leader() == 0
        m.suspected.add(0)
        assert m.announce_leader() == 1
        m.suspected.add(1)
        assert m.announce_leader() == 2

    def test_only_leader_announces(self):
        c = make(seed=3)
        c.run(until=200_000)
        # host 2 suspects host 1, but host 0 is the leader: host 2 stays quiet
        before = c.ordering(2).delivered_count
        m2 = c.membership(2)
        m2._suspect(1)
        assert 1 in m2.suspected
        c.run(until=c.sim.now + 300_000)
        # no HostFailed was ordered on host 2's initiative — host 1 is
        # still in everyone's view (host 0 has heard its heartbeats)
        assert 1 in c.membership(0).view
        # and host 2's wrongful suspicion self-heals via heartbeats
        assert 1 not in c.membership(2).suspected


class TestViewChanges:
    def test_duplicate_failure_announcements_ignored(self):
        c = make(seed=5)
        c.run(until=200_000)
        # deliver the same HostFailed twice through the order (two racing
        # announcers).  Host 2 is actually alive, so it will also
        # self-rejoin — the invariants are: ONE failure tuple (dedup) and
        # a clean readmission.
        c.ordering(0).broadcast(HostFailed(0, 0, 2))
        c.ordering(1).broadcast(HostFailed(0, 1, 2))
        c.run(until=c.sim.now + 3_000_000)
        tuples = c.replica(0).space_tuples(c.main_ts)
        assert sum(1 for t in tuples if t[0] == FAILURE_TAG) == 1
        assert sum(1 for t in tuples if t[0] == "ft_recovery") == 1
        assert 2 in c.membership(0).view  # self-rejoin readmitted it
        assert c.converged()

    def test_view_changes_counted(self):
        c = make(seed=7)
        c.run(until=200_000)
        assert c.membership(0).view_changes == 0
        c.crash(2)
        c.settle(2_000_000)
        assert c.membership(0).view_changes == 1
        c.recover(2)
        c.run_until(c.replica(2).recovered_event, limit=LIMIT)
        assert c.membership(0).view_changes == 2

    def test_failure_tuple_in_every_configured_space(self):
        # by default only MAIN_TS receives notifications
        c = make(seed=9)

        def prog(view):
            h = yield view.create_space("other")
            return h

        p = c.spawn(0, prog)
        c.run_until(p.finished, limit=LIMIT)
        h = p.finished.value
        c.crash(1)
        c.settle(2_000_000)
        assert c.replica(0).space_size(h) == 0  # not a failure space
        tuples = c.replica(0).space_tuples(c.main_ts)
        assert any(t[0] == FAILURE_TAG for t in tuples)


class TestGossip:
    def test_heartbeats_carry_high_watermark(self):
        c = make(seed=11)

        def writer(view):
            for i in range(4):
                yield view.out(view.main_ts, "x", i)

        p = c.spawn(0, writer)
        c.run_until(p.finished, limit=LIMIT)
        # after a heartbeat round, everyone's known_high reflects delivery
        c.run(until=c.sim.now + 100_000)
        highs = [c.ordering(h).known_high for h in range(3)]
        assert all(h >= 4 for h in highs)

    def test_lagging_host_catches_up_without_new_traffic(self):
        c = make(seed=13, suspect_timeout_us=100_000_000.0)  # no suspicion
        # host 2 goes deaf (NIC down) while traffic flows, then comes back:
        # with no *new* commands, only gossip can tell it that it lagged
        c.hosts[2].nic.up = False

        def writer(view):
            for i in range(5):
                yield view.out(view.main_ts, "x", i)

        p = c.spawn(0, writer)
        c.run_until(p.finished, limit=LIMIT)
        assert c.replica(2).space_size(c.main_ts) == 0
        c.hosts[2].nic.up = True
        c.run(until=c.sim.now + 2_000_000)  # heartbeats + NACK repair
        assert c.replica(2).space_size(c.main_ts) == 5
        assert c.converged()

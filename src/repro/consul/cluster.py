"""SimCluster: a simulated network of FT-Linda workstations.

This is the top-level object the distributed tests and benchmarks build.
It assembles, per host, the paper's implementation stack

    FT-Linda library (ReplicaLayer)
      └─ membership (MembershipLayer)
          └─ totally ordered multicast (OrderingLayer)
              └─ network driver (NetDriver) ── shared Ethernet segment

and provides failure injection (:meth:`SimCluster.crash`,
:meth:`SimCluster.recover`, partitions), deterministic client processes,
and convergence checks used by the replica-consistency property tests.

Client code runs as :class:`~repro.sim.process.SimProcess` generators and
talks to tuple space through a :class:`SimView`, whose methods mirror
:class:`~repro.core.runtime.ProcessView` but return
:class:`~repro.sim.kernel.SimEvent` objects to ``yield`` on::

    def worker(view):
        yield view.out(view.main_ts, "task", 1)
        tup = yield view.in_(view.main_ts, "task", formal(int))
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Generator

from repro._errors import HostFailedError
from repro.consul.config import ConsulConfig
from repro.consul.hosts import NetDriver, SimHost
from repro.consul.membership import MembershipLayer
from repro.consul.network import EthernetSegment
from repro.consul.ordering import OrderingLayer
from repro.consul.replica import ReplicaLayer
from repro.core.ags import AGS, Guard, Op
from repro.core.runtime import _autoname, _rebuild
from repro.core.spaces import MAIN_TS, Resilience, Scope, TSHandle
from repro.sim.kernel import SimEvent, Simulator
from repro.sim.process import SimProcess
from repro.xkernel.protocol import ProtocolStack

__all__ = ["ClusterConfig", "SimCluster"]


@dataclasses.dataclass
class ClusterConfig:
    """Shape and physics of the simulated cluster."""

    n_hosts: int = 3
    #: Additional hosts that carry NO replica and reach tuple space via RPC
    #: to a tuple server (the paper's Figure 17 configuration).  Client
    #: host ids follow the replica ids: replicas 0..n_hosts-1, clients
    #: n_hosts..n_hosts+n_clients-1; client i talks to server i mod n_hosts.
    n_clients: int = 0
    seed: int = 0
    #: Total-order algorithm: "sequencer" (fixed sequencer, the default and
    #: the paper's design point) or "token" (token-ring rotation — the
    #: ordering ablation).
    ordering: str = "sequencer"
    consul: ConsulConfig = dataclasses.field(default_factory=ConsulConfig)
    bandwidth_bps: float = 10_000_000.0  # the paper's 10 Mb Ethernet
    propagation_us: float = 50.0
    jitter_us: float = 0.0
    loss_probability: float = 0.0


class SimCluster:
    """N replicated FT-Linda hosts on one broadcast segment."""

    def __init__(self, config: ClusterConfig | None = None, **overrides: Any):
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.segment = EthernetSegment(
            self.sim,
            bandwidth_bps=config.bandwidth_bps,
            propagation_us=config.propagation_us,
            jitter_us=config.jitter_us,
            loss_probability=config.loss_probability,
        )
        if config.ordering == "token":
            from repro.consul.tokenring import TokenRingLayer as _OrdCls
        elif config.ordering == "sequencer":
            _OrdCls = OrderingLayer
        else:
            raise ValueError(f"unknown ordering algorithm {config.ordering!r}")
        ids = list(range(config.n_hosts))
        self.hosts: list[SimHost] = []
        for hid in ids:
            host = SimHost(
                hid, self.sim, self.segment, cpu_us_per_msg=config.consul.cpu_us_per_msg
            )
            stack = ProtocolStack(
                [
                    ReplicaLayer(host, ids, config.consul),
                    MembershipLayer(host, ids, config.consul),
                    _OrdCls(host, ids, config.consul),
                    NetDriver(host),
                ]
            )
            host.install_stack(stack)
            self.hosts.append(host)
        # replica-less client hosts (Figure 17): thin RPC stack
        from repro.consul.rpc import RPCClientLayer

        for c in range(config.n_clients):
            hid = config.n_hosts + c
            host = SimHost(
                hid, self.sim, self.segment, cpu_us_per_msg=config.consul.cpu_us_per_msg
            )
            server = c % config.n_hosts
            stack = ProtocolStack([RPCClientLayer(host, server), NetDriver(host)])
            host.install_stack(stack)
            self.hosts.append(host)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    @property
    def main_ts(self) -> TSHandle:
        return MAIN_TS

    def replica(self, host_id: int) -> ReplicaLayer:
        stack = self.hosts[host_id].stack
        assert stack is not None
        return stack.find(ReplicaLayer)

    def node(self, host_id: int):
        """Top protocol layer: ReplicaLayer, or RPCClientLayer on clients."""
        stack = self.hosts[host_id].stack
        assert stack is not None
        return stack.top

    @property
    def replica_ids(self) -> list[int]:
        return list(range(self.config.n_hosts))

    def ordering(self, host_id: int) -> OrderingLayer:
        stack = self.hosts[host_id].stack
        assert stack is not None
        return stack.find(OrderingLayer)

    def membership(self, host_id: int) -> MembershipLayer:
        stack = self.hosts[host_id].stack
        assert stack is not None
        return stack.find(MembershipLayer)

    def view(self, host_id: int, process_id: int = 0) -> "SimView":
        return SimView(self, host_id, process_id)

    def live_hosts(self) -> list[int]:
        """Live *replica* hosts (clients hold no replicated state)."""
        return [
            h.id
            for h in self.hosts
            if not h.crashed and h.id < self.config.n_hosts
        ]

    # ------------------------------------------------------------------ #
    # processes
    # ------------------------------------------------------------------ #

    def spawn(
        self,
        host_id: int,
        genfn: Callable[..., Generator[Any, Any, Any]],
        *args: Any,
        process_id: int | None = None,
        name: str = "",
    ) -> SimProcess:
        """Start a client generator on *host_id*.

        *genfn* is called as ``genfn(view, *args)`` with a :class:`SimView`
        bound to the host — the sim-side analog of ``eval``.
        """
        pid = process_id if process_id is not None else host_id * 1000 + len(
            self.hosts[host_id].processes
        )
        view = self.view(host_id, pid)
        return self.hosts[host_id].spawn(genfn(view, *args), name or genfn.__name__)

    # ------------------------------------------------------------------ #
    # failure injection
    # ------------------------------------------------------------------ #

    def crash(self, host_id: int, at: float | None = None) -> None:
        """Crash a host now, or schedule the crash at virtual time *at*."""
        if at is None:
            self.hosts[host_id].crash()
        else:
            self.sim.schedule(max(at - self.sim.now, 0.0), self.hosts[host_id].crash)

    def recover(self, host_id: int, at: float | None = None) -> None:
        if at is None:
            self.hosts[host_id].recover()
        else:
            self.sim.schedule(max(at - self.sim.now, 0.0), self.hosts[host_id].recover)

    def partition(self, *groups: list[int]) -> None:
        self.segment.set_partitions(groups)

    def heal_partition(self) -> None:
        self.segment.set_partitions([])

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #

    def run(self, until: float, max_events: int | None = None) -> None:
        """Advance virtual time to *until* (heartbeats run forever, so
        run-to-empty never terminates; always bound by time)."""
        self.sim.run(until=until, max_events=max_events)

    def run_until(self, event: SimEvent, limit: float = 60_000_000.0) -> Any:
        return self.sim.run_until_event(event, limit=limit)

    def run_until_all(self, procs: list[SimProcess], limit: float = 60_000_000.0) -> None:
        for p in procs:
            if p.finished.triggered:
                continue
            self.sim.run_until_event(p.finished, limit=limit)
            if p.error is not None:
                raise p.error

    # ------------------------------------------------------------------ #
    # consistency checks (tests)
    # ------------------------------------------------------------------ #

    def metrics_snapshot(self, host_id: int | None = None) -> dict[str, Any]:
        """Merged metrics of every replica host (or one host's, if given).

        Same instrument names as the real-time backends
        (``submit_to_order``, ``order_to_apply``, ``ags_e2e``), with
        virtual-time latencies reported in seconds.
        """
        from repro.obs.metrics import MetricsRegistry

        if host_id is not None:
            return self.replica(host_id).metrics.snapshot()
        merged = MetricsRegistry()
        for hid in self.replica_ids:
            merged.merge(self.replica(hid).metrics)
        return merged.snapshot()

    def introspection_snapshot(self, host_id: int | None = None) -> dict[str, Any]:
        """Uniform live-state image of the cluster (see repro.obs.inspect).

        The state-machine view comes from *host_id* (default: the lowest
        live replica) and includes that host's volatile spaces; replica
        rows report each host's applied count and lag against the most
        advanced live replica.  All ages are in virtual seconds.
        """
        from repro.obs.inspect import empty_snapshot

        snap = empty_snapshot(type(self).__name__)
        live = self.live_hosts()
        applied = {
            hid: (
                self.replica(hid).commands_applied if hid in live else None
            )
            for hid in self.replica_ids
        }
        live_counts = [a for a in applied.values() if a is not None]
        head = max(live_counts) if live_counts else 0
        snap["replicas"] = [
            {
                "id": hid,
                "alive": hid in live,
                "applied": applied[hid],
                "lag": head - applied[hid] if applied[hid] is not None else None,
            }
            for hid in self.replica_ids
        ]
        source = host_id if host_id is not None else next(iter(live), None)
        if source is not None:
            snap["sm"] = self.replica(source).introspection()
        return snap

    def converged(self) -> bool:
        """True when all live, non-recovering replicas have equal state."""
        prints = [
            self.replica(h).stable_fingerprint()
            for h in self.live_hosts()
            if not self.replica(h).recovering
        ]
        return len(set(prints)) <= 1

    def settle(self, slack_us: float = 500_000.0) -> None:
        """Run long enough for in-flight traffic to quiesce."""
        self.run(until=self.sim.now + slack_us)


def _mapped(sim: Simulator, inner: SimEvent, fn: Callable[[Any], Any]) -> SimEvent:
    outer = sim.event(inner.name + ".mapped")
    inner.add_waiter(lambda value: outer.succeed(fn(value)))
    return outer


class SimView:
    """Per-process tuple-space API for simulated clients (yieldable)."""

    __slots__ = ("cluster", "host_id", "process_id")

    def __init__(self, cluster: SimCluster, host_id: int, process_id: int):
        self.cluster = cluster
        self.host_id = host_id
        self.process_id = process_id

    # -- plumbing -------------------------------------------------------- #

    @property
    def _replica(self):
        # a ReplicaLayer on replica hosts, an RPCClientLayer on clients
        return self.cluster.node(self.host_id)

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    @property
    def main_ts(self) -> TSHandle:
        return MAIN_TS

    def execute(self, ags: AGS) -> SimEvent:
        """Submit an AGS; yielded value is its :class:`AGSResult`."""
        if self.cluster.hosts[self.host_id].crashed:
            raise HostFailedError(self.host_id)
        return self._replica.submit_ags(ags, self.process_id)

    # -- Linda ops (sim-side sugar, mirroring ProcessView) ---------------- #

    def out(self, ts: TSHandle, *fields: Any) -> SimEvent:
        return self.execute(AGS.atomic(Op.out(ts, *fields)))

    def _match(self, guard: Callable[..., Guard], ts: TSHandle, fields: tuple) -> SimEvent:
        """One matching operation; fires with the matched tuple, or
        ``None`` for a probe that found nothing."""
        named = _autoname(fields)
        rebuild = _rebuild(named)
        ev = self.execute(AGS.single(guard(ts, *named)))
        return _mapped(
            self.sim, ev, lambda r: rebuild(r.bindings) if r.succeeded else None
        )

    def in_(self, ts: TSHandle, *fields: Any) -> SimEvent:
        return self._match(Guard.in_, ts, fields)

    def rd(self, ts: TSHandle, *fields: Any) -> SimEvent:
        return self._match(Guard.rd, ts, fields)

    def inp(self, ts: TSHandle, *fields: Any) -> SimEvent:
        return self._match(Guard.inp, ts, fields)

    def rdp(self, ts: TSHandle, *fields: Any) -> SimEvent:
        return self._match(Guard.rdp, ts, fields)

    def move(self, src: TSHandle, dst: TSHandle, *fields: Any) -> SimEvent:
        return self.execute(AGS.atomic(Op.move(src, dst, *fields)))

    def copy(self, src: TSHandle, dst: TSHandle, *fields: Any) -> SimEvent:
        return self.execute(AGS.atomic(Op.copy(src, dst, *fields)))

    def create_space(
        self,
        name: str,
        resilience: Resilience = Resilience.STABLE,
        scope: Scope = Scope.SHARED,
    ) -> SimEvent:
        owner = self.process_id if scope is Scope.PRIVATE else None
        return self._replica.submit_create_space(name, resilience, scope, owner)

    def destroy_space(self, handle: TSHandle) -> SimEvent:
        return self._replica.submit_destroy_space(handle)

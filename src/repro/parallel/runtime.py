"""The replicated runtime: FT-Linda over N replicas with real concurrency.

One class, :class:`ReplicatedRuntime`, binds the
:class:`~repro.core.runtime.BaseRuntime` API to the shared replication
core: a :class:`~repro.replication.sharding.ShardedGroup` of
:class:`~repro.replication.group.ReplicaGroup` pipelines owns sequencing
(in batches), completion dedup, in-band queries, the read fast path,
liveness and recovery; clients are ordinary threads (``eval_`` spawns
them) that park until the group reports a completion.  Read-only
statements (``rd``/``rdp``) skip sequencing by default — one replica
answers them at a consistent session floor (pass ``read_fastpath=False``
to force every operation through the total order).

The two backends differ only in the transport that carries the ordered
stream, and each subclass supplies exactly that:

- :class:`ThreadedReplicaRuntime` — one FIFO + applier thread per replica
  (:class:`~repro.replication.transport.InMemoryTransport`).  Replicas
  really race on their own schedules, so this backend exercises the
  determinism contract with genuine interleavings.
- :class:`MultiprocessRuntime` — the closest single-machine stand-in for
  the paper's network of workstations: each replica is a separate OS
  process behind a :class:`~repro.replication.transport.PipeTransport`,
  so commands get the marshalling they would get on a wire.
  ``crash_replica`` is a real SIGKILL; recovery spawns a fresh process.

Either way a crash deposits the failure tuple via an ordered
``HostFailed`` and the group continues on N-1 replicas; recovery installs
a snapshot captured from a live donor at a frozen point in the total
order.  Use as a context manager (or call ``shutdown()``) to stop the
replica workers::

    with MultiprocessRuntime(n_replicas=3) as rt:
        rt.out(rt.main_ts, "hello", 1)
"""

from __future__ import annotations

import copy
from typing import Any

from repro.core.ags import AGS, AGSResult
from repro.core.runtime import BaseRuntime
from repro.core.spaces import Resilience, Scope, TSHandle
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import FlightRecorder
from repro.replication import (
    InMemoryTransport,
    LivenessPolicy,
    PipeTransport,
    ReplicaGroup,
    ShardedGroup,
    Transport,
)

__all__ = ["MultiprocessRuntime", "ReplicatedRuntime", "ThreadedReplicaRuntime"]


class ReplicatedRuntime(BaseRuntime):
    """FT-Linda over N replicas (see module docstring).

    ``detect_failures`` turns on the group's liveness plane — a monitor
    thread combining in-band heartbeats with transport probes, so even a
    replica killed behind the runtime's back is noticed and converted to
    fail-stop.  Pass True for the default
    :class:`~repro.replication.LivenessPolicy` or a policy instance to
    tune it; ``auto_recover`` additionally restarts the dead replica and
    installs a donor snapshot, with capped exponential backoff and a
    max-restarts budget.

    ``shards`` partitions the tuple space into that many independently
    sequenced replica groups (each with *n_replicas* replicas), routed by
    content hash — see :mod:`repro.replication.sharding`.  The default of
    1 is the classic single-sequencer deployment.
    """

    def __init__(
        self,
        n_replicas: int = 3,
        *,
        shards: int = 1,
        read_fastpath: bool = True,
        tracer: FlightRecorder | None = None,
        detect_failures: bool | LivenessPolicy = False,
        auto_recover: bool = False,
        durable_dir: str | None = None,
        durable_fsync: bool = True,
    ):
        super().__init__()
        # The group takes a policy or None; bool | policy is this layer's
        # convenience.  The runtime works on its own copy of a caller's
        # policy and never writes to the caller's object, which may be
        # shared with other runtimes.
        liveness = None
        if isinstance(detect_failures, LivenessPolicy):
            liveness = copy.copy(detect_failures)
        elif detect_failures or auto_recover:
            liveness = LivenessPolicy()  # a supervisor with no detector never fires
        if liveness is not None and auto_recover:
            # the runtime kwarg is the more explicit request: it overrides
            # the flag on a caller-built policy
            liveness.auto_recover = True
        self.sharded = ShardedGroup(
            lambda: self._transport(n_replicas),
            shards,
            read_fastpath=read_fastpath,
            tracer=tracer,
            liveness=liveness,
            durable_dir=durable_dir,
            durable_fsync=durable_fsync,
        )
        from repro.obs.server import maybe_serve_from_env

        self._telemetry = maybe_serve_from_env(self)

    def _transport(self, n_replicas: int) -> Transport:
        """A fresh transport for one shard's group — the backend's one choice."""
        raise NotImplementedError

    @property
    def group(self) -> ReplicaGroup:
        """The first shard's group — the whole pipeline when ``shards=1``."""
        return self.sharded.groups[0]

    @property
    def shard_groups(self) -> list[ReplicaGroup]:
        return self.sharded.groups

    @property
    def metrics(self) -> MetricsRegistry:
        return self.group.metrics

    @property
    def tracer(self) -> FlightRecorder | None:
        return self.group.tracer

    # ------------------------------------------------------------------ #
    # BaseRuntime implementation
    # ------------------------------------------------------------------ #

    def _submit(
        self,
        ags: AGS,
        process_id: int,
        *,
        timeout: float | None = None,
        actuals: tuple = (),
    ) -> AGSResult:
        return self.sharded.execute(ags, process_id, timeout, actuals)

    def create_space(
        self,
        name: str,
        resilience: Resilience = Resilience.STABLE,
        scope: Scope = Scope.SHARED,
        owner: int | None = None,
    ) -> TSHandle:
        return self.sharded.create_space(name, resilience, scope, owner)

    def destroy_space(self, handle: TSHandle) -> None:
        self.sharded.destroy_space(handle)

    # ------------------------------------------------------------------ #
    # failure injection / inspection (delegated to the sharded group)
    # ------------------------------------------------------------------ #

    def crash_replica(self, replica_id: int, *, notify: bool = True) -> None:
        """Halt one replica (in every shard); optionally deposit its tuple."""
        self.sharded.crash_replica(replica_id, notify=notify)

    def recover_replica(self, replica_id: int, *, timeout: float = 30.0) -> None:
        """Restart a halted replica and transfer state into it."""
        self.sharded.recover_replica(replica_id, timeout=timeout)

    def compact_journal(self, *, timeout: float = 30.0) -> list:
        """Durable mode: snapshot + prune every shard's journal."""
        return self.sharded.compact_journal(timeout=timeout)

    def journal_status(self) -> list:
        """Durable mode: per-shard journal status (empty when volatile)."""
        return self.sharded.journal_status()

    def query(
        self, replica_id: int, what: str, arg: Any = None, timeout: float = 30.0
    ) -> Any:
        """In-band query: answered after all previously sequenced commands."""
        return self.sharded.query(replica_id, what, arg, timeout)

    def inject_failure(self, host_id: int) -> None:
        """Deposit a failure tuple for a *logical* host (worker) id."""
        self.sharded.inject_failure(host_id)

    def quiesce(self, timeout: float = 30.0) -> None:
        """Wait until every live replica has applied every broadcast."""
        self.sharded.quiesce(timeout=timeout)

    def fingerprints(self) -> list[int]:
        """Stable-state fingerprints of all live replicas."""
        return self.sharded.fingerprints()

    def converged(self) -> bool:
        return self.sharded.converged()

    def space_size(self, handle: TSHandle) -> int:
        return self.sharded.space_size(handle)

    def metrics_snapshot(self) -> dict:
        self._sample_plans(self.metrics)
        return self.sharded.metrics_snapshot()

    def introspection_snapshot(self) -> dict:
        return self.sharded.introspection_snapshot(type(self).__name__)

    def start_profiling(self, hz: float | None = None) -> None:
        """Begin continuous sampling of the runtime (opt-in).

        The in-process sampler sees every registered role (sequencers,
        read flushers, monitors, replica threads) plus client threads by
        name; each replica *process* runs its own sampler, driven over
        the in-band query lane and incarnation-fenced, so a replica
        SIGKILLed mid-profile just drops out of the merge.  See
        :mod:`repro.obs.profile`.
        """
        from repro.obs.profile import DEFAULT_HZ

        self.sharded.start_profiling(DEFAULT_HZ if hz is None else hz)

    def stop_profiling(self) -> dict[str, int]:
        """Stop sampling everywhere; return folded stacks (``role;frame;... -> n``)."""
        return self.sharded.stop_profiling()

    def shutdown(self) -> None:
        super().shutdown()
        self.sharded.shutdown()


class ThreadedReplicaRuntime(ReplicatedRuntime):
    """Replicas as threads of this process, fed by in-memory FIFOs."""

    def _transport(self, n_replicas: int) -> Transport:
        return InMemoryTransport(n_replicas)


class MultiprocessRuntime(ReplicatedRuntime):
    """Replicas as spawned OS processes, fed by pipes."""

    def _transport(self, n_replicas: int) -> Transport:
        return PipeTransport(n_replicas)

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.shutdown()  # reap the replica processes
        except Exception:
            pass

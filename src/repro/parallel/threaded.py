"""Threaded replica group: state-machine replication with real threads.

Architecture (one process, many threads): a shared
:class:`~repro.replication.group.ReplicaGroup` sequences commands — with
batching — over an :class:`~repro.replication.transport.InMemoryTransport`
(one FIFO + applier thread per replica); clients are ordinary threads
(``eval_`` spawns them) that park until the group reports a completion.
Read-only statements (``rd``/``rdp``) skip sequencing entirely by default
— one replica answers them at a consistent session floor (the group's
read fast path; pass ``read_fastpath=False`` to force every operation
through the total order).

Because replicas really do race on their own schedules, this backend
exercises the determinism contract with genuine interleavings — the
convergence tests would catch any state-machine nondeterminism that the
single-threaded tests cannot.

Crash injection: :meth:`ThreadedReplicaRuntime.crash_replica` halts one
replica mid-stream (its FIFO is dropped on the floor), deposits the
failure tuple via an ordered ``HostFailed`` command, and the group
continues — N-1 replicas hold the stable spaces.

Use as a context manager (or call :meth:`ThreadedReplicaRuntime.shutdown`)
to stop the replica threads.

All sequencing, completion dedup and query logic lives in the shared
replication core; this file only binds the :class:`~repro.core.runtime.
BaseRuntime` API to it.
"""

from __future__ import annotations

from repro.core.ags import AGS, AGSResult
from repro.core.runtime import BaseRuntime
from repro.core.spaces import Resilience, Scope, TSHandle
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import FlightRecorder
from repro.parallel._liveness import resolve_liveness
from repro.replication import (
    InMemoryTransport,
    LivenessPolicy,
    ReplicaGroup,
    ShardedGroup,
)

__all__ = ["ThreadedReplicaRuntime"]


class ThreadedReplicaRuntime(BaseRuntime):
    """FT-Linda over N threaded replicas (see module docstring).

    ``detect_failures`` turns on the group's liveness plane (pass True
    for the defaults, or a :class:`~repro.replication.LivenessPolicy` to
    tune it); ``auto_recover`` additionally restarts a detected-dead
    replica thread and installs a snapshot from a live donor.

    ``shards`` partitions the tuple space into that many independently
    sequenced replica groups (each with *n_replicas* replica threads),
    routed by content hash — see :mod:`repro.replication.sharding`.  The
    default of 1 is the classic single-sequencer deployment.
    """

    def __init__(
        self,
        n_replicas: int = 3,
        *,
        shards: int = 1,
        batching: bool = True,
        read_fastpath: bool = True,
        tracer: FlightRecorder | None = None,
        detect_failures: bool | LivenessPolicy = False,
        auto_recover: bool = False,
        durable_dir: str | None = None,
        durable_fsync: bool = True,
    ):
        super().__init__()
        liveness = resolve_liveness(detect_failures, auto_recover)
        self.sharded = ShardedGroup(
            lambda: InMemoryTransport(n_replicas),
            shards,
            batching=batching,
            read_fastpath=read_fastpath,
            tracer=tracer,
            liveness=liveness,
            durable_dir=durable_dir,
            durable_fsync=durable_fsync,
        )
        from repro.obs.server import maybe_serve_from_env

        self._telemetry = maybe_serve_from_env(self)

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
        self, ags: AGS, process_id: int, *, timeout: float | None = None
    ) -> AGSResult:
        return self.sharded.execute(ags, process_id, timeout)

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
        """Restart a halted replica thread and transfer state into it."""
        self.sharded.recover_replica(replica_id, timeout=timeout)

    def compact_journal(self, *, timeout: float = 30.0) -> list:
        """Durable mode: snapshot + prune every shard's journal."""
        return self.sharded.compact_journal(timeout=timeout)

    def journal_status(self) -> list:
        """Durable mode: per-shard journal status (empty when volatile)."""
        return self.sharded.journal_status()

    def query(self, replica_id: int, what: str, arg=None, timeout: float = 30.0):
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
        return self.sharded.metrics_snapshot()

    def introspection_snapshot(self) -> dict:
        return self.sharded.introspection_snapshot(type(self).__name__)

    def start_profiling(self, hz: float | None = None) -> None:
        """Begin continuous sampling of the runtime's threads (opt-in).

        One in-process sampler sees every registered role — sequencers,
        replica apply threads, read flushers, liveness monitors — plus
        client threads by name.  See :mod:`repro.obs.profile`.
        """
        from repro.obs.profile import DEFAULT_HZ

        self.sharded.start_profiling(DEFAULT_HZ if hz is None else hz)

    def stop_profiling(self) -> dict[str, int]:
        """Stop sampling; return folded stacks (``role;frame;... -> n``)."""
        return self.sharded.stop_profiling()

    def shutdown(self) -> None:
        super().shutdown()
        self.sharded.shutdown()

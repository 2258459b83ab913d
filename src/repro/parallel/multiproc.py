"""Multiprocessing replica group: FT-Linda across OS processes.

The closest single-machine stand-in for the paper's network of
workstations: each replica is a separate Python **process** with its own
state machine, driven by the shared :class:`~repro.replication.group.
ReplicaGroup` core over a :class:`~repro.replication.transport.
PipeTransport` — commands get the same marshalling they would get
on a wire, and the sequencer pickles each ordered batch exactly once and
writes that one frame to every replica's command pipe itself.

Queries (fingerprints, space sizes) travel in-band on the command FIFOs,
so they see exactly the state after every previously sequenced command —
no separate quiescing protocol is needed.  Read-only statements
(``rd``/``rdp``) take the group's read fast path by default: one replica
process answers them at a consistent session floor, skipping the
sequencer, the N-way broadcast and the batch pickling altogether (pass
``read_fastpath=False`` to force them through the total order).  Crash injection SIGKILLs a
replica process; recovery spawns a fresh one and installs a snapshot
captured from a live donor at a frozen point in the total order.

Use as a context manager (or call :meth:`MultiprocessRuntime.shutdown`)
to reap the replica processes::

    with MultiprocessRuntime(n_replicas=3) as rt:
        rt.out(rt.main_ts, "hello", 1)

All sequencer/dedup/recovery logic lives in the shared replication core;
this file only binds the :class:`~repro.core.runtime.BaseRuntime` API to
it.
"""

from __future__ import annotations

from typing import Any

from repro.core.ags import AGS, AGSResult
from repro.core.runtime import BaseRuntime
from repro.core.spaces import Resilience, Scope, TSHandle
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import FlightRecorder
from repro.parallel._liveness import resolve_liveness
from repro.replication import (
    LivenessPolicy,
    PipeTransport,
    ReplicaGroup,
    ShardedGroup,
)

__all__ = ["MultiprocessRuntime"]


class MultiprocessRuntime(BaseRuntime):
    """FT-Linda over N replica processes (see module docstring).

    ``detect_failures`` turns on the group's liveness plane — a monitor
    thread combining in-band heartbeats with ``Process.is_alive()``
    probes, so even a SIGKILLed replica is noticed and converted to
    fail-stop without any cooperative ``crash_replica`` call.  Pass True
    for the default :class:`~repro.replication.LivenessPolicy` or a
    policy instance to tune it; ``auto_recover`` additionally respawns
    the dead process and installs a donor snapshot, with capped
    exponential backoff and a max-restarts budget.
    """

    def __init__(
        self,
        n_replicas: int = 3,
        *,
        shards: int = 1,
        start_method: str = "spawn",
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
            lambda: PipeTransport(n_replicas, start_method=start_method),
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

    def query(
        self, replica_id: int, what: str, arg: Any = None, timeout: float = 30.0
    ) -> Any:
        """In-band query: answered after all previously sequenced commands."""
        return self.sharded.query(replica_id, what, arg, timeout)

    def crash_replica(self, replica_id: int, *, notify: bool = True) -> None:
        """SIGKILL one replica process (in every shard); group continues."""
        self.sharded.crash_replica(replica_id, notify=notify)

    def inject_failure(self, host_id: int) -> None:
        """Deposit a failure tuple for a *logical* host (worker) id."""
        self.sharded.inject_failure(host_id)

    def recover_replica(self, replica_id: int, *, timeout: float = 30.0) -> None:
        """Restart a killed replica process and transfer state into it."""
        self.sharded.recover_replica(replica_id, timeout=timeout)

    def compact_journal(self, *, timeout: float = 30.0) -> list:
        """Durable mode: snapshot + prune every shard's journal."""
        return self.sharded.compact_journal(timeout=timeout)

    def journal_status(self) -> list:
        """Durable mode: per-shard journal status (empty when volatile)."""
        return self.sharded.journal_status()

    def quiesce(self, timeout: float = 30.0) -> None:
        """Wait until every live replica has applied every broadcast."""
        self.sharded.quiesce(timeout=timeout)

    def fingerprints(self) -> list[int]:
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
        """Begin continuous sampling of the runtime (opt-in).

        The parent-process sampler covers the sequencers, read flushers
        and monitors; each replica *process* additionally runs its own
        sampler, started over the in-band query lane, whose folded stacks
        ride back with :meth:`stop_profiling` — incarnation-fenced, so a
        replica SIGKILLed mid-profile just drops out of the merge.  See
        :mod:`repro.obs.profile`.
        """
        from repro.obs.profile import DEFAULT_HZ

        self.sharded.start_profiling(DEFAULT_HZ if hz is None else hz)

    def stop_profiling(self) -> dict[str, int]:
        """Stop sampling everywhere; return the cross-process merge."""
        return self.sharded.stop_profiling()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        super().shutdown()
        self.sharded.shutdown()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.shutdown()
        except Exception:
            pass

"""The two backends of the replicated runtime: threads and processes.

:class:`~repro.replication.sharding.ReplicatedRuntime` binds the
:class:`~repro.core.runtime.BaseRuntime` API to the shared replication
core — its shard groups own sequencing (in batches), completion dedup,
in-band queries, the read fast path, liveness and recovery.  The two
backends differ only in the transport that carries the ordered stream,
and each subclass supplies exactly that:

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

from repro.replication import InMemoryTransport, PipeTransport, Transport
from repro.replication.sharding import ReplicatedRuntime

__all__ = ["MultiprocessRuntime", "ReplicatedRuntime", "ThreadedReplicaRuntime"]


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

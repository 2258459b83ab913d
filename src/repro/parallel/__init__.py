"""Real-parallelism backends: threads and multiprocessing.

The simulated cluster (:mod:`repro.consul`) gives deterministic virtual
time; these backends give actual concurrency on one machine, with the same
:class:`~repro.core.runtime.BaseRuntime` API.  There is one runtime class,
:class:`~repro.replication.sharding.ReplicatedRuntime`, which owns the
shard groups of the shared replication core (:mod:`repro.replication`),
and two subclasses that each pick the transport moving the ordered stream
and nothing else: :class:`ThreadedReplicaRuntime` (replica threads,
in-memory FIFOs) and :class:`MultiprocessRuntime` (replica processes
joined to the parent by framed-pickle pipes — the network-of-workstations
substitute).  See :mod:`repro.parallel.runtime`.
"""

from repro.parallel.runtime import (
    MultiprocessRuntime,
    ReplicatedRuntime,
    ThreadedReplicaRuntime,
)

__all__ = ["MultiprocessRuntime", "ReplicatedRuntime", "ThreadedReplicaRuntime"]

"""The paper's ordered-update pipeline, implemented exactly once.

FT-Linda keeps replicated tuple spaces consistent with a single totally
ordered command stream per update (Sec. 5).  This package is that
pipeline, factored out of any particular delivery mechanism:

- :class:`~repro.replication.group.ReplicaGroup` — the transport-agnostic
  core: per-client parking, origin-replica completion matching with
  duplicate suppression, membership and runtime metrics, composing five
  components that each own their locks, thread and state —
  :mod:`~repro.replication.sequencer` (the total order, batching,
  ``in_band()``), :mod:`~repro.replication.journal` (the group-committed
  journal and its fence), :mod:`~repro.replication.readlane` (the read
  fast path), :mod:`~repro.replication.liveness` (opt-in: heartbeat +
  probe failure detector, self-healing auto-recovery, tuned by
  :class:`~repro.replication.liveness.LivenessPolicy`) and
  :mod:`~repro.replication.transfer` (restart + chunked state transfer)
  — over :mod:`~repro.replication.requests`, the one in-band round trip;
- :class:`~repro.replication.sharding.ShardedGroup` — the
  content-partitioned router: N independent ReplicaGroups (one sequencer
  each), single-shard statements delegated whole, cross-shard statements
  run as a deterministic extract/execute/scatter rung;
- :class:`~repro.replication.transport.Transport` — the seam a delivery
  mechanism implements: FIFO delivery of opaque items to N replica
  workers and a sink for what they emit;
- :mod:`~repro.replication.worker` — the one replica both bundled
  transports run (in a thread, or in a spawned process), and the item
  protocol: four received tags, five emitted, one table of request kinds.

The threads and multiprocessing backends in :mod:`repro.parallel` are
thin adapters over this package; a future asyncio or socket backend is
one new Transport implementation.
"""

from repro.replication.group import LivenessPolicy, ReplicaGroup
from repro.replication.sharding import ShardedGroup
from repro.replication.transport import (
    InMemoryTransport,
    PipeTransport,
    Transport,
)

__all__ = [
    "InMemoryTransport",
    "LivenessPolicy",
    "PipeTransport",
    "ReplicaGroup",
    "ShardedGroup",
    "Transport",
]

"""Log-based stable tuple space — the design alternative to replication.

The paper chooses replication for stable tuple spaces and says why
(Sec. 3): stable storage via logging serves a single processor, but "in
situations where stable values must also be shared among multiple
processors — as is the case here — replication is a more appropriate
choice."  This package implements the road not taken — once — so the
choice can be measured instead of asserted:

- :class:`~repro.persist.runtime.SegmentedWALRuntime` — a LocalRuntime
  whose command stream is journaled before execution, through the same
  :class:`~repro.replication.journal.GroupJournal` as the durable replica
  groups: the same records, the same replay, the same compaction.  Its
  constructor *is* recovery: it replays whatever the directory holds (the
  state machine's determinism does the heavy lifting — replay is
  re-execution) and journals on from there, so recovery is bounded by
  how often :meth:`~repro.persist.runtime.SegmentedWALRuntime.compact` is
  called instead of by the full history.  Never compacted, it is the
  O(history) reference arm of the A5 ablations;
- :class:`~repro.persist.segments.SegmentedLog` — the payload-agnostic
  segment/snapshot/manifest layout underneath that journal;
- env-gated SIGKILL crash points (:mod:`repro.persist.crashpoints`) so
  the crash-safety argument is exercised, not assumed.
"""

from repro.persist.crashpoints import CRASHPOINT_ENV, crash_here
from repro.persist.runtime import SegmentedWALRuntime
from repro.persist.segments import (
    ReplayResult,
    SegmentedLog,
    replay_dir,
)

__all__ = [
    "SegmentedWALRuntime",
    "SegmentedLog",
    "ReplayResult",
    "replay_dir",
    "CRASHPOINT_ENV",
    "crash_here",
]

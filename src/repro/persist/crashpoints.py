"""Env-gated crash points for durability chaos tests.

Crash-safety claims ("a kill -9 at any point of compaction loses
nothing") are only worth making if a test can actually deliver the kill
at *that* point.  This module plants named crash points inside the
durability plane; a subprocess-driven test exports ``REPRO_CRASHPOINT=
<name>`` and the process SIGKILLs itself the instant execution reaches
the matching :func:`crash_here` — a real, untrappable death, not a
raised exception that ``finally`` blocks could soften.

In production the environment variable is unset and every crash point
costs one cached string comparison.

Planted points (the first five in :mod:`repro.persist.segments`, the
last in :meth:`repro.replication.journal.GroupJournal.sync`, which a
durable group's journal thread and the single-host
:class:`~repro.persist.runtime.SegmentedWALRuntime` both reach):

===============================  =======================================
name                             instant of death
===============================  =======================================
``segment_mid_record``           after a record's length prefix, before
                                 its body — a torn command record
``snapshot_before_rename``       snapshot temp file written and fsynced,
                                 not yet renamed into place
``snapshot_after_rename``        snapshot visible, manifest not rewritten
``manifest_before_prune``        manifest rewritten, covered segments
                                 not yet unlinked
``prune_partial``                first covered segment unlinked, rest
                                 still on disk
``journal_before_fsync``         a record is written but not yet
                                 fsynced: a durable group's batch,
                                 broadcast and perhaps applied by every
                                 replica, or a single-host command not
                                 yet applied — nothing it produced may
                                 have been acknowledged
===============================  =======================================
"""

from __future__ import annotations

import os
import signal

__all__ = ["CRASHPOINT_ENV", "armed", "crash_here"]

CRASHPOINT_ENV = "REPRO_CRASHPOINT"

# Read once: a crash point sits inside fsync loops and must cost nothing
# when disarmed.  Tests arm it by exporting the variable before spawning
# the victim process, never by mutating it in-process.
_ARMED = os.environ.get(CRASHPOINT_ENV, "")


def armed() -> str:
    """The armed crash-point name ('' when disarmed)."""
    return _ARMED


def crash_here(name: str) -> None:
    """SIGKILL this process if crash point *name* is armed."""
    if _ARMED == name:
        os.kill(os.getpid(), signal.SIGKILL)

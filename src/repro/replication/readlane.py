"""ReadLane: read-only statements answered around the total order.

A read-only :class:`~repro.core.statemachine.ExecuteAGS` (every op
``rd``/``rdp``) cannot change replicated state, and identical replicas
mean any single up-to-date replica can answer it.  The lane sends such a
statement to *one* live replica as an in-band read tagged with a
**session floor** (the highest slot the group has sequenced at that
instant); the replica parks it until its applied count reaches the
floor, then evaluates the guard on local state — read-your-writes
consistency with no sequencing, no broadcast and one guard evaluation
instead of N.

Each read is one ``("READS", [(floor, cmd)])`` send from the reader's
own thread (the transport serialises concurrent writers into one
replica's FIFO), and the replica answers it with one ``COMPS``.

A blocking read whose guard cannot fire locally (``READMISS``), and any
read stranded by a replica crash, falls back transparently to the ordered
path (the fallback ladder: fast path → reroute on READMISS/crash →
ordered park → ordered cancel).  Each outstanding read has one
registration, and exactly one of {the answered client, a miss, a crash
reroute, the client's timeout} pops it and owns what happens next.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro import sync
from repro._errors import TimeoutError_
from repro.core.statemachine import ExecuteAGS
from repro.obs.metrics import MetricsRegistry
from repro.replication.transport import Transport

__all__ = ["ReadLane"]


class ReadLane:
    """Owns the read registry and its lock.

    *seq* is the sequencer — ``floor()`` for a read's session floor,
    ``ship(cmd, w)`` for its fallback into the order.  The waiters are the
    group's: *parked(rid)* returns a request's waiter while its client
    still waits (a read whose completion already claimed the waiter must
    not be reshipped), *unpark(rid)* drops one nobody will wake.
    """

    def __init__(
        self,
        transport: Transport,
        alive: Sequence[bool],
        seq: Any,
        metrics: MetricsRegistry,
        *,
        parked: Callable[[int], Any],
        unpark: Callable[[int], None],
    ):
        self._transport = transport
        self._alive = alive
        self._seq = seq
        self._parked = parked
        self._unpark = unpark
        self._lock = sync.Lock()
        #: Outstanding fast-path reads: request_id -> (replica_id, command).
        self._reads: dict[int, tuple[int, ExecuteAGS]] = {}
        self._c_fast = metrics.counter("read_fastpath")
        self._c_fallback = metrics.counter("read_fallback")

    # ------------------------------------------------------------------ #
    # the client's side
    # ------------------------------------------------------------------ #

    def send(self, cmd: ExecuteAGS, w: Any) -> bool:
        """Route a read-only statement to one live replica.

        The session floor is the highest slot the group has *sequenced*
        at this instant.  Any command whose completion a client has seen
        was sequenced before its completion was reported, so it sits at
        or below the floor — the answering replica parks the read until
        it has applied that much, giving read-your-writes (and
        read-anyone's-completed-writes) without entering the order.
        Commands still *pending* are deliberately not covered: they have
        completed for nobody yet, and waiting on them would re-couple
        reads to the sequencing of unrelated writers.

        Returns False when no replica could take the read (none live, or
        the chosen one crashed mid-send) — the caller ships it ordered.
        """
        live = [i for i, up in enumerate(self._alive) if up]
        if not live:
            return False
        # Sticky routing: a client thread's reads all land on the same
        # replica (its session floor is already applied there, and the
        # replica stays hot), while distinct clients hash across the live
        # set for balance.  Membership changes just re-hash.
        replica = live[threading.get_ident() % len(live)]
        floor = self._seq.floor()
        # set once the read has been reshipped through the total order, so
        # a concurrently timing-out client never cancels ahead of the reship
        w.fellback = sync.Latch()
        with self._lock:
            self._reads[cmd.request_id] = (replica, cmd)
        self._transport.send(replica, ("READS", [(floor, cmd)]))
        if not self._alive[replica] and self._claim(cmd.request_id):
            # Raced the death declaration: whoever pops the registration
            # owns the reroute.  Had reroute() got there first, the
            # ordered fallback would be in flight and the fast path
            # "took" the read.
            return False
        self._c_fast.inc()
        return True

    def wait(self, request_id: int, w: Any, timeout: float | None) -> bool:
        """Wait out a read :meth:`send` took.  True: answered, ``w.slot``
        holds the result.  False: it fell back into the order and is
        parked there — the caller withdraws it like any ordered statement.
        Raises :class:`TimeoutError_` for a guard still unsatisfied on the
        fast path."""
        if w.latch.wait(timeout):
            self._claim(request_id)  # answered: drop the registration
            return True
        if self._claim(request_id):
            # Still on the fast path: nothing is parked in the total order
            # and reads consume nothing, so no ordered cancel is needed.
            self._unpark(request_id)
            raise TimeoutError_(f"guard not satisfied within {timeout}s")
        if w.latch.wait(0):
            return True  # completion won the race with the deadline
        # The read fell back before the deadline — wait for the reship to
        # actually be enqueued (miss()'s claim and its ship are not
        # atomic), so the caller's cancel is sequenced behind it.
        w.fellback.wait(1.0)
        return False

    def _claim(self, request_id: int) -> bool:
        """Pop a read's registration; True if it was still there.  Whoever
        pops it owns what happens to the read next."""
        with self._lock:
            return self._reads.pop(request_id, None) is not None

    # ------------------------------------------------------------------ #
    # the fallback ladder
    # ------------------------------------------------------------------ #

    def miss(self, request_id: int) -> None:
        """Reship an outstanding read through the total order.

        For a ``READMISS`` — a blocking read's guard cannot fire on the
        replica's local state, and in the order it can park — and for
        each read stranded by a crash.
        """
        with self._lock:
            entry = self._reads.pop(request_id, None)
        w = self._parked(request_id) if entry is not None else None
        if w is not None:
            self._c_fallback.inc()
            self._seq.ship(entry[1], w)
            w.fellback.set()  # wait() may now cancel: the reship is enqueued

    def reroute(self, replica_id: int) -> None:
        """Reship every read stranded on a crashed replica."""
        with self._lock:
            stranded = [
                rid
                for rid, (target, _cmd) in self._reads.items()
                if target == replica_id
            ]
        for rid in stranded:
            self.miss(rid)

    def clear(self) -> None:
        """Forget every registration: the group failed its waiters."""
        with self._lock:
            self._reads.clear()

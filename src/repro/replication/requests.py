"""Requests: the one in-band round trip to a single replica.

A request is a ``("QUERY", qid, what, arg)`` item on one replica's FIFO
and the ``("QUERY", qid, replica, answer)`` emission that comes back
(:mod:`repro.replication.worker` lists the kinds).  Because it travels
the command lane it is answered after everything sequenced before it —
state queries, the chunks of a state transfer and the acknowledgement of
an install all ride this one lane, so there is one registration map, one
wait and one way for a replica's death to end them.

The registration never outlives the call, whichever way it ends: an
answer pops it, a timeout reaps it, :meth:`Requests.fail` answers it with
the crash sentinel.  An answer that finds no registration (a late one,
or the liveness monitor's qid 0, which is never registered) is dropped.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

from repro import sync
from repro._errors import TimeoutError_
from repro.replication.transport import Transport

__all__ = ["DONOR_LOST", "Requests"]

#: Deposited into a pending request's slot when its replica crashes —
#: fail fast instead of stalling the full timeout.
_REPLICA_CRASHED = object()

#: What a ``probe=True`` round trip returns when the replica died (or its
#: lane did) mid-request: the caller moves on to the next donor.
DONOR_LOST = object()

#: How often a ``probe=True`` wait looks at the transport probe.
_PROBE_POLL_S = 0.02

Send = Callable[[int, tuple], None]


class _Pending:
    """One registered request: where its answer lands."""

    __slots__ = ("qid", "replica", "latch", "slot")

    def __init__(self, qid: int, replica: int):
        self.qid = qid
        self.replica = replica
        self.latch = sync.Latch()
        self.slot: list[Any] = []


class Requests:
    """The ``(qid, replica) -> slot`` map and everything that waits on it.

    *alive* is the group's live mask, read only: a request to a replica
    already declared dead fails at once, and one that raced the
    declaration past its :meth:`fail` sweep is caught after the send.
    """

    def __init__(self, transport: Transport, alive: Sequence[bool]):
        self._transport = transport
        self._alive = alive
        self._lock = sync.Lock()
        self._pending: dict[tuple[int, int], _Pending] = {}
        self._qids = itertools.count(1)

    # -- the three steps, for callers that send before they may wait ----- #

    def open(self, replica: int) -> _Pending:
        """Register a request to *replica*; :meth:`put` sends its item."""
        p = _Pending(next(self._qids), replica)
        with self._lock:
            self._pending[(p.qid, replica)] = p
        return p

    def put(
        self, p: _Pending, what: str, arg: Any = None, send: Send | None = None
    ) -> None:
        """Send *p*'s item.  *send* is how it reaches the FIFO — the
        transport's own ``send`` when the caller already holds the order
        (or needs none), an in-band send for a query that must follow
        everything pending."""
        (send or self._transport.send)(p.replica, ("QUERY", p.qid, what, arg))

    def _reap(self, p: _Pending) -> None:
        with self._lock:
            self._pending.pop((p.qid, p.replica), None)

    def wait(
        self, p: _Pending, timeout: float, what: str, *, probe: bool = False
    ) -> Any:
        """The tail of every round trip, once the item is sent.

        With ``probe=True`` the caller holds the sequencer's order, which
        declaring a replica dead also needs — so nobody can fail this
        request for it.  The wait polls the transport probe instead and
        returns :data:`DONOR_LOST`; the caller declares the death once it
        has released the order.
        """
        if probe:
            deadline = sync.now() + timeout
            while not p.latch.wait(_PROBE_POLL_S):
                if not self._transport.probe(p.replica):
                    self._reap(p)
                    return DONOR_LOST
                if sync.now() >= deadline:
                    self._reap(p)
                    raise TimeoutError_(
                        f"replica {p.replica} did not answer {what}"
                    )
        elif not p.latch.wait(timeout):
            self._reap(p)
            raise TimeoutError_(f"replica {p.replica} did not answer {what}")
        if p.slot[0] is _REPLICA_CRASHED:
            if probe:
                return DONOR_LOST
            raise TimeoutError_(f"replica {p.replica} crashed during {what}")
        return p.slot[0]

    # -- the whole round trip -------------------------------------------- #

    def ask(
        self,
        replica: int,
        what: str,
        arg: Any = None,
        *,
        timeout: float,
        probe: bool = False,
        send: Send | None = None,
    ) -> Any:
        """Send one request to *replica* and return its answer."""
        if not probe and not self._alive[replica]:
            raise TimeoutError_(f"replica {replica} has crashed")
        p = self.open(replica)
        try:
            self.put(p, what, arg, send)
        except Exception:
            self._reap(p)
            if probe:
                return DONOR_LOST  # a dying lane is itself the signal
            raise
        if not probe and not self._alive[replica] and not p.latch.wait(0):
            # raced the death declaration past its fail() sweep
            self._reap(p)
            raise TimeoutError_(f"replica {replica} has crashed")
        return self.wait(p, timeout, what, probe=probe)

    def tell(self, replica: int, what: str, arg: Any = None) -> None:
        """Send a one-way kind: no registration, and no answer comes."""
        self._transport.send(replica, ("QUERY", 0, what, arg))

    # -- the collector's side -------------------------------------------- #

    def answer(self, qid: int, replica: int, answer: Any) -> None:
        with self._lock:
            p = self._pending.pop((qid, replica), None)
        if p is not None:
            p.slot.append(answer)
            p.latch.set()

    def fail(self, replica: int | None = None) -> None:
        """Answer every request pending on *replica* (``None``: on any
        replica — the group itself failed) with the crash sentinel."""
        with self._lock:
            keys = [
                k for k in self._pending if replica is None or k[1] == replica
            ]
            victims = [self._pending.pop(k) for k in keys]
        for p in victims:
            p.slot.append(_REPLICA_CRASHED)
            p.latch.set()

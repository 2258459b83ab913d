"""StateTransfer: how state enters a replica — recovery and journal replay.

A crashed replica is restarted empty and brought level by a snapshot
captured from a live donor *at a quiet point in the total order*: the
order is held from the capture to the readmission, so no command can slip
between them.

The snapshot travels as bounded chunks (:attr:`StateTransfer.chunk_bytes`
each) instead of one item, and the fetch is *resumable*: a donor dying
mid-transfer is noticed within a probe poll and the remaining chunks come
from the next live donor (donors frozen at the same slot produce
identical snapshot bytes, so already-fetched chunks stay valid; a
byte-level mismatch is detected by the transfer descriptor and restarts
the fetch).  Donors lost mid-transfer are declared dead only *after* the
order is released — declaring a death takes the order.

Every round trip here is a :class:`~repro.replication.requests.Requests`
request (kinds ``xfer_begin``/``xfer_chunk``/``xfer_end`` to a donor,
``install_chunk``/``install_done`` to a receiver).
"""

from __future__ import annotations

from typing import Any, Callable

from repro._errors import TimeoutError_
from repro.obs.events import emit as emit_event
from repro.replication.requests import DONOR_LOST, Requests
from repro.replication.transport import Transport
from repro.replication.worker import split_state

__all__ = ["StateTransfer"]


class StateTransfer:
    """Drives a recovery under the order; owns the fetch and the install.

    *readmit(replica, order)* is the group's half of a recovery, run
    under the held order once the install is on the replica's FIFO: flip
    the live mask and sequence the ``HostRecovered``.
    *declare_dead(replica, cause)* is the group's too.
    """

    #: Chunk size for resumable, incarnation-fenced replica state transfer.
    chunk_bytes = 256 * 1024

    def __init__(
        self,
        transport: Transport,
        alive: list[bool],
        seq: Any,
        requests: Requests,
        readmit: Callable[[int, Any], None],
        declare_dead: Callable[[int, str], bool],
        *,
        owner: str = "group",
    ):
        self._transport = transport
        self._alive = alive
        self._seq = seq
        self._requests = requests
        self._readmit = readmit
        self._declare_dead = declare_dead
        self._owner = owner
        #: Test/chaos hook, called after each fetched transfer chunk with
        #: (donor, idx, total) — lets the chaos harness kill the donor
        #: mid-transfer at a precise chunk boundary.
        self.chunk_hook: Callable[[int, int, int], None] | None = None

    def recover(self, replica_id: int, timeout: float) -> int:
        """Restart *replica_id* and transfer state into it.

        Returns the applied count the replica resumed at.
        """
        dead_donors: list[int] = []
        try:
            with self._seq.in_band() as order:  # freeze: nothing sequenced past us
                chunks, applied = self._fetch(timeout, dead_donors)
                self._transport.restart_replica(replica_id)
                pending = self.install(replica_id, chunks)
                self._readmit(replica_id, order)
            self.installed(pending, timeout)
        finally:
            for d in dead_donors:
                self._declare_dead(d, "transfer_donor")
        return applied

    # ------------------------------------------------------------------ #
    # receiver side
    # ------------------------------------------------------------------ #

    def install(self, replica_id: int, chunks: list[bytes]) -> Any:
        """Ship a chunked ``(snapshot, applied)`` pickle into one replica.

        The one way state enters a replica — recovery of a crashed one
        and journal replay into fresh ones alike.  Returns the pending
        answer for :meth:`installed`; the two are separate so a caller
        can ship to several replicas (or release the order) before
        waiting.
        """
        requests = self._requests
        pending = requests.open(replica_id)
        xid, total = pending.qid, len(chunks)
        for idx, chunk in enumerate(chunks):
            requests.tell(replica_id, "install_chunk", (xid, idx, chunk))
        requests.put(pending, "install_done", (xid, total))
        return pending

    def installed(self, pending: Any, timeout: float) -> None:
        answer = self._requests.wait(pending, timeout, "state install")
        if answer != "installed":  # ("incomplete", missing): chunks lost
            raise TimeoutError_(
                f"replica {pending.replica} rejected the transferred state: "
                f"{answer!r}"
            )

    def install_everywhere(self, snapshot: Any, applied: int) -> None:
        """Install one image on every live replica (journal replay, under
        the order), and sequence on from *applied*: the replicas resume
        there, so read floors must count from there too."""
        chunks = split_state(snapshot, applied, self.chunk_bytes)
        installs = [
            self.install(i, chunks) for i, up in enumerate(self._alive) if up
        ]
        for pending in installs:
            self.installed(pending, 30.0)
        self._seq.resume_at(applied)

    # ------------------------------------------------------------------ #
    # donor side
    # ------------------------------------------------------------------ #

    def _ask(self, donor: int, what: str, arg: Any, timeout: float) -> Any:
        # probe=True: the order is held, so a donor's death cannot be
        # declared (and this request failed) until the fetch is over
        return self._requests.ask(donor, what, arg, timeout=timeout, probe=True)

    def _fetch(
        self, timeout: float, dead_donors: list[int]
    ) -> tuple[list[bytes], int]:
        """Fetch a donor snapshot as bounded chunks.  Caller holds the order.

        Resumable across donor death: every live donor is frozen at the
        same slot (the order is held, pending flushed, and ``xfer_begin``
        is in-band), so converged donors serialize to identical bytes and
        a second donor can serve the chunks the first never delivered.
        The transfer descriptor ``(n_chunks, n_bytes, applied)`` guards
        the resumption — any mismatch restarts accumulation from chunk 0.
        Donors that die mid-transfer are appended to *dead_donors* for
        the caller to declare dead after the order is released.
        """
        chunks: list[bytes] = []
        meta: tuple[int, int, int] | None = None
        tried: set[int] = set()
        while True:
            donor = next(
                (
                    i
                    for i, up in enumerate(self._alive)
                    if up and i not in tried and i not in dead_donors
                ),
                None,
            )
            if donor is None:
                raise TimeoutError_("no live replica to transfer state from")
            begin = self._ask(donor, "xfer_begin", self.chunk_bytes, timeout)
            if begin is DONOR_LOST:
                dead_donors.append(donor)
                continue
            _tag, xid, total, total_bytes, applied = begin
            if meta != (total, total_bytes, applied):
                chunks.clear()
                meta = (total, total_bytes, applied)
            lost = False
            while len(chunks) < total:
                idx = len(chunks)
                chunk = self._ask(donor, "xfer_chunk", (xid, idx), timeout)
                if chunk is DONOR_LOST:
                    dead_donors.append(donor)
                    lost = True
                    break
                if chunk is None:
                    # alive but forgot the transfer (restarted in between):
                    # renegotiate with the next donor, keeping what we have
                    tried.add(donor)
                    lost = True
                    break
                chunks.append(chunk)
                emit_event(
                    "state_transfer_chunk",
                    group=self._owner,
                    donor=donor,
                    chunk=idx,
                    total=total,
                    bytes=len(chunk),
                )
                hook = self.chunk_hook
                if hook is not None:
                    hook(donor, idx, total)
            if lost:
                continue
            self._requests.tell(donor, "xfer_end", xid)
            return chunks, applied

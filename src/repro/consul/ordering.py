"""Reliable totally ordered multicast — Consul's ordering service.

FT-Linda needs exactly one property from its communication substrate: all
replicas see the same commands in the same order, despite crashes (the
atomic multicast of the abstract).  This layer provides it with a
**fixed-sequencer** protocol over the broadcast segment:

1. a client host unicasts ``REQ(uid, payload)`` to the current sequencer
   (or sequences directly when it *is* the sequencer);
2. the sequencer assigns the next global sequence number and transmits a
   single ``ORD`` **broadcast** frame — one frame on the wire reaches all
   replicas, which is why an AGS costs "a single multicast message";
3. every host delivers ``ORD`` frames strictly in sequence-number order,
   buffering out-of-order arrivals and NACKing gaps for retransmission;
4. duplicate suppression is by request uid, so client retransmissions and
   sequencer takeovers never double-deliver.

The sequencer is the lowest-id unsuspected host.  When it crashes, the
next-lowest host runs a **takeover sync** (broadcast ``SYNC_REQ``, collect
``SYNC_RESP`` carrying each peer's highest seen sequence number and recent
log entries) before sequencing anything new — so the total order has no
holes and no forks as long as failure detection is accurate (fail-stop,
the paper's assumption).

Wire message kinds (header of layer ``ord``):
``REQ``, ``ORD``, ``NACK``, ``RETR``, ``SYNC_REQ``, ``SYNC_RESP`` and a
``RAW`` passthrough for upper-layer traffic (heartbeats, snapshots) that
must *not* be ordered.
"""

from __future__ import annotations

from typing import Any

from repro.consul.config import ConsulConfig
from repro.consul.hosts import SimHost
from repro.consul.network import BROADCAST
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol

__all__ = ["OrderingLayer"]


class OrderingLayer(Protocol):
    """Fixed-sequencer total order with NACK repair and takeover."""

    name = "ord"

    def __init__(self, host: SimHost, all_hosts: list[int], cfg: ConsulConfig):
        super().__init__()
        self.host = host
        self.all_hosts = sorted(all_hosts)
        self.cfg = cfg
        self._incarnation = 0
        self._reset_state()

    def _reset_state(self) -> None:
        self.suspected: set[int] = set()
        self.recovering = False
        # receiver state
        self.next_deliver = 0
        self.buffer: dict[int, tuple[Any, int, Any]] = {}  # seqno -> (uid, origin, payload)
        self.delivered_uids: set[Any] = set()
        self.recent_log: dict[int, tuple[Any, int, Any]] = {}
        self._nack_timer = None
        #: highest sequence number known to exist anywhere (from ORDs we
        #: saw or from peers' heartbeat high-watermarks): lets an idle,
        #: lagging replica notice it is behind and ask for repair even
        #: when no new traffic exposes the gap
        self.known_high = 0
        # client state
        self._uid_counter = 0
        self.pending: dict[Any, tuple[Any, Any]] = {}  # uid -> (payload, timer)
        # sequencer state
        self.seq_next = 0
        self.sequenced_uids: set[Any] = set()
        self.syncing = False
        self.sync_epoch = 0
        self._sync_resps: dict[int, int] = {}
        self._held_reqs: list[tuple[Any, int, Any]] = []
        # stats
        self.delivered_count = 0

    # ------------------------------------------------------------------ #
    # roles
    # ------------------------------------------------------------------ #

    def sequencer(self) -> int:
        """Current sequencer: lowest-id host not locally suspected."""
        for h in self.all_hosts:
            if h not in self.suspected:
                return h
        return self.host.id  # everyone suspected: act alone

    def has_quorum(self) -> bool:
        """True when a majority of the static membership looks alive.

        Sequencing (and takeover, and token regeneration) is restricted to
        the majority side of a partition, so a split brain cannot fork the
        total order — the minority's requests wait (client retransmission
        keeps them alive) until the partition heals.  Only enforced when
        ``require_quorum`` is configured; the default (paper-faithful)
        crash-stop model always answers True.
        """
        if not self.cfg.require_quorum:
            return True
        live = sum(1 for h in self.all_hosts if h not in self.suspected)
        return live >= len(self.all_hosts) // 2 + 1

    @property
    def is_sequencer(self) -> bool:
        return self.sequencer() == self.host.id

    def on_suspicion_change(self, suspected: set[int]) -> None:
        """Membership's failure detector updated its suspicions.

        If the change makes *us* the sequencer, run the takeover sync
        before sequencing anything new; if it restores quorum, drain the
        requests held while we were in a minority.
        """
        was_seq = self.is_sequencer
        self.suspected = set(suspected)
        if self.is_sequencer and not was_seq and not self.recovering:
            self._start_takeover_sync()
        elif self.is_sequencer and not self.syncing and not self.recovering:
            self._drain_held()

    def _drain_held(self) -> None:
        """Sequence requests deferred while syncing or quorum-less."""
        if self.syncing or not self.has_quorum():
            return
        held, self._held_reqs = self._held_reqs, []
        for uid, origin, payload in held:
            self._sequence(uid, origin, payload)

    # ------------------------------------------------------------------ #
    # public API (upper layers)
    # ------------------------------------------------------------------ #

    def broadcast(self, payload: Any) -> Any:
        """Submit *payload* for totally ordered delivery; returns its uid."""
        self._uid_counter += 1
        # incarnation in the uid keeps post-recovery requests distinct from
        # the host's pre-crash ones (both survive in delivered_uids sets)
        uid = (self.host.id, self._incarnation, self._uid_counter)
        self._submit(uid, payload)
        return uid

    def _submit(self, uid: Any, payload: Any) -> None:
        if self.is_sequencer and not self.syncing:
            self._sequence(uid, self.host.id, payload)
        else:
            self._send_req(uid, payload)
        timer = self.host.sim.schedule(
            self.cfg.retrans_timeout_us, self._retransmit, uid, self._incarnation
        )
        self.pending[uid] = (payload, timer)

    def from_upper(self, msg: Message, ordered: bool = True, dst: int = BROADCAST, **kw: Any) -> None:
        """x-kernel path: ordered broadcast, or RAW passthrough traffic."""
        if ordered:
            self.broadcast(msg.payload)
        else:
            msg.push_header(self.name, ("RAW",), size=1)
            self.send_down(msg, dst=dst)

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #

    def _send_req(self, uid: Any, payload: Any) -> None:
        msg = Message(payload)
        msg.push_header(self.name, ("REQ", uid), size=16)
        self.send_down(msg, dst=self.sequencer())

    def _retransmit(self, uid: Any, incarnation: int) -> None:
        if incarnation != self._incarnation or self.host.crashed:
            return
        if uid not in self.pending:
            return
        payload, _old = self.pending[uid]
        if self.is_sequencer and not self.syncing:
            self._sequence(uid, self.host.id, payload)
        else:
            self._send_req(uid, payload)
        timer = self.host.sim.schedule(
            self.cfg.retrans_timeout_us, self._retransmit, uid, self._incarnation
        )
        self.pending[uid] = (payload, timer)

    # ------------------------------------------------------------------ #
    # sequencer side
    # ------------------------------------------------------------------ #

    def _sequence(self, uid: Any, origin: int, payload: Any) -> None:
        if uid in self.sequenced_uids or uid in self.delivered_uids:
            return
        if not self.has_quorum():
            self._held_reqs.append((uid, origin, payload))
            return
        self.sequenced_uids.add(uid)
        seqno = self.seq_next
        self.seq_next += 1
        msg = Message(payload)
        msg.push_header(self.name, ("ORD", seqno, uid, origin), size=24)
        self.send_down(msg, dst=BROADCAST)
        # the segment does not loop frames back to the sender: the
        # sequencer replica delivers its own ORD through the host CPU, so
        # local delivery pays the same protocol-processing cost as remote
        # delivery — otherwise a sequencer-local client could outrun the
        # wire and every other replica
        self.host.cpu(self._handle_ord_guarded, self._incarnation,
                      seqno, uid, origin, payload)

    def _handle_ord_guarded(
        self, incarnation: int, seqno: int, uid: Any, origin: int, payload: Any
    ) -> None:
        if incarnation != self._incarnation or self.host.crashed:
            return
        self._handle_ord(seqno, uid, origin, payload)

    def _start_takeover_sync(self) -> None:
        self.syncing = True
        self.sync_epoch += 1
        self._sync_resps = {}
        msg = Message(("sync", self.next_deliver))
        msg.push_header(self.name, ("SYNC_REQ", self.sync_epoch, self.next_deliver), size=16)
        self.send_down(msg, dst=BROADCAST)
        self.host.sim.schedule(
            self.cfg.sync_timeout_us,
            self._finish_takeover_sync,
            self.sync_epoch,
            self._incarnation,
        )

    def _finish_takeover_sync(self, epoch: int, incarnation: int) -> None:
        if incarnation != self._incarnation or self.host.crashed:
            return
        if not self.syncing or epoch != self.sync_epoch:
            return
        max_seen = max(
            [self.next_deliver - 1]
            + list(self.buffer)
            + list(self._sync_resps.values())
        )
        self.seq_next = max(self.seq_next, max_seen + 1)
        self.syncing = False
        self._drain_held()
        # re-submit our own pending requests immediately
        for uid, (payload, _t) in list(self.pending.items()):
            self._sequence(uid, self.host.id, payload)

    # ------------------------------------------------------------------ #
    # receive path
    # ------------------------------------------------------------------ #

    def from_lower(self, msg: Message, src: int = -1, **kw: Any) -> None:
        header = msg.pop_header(self.name)
        kind = header[0]
        if kind == "RAW":
            self.deliver_up(msg, src=src, ordered=False)
        elif kind == "REQ":
            _k, uid = header
            if self.recovering:
                return
            if self.is_sequencer:
                if self.syncing:
                    self._held_reqs.append((uid, src, msg.payload))
                else:
                    self._sequence(uid, src, msg.payload)
            else:
                # stale belief at the client: forward to the real sequencer
                fwd = Message(msg.payload)
                fwd.push_header(self.name, ("REQ", uid), size=16)
                self.send_down(fwd, dst=self.sequencer())
        elif kind == "ORD" or kind == "RETR":
            _k, seqno, uid, origin = header
            self._handle_ord(seqno, uid, origin, msg.payload)
        elif kind == "NACK":
            _k, lo, hi = header
            self._handle_nack(src, lo, hi)
        elif kind == "SYNC_REQ":
            _k, epoch, their_next = header
            self._handle_sync_req(src, epoch, their_next)
        elif kind == "SYNC_RESP":
            _k, epoch, max_seen, entries = header
            if self.syncing and epoch == self.sync_epoch:
                self._sync_resps[src] = max_seen
                for seqno, e_uid, e_origin, e_payload in entries:
                    if seqno >= self.next_deliver and seqno not in self.buffer:
                        self.buffer[seqno] = (e_uid, e_origin, e_payload)
                self._drain()
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown ord header kind {kind!r}")

    def _handle_ord(self, seqno: int, uid: Any, origin: int, payload: Any) -> None:
        if self.recovering:
            # buffer everything; replica layer will tell us where to start
            self.buffer[seqno] = (uid, origin, payload)
            return
        self.known_high = max(self.known_high, seqno + 1)
        if seqno < self.next_deliver:
            return  # duplicate
        self.buffer[seqno] = (uid, origin, payload)
        self._drain()
        if self.buffer and min(self.buffer) > self.next_deliver:
            self._schedule_nack()

    def note_remote_progress(self, remote_next: int) -> None:
        """A peer reports having delivered up to *remote_next* (exclusive).

        Piggybacked on heartbeats by the membership layer.  If the peer is
        ahead of us and nothing in flight will close the gap, start the
        NACK repair — the anti-entropy path that un-wedges a replica that
        missed traffic while no new commands are flowing.
        """
        if self.recovering or remote_next <= self.known_high:
            return
        self.known_high = remote_next
        if self.known_high > self.next_deliver:
            self._schedule_nack()

    def _drain(self) -> None:
        while self.next_deliver in self.buffer:
            seqno = self.next_deliver
            uid, origin, payload = self.buffer.pop(seqno)
            self.next_deliver += 1
            self.recent_log[seqno] = (uid, origin, payload)
            if len(self.recent_log) > self.cfg.recent_log_size:
                self.recent_log.pop(min(self.recent_log))
            if seqno >= self.seq_next:
                self.seq_next = seqno + 1
            if uid in self.delivered_uids:
                continue
            self.delivered_uids.add(uid)
            if uid in self.pending:
                _payload, timer = self.pending.pop(uid)
                timer.cancel()
            self.delivered_count += 1
            up = Message(payload)
            self.deliver_up(
                up, ordered=True, uid=uid, origin=origin, seqno=seqno
            )

    def _schedule_nack(self) -> None:
        if self._nack_timer is not None:
            return
        self._nack_timer = self.host.sim.schedule(
            self.cfg.nack_delay_us, self._send_nack, self._incarnation
        )

    def _send_nack(self, incarnation: int) -> None:
        self._nack_timer = None
        if incarnation != self._incarnation or self.host.crashed:
            return
        if self.recovering:
            return
        lo = self.next_deliver
        if self.buffer:
            hi = min(self.buffer) - 1
        else:
            hi = self.known_high - 1  # gap known only via gossip
        if hi < lo:
            return
        # repair source: whoever originated the ORD just past the gap has
        # certainly delivered everything below it; prefer it over our
        # (possibly stale) idea of the sequencer — in particular a falsely
        # excluded sequencer would otherwise NACK itself forever
        if self.buffer:
            _uid, origin, _payload = self.buffer[min(self.buffer)]
            target = origin
        else:
            target = self.sequencer()
        if target == self.host.id or target in self.suspected:
            target = self.sequencer()
        if target == self.host.id:
            others = [h for h in self.all_hosts
                      if h != self.host.id and h not in self.suspected]
            if not others:
                return
            target = others[0]
        msg = Message(("nack",))
        msg.push_header(self.name, ("NACK", lo, hi), size=16)
        self.send_down(msg, dst=target)
        self._schedule_nack()  # keep nagging until the gap closes

    def _handle_nack(self, src: int, lo: int, hi: int) -> None:
        for seqno in range(lo, hi + 1):
            entry = self.recent_log.get(seqno)
            if entry is None:
                continue
            uid, origin, payload = entry
            msg = Message(payload)
            msg.push_header(self.name, ("RETR", seqno, uid, origin), size=24)
            self.send_down(msg, dst=src)

    def _handle_sync_req(self, src: int, epoch: int, their_next: int) -> None:
        if self.recovering:
            return  # our own counters are stale; do not mislead the taker
        max_seen = self.next_deliver - 1
        if self.buffer:
            max_seen = max(max_seen, max(self.buffer))
        entries = [
            (seqno, e[0], e[1], e[2])
            for seqno, e in sorted(self.recent_log.items())
            if seqno >= their_next
        ]
        msg = Message(("sync_resp",))
        msg.push_header(self.name, ("SYNC_RESP", epoch, max_seen, entries), size=None)
        self.send_down(msg, dst=src)

    # ------------------------------------------------------------------ #
    # recovery hooks (driven by membership/replica layers)
    # ------------------------------------------------------------------ #

    def begin_recovery(self) -> None:
        """Host restarted: buffer broadcasts until the snapshot arrives."""
        self.recovering = True

    def install_recovery(self, next_deliver: int, delivered_uids: set[Any]) -> None:
        """Snapshot installed: resume ordered delivery from *next_deliver*."""
        self.next_deliver = next_deliver
        self.seq_next = max(self.seq_next, next_deliver)
        self.delivered_uids = set(delivered_uids)
        self.buffer = {s: e for s, e in self.buffer.items() if s >= next_deliver}
        self.recovering = False
        self._drain()
        if self.buffer and min(self.buffer) > self.next_deliver:
            self._schedule_nack()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def host_crashed(self) -> None:
        self._incarnation += 1
        for _payload, timer in self.pending.values():
            timer.cancel()
        if self._nack_timer is not None:
            self._nack_timer.cancel()
        self._reset_state()

    def host_recovered(self) -> None:
        self._incarnation += 1
        self.begin_recovery()

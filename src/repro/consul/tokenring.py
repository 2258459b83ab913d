"""Token-ring total ordering — the alternative ordering algorithm.

The fixed-sequencer protocol of :mod:`repro.consul.ordering` funnels every
request through one host: minimal latency (one hop to the sequencer, one
broadcast out), but the sequencer's CPU is a serial bottleneck when many
hosts submit at once.  The classic alternative — used by Totem and
considered in the Consul lineage — circulates a **token**: only the
current holder assigns sequence numbers (for its *own* pending requests),
then passes the token to the next live member.

Trade-offs this module exists to measure (the ordering ablation in
``benchmarks/bench_ablation_ordering.py``):

- *latency*: a submission waits, on average, half a token rotation before
  it can be sequenced — worse than the sequencer's fixed two hops;
- *throughput under multi-source load*: sequencing work rotates, so no
  single CPU serializes everyone's requests;
- *message economy*: no REQ messages at all — ORD broadcasts plus one
  small token unicast per hop.

Failure handling: the token is soft state.  Every host watches for
evidence of circulation (token or ORD arrivals); if the token goes silent
for ``token_timeout_us`` the lowest unsuspected member regenerates it with
a higher epoch (stale tokens are discarded by epoch).  Delivery-side
reliability (order buffer, NACK repair, duplicate suppression by uid,
recovery install) is inherited unchanged from the fixed-sequencer layer —
the two algorithms differ only in who may assign the next number.
"""

from __future__ import annotations

from typing import Any

from repro.consul.config import ConsulConfig
from repro.consul.hosts import SimHost
from repro.consul.ordering import OrderingLayer
from repro.xkernel.message import Message

__all__ = ["TokenRingLayer"]


class TokenRingLayer(OrderingLayer):
    """Totally ordered multicast by circulating sequencing rights."""

    name = "ord"  # wire-compatible header space with the base layer

    def __init__(self, host: SimHost, all_hosts: list[int], cfg: ConsulConfig):
        super().__init__(host, all_hosts, cfg)

    def _reset_state(self) -> None:
        super()._reset_state()
        self.has_token = False
        self.token_epoch = 0
        self.ring_pending: list[tuple[Any, Any]] = []
        self.last_token_evidence = 0.0
        self.tokens_passed = 0

    # ------------------------------------------------------------------ #
    # startup and watchdog
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self.host.id == min(self.all_hosts):
            # the initial holder; a tiny delay lets every stack finish wiring
            self.host.sim.schedule(
                1.0, self._acquire_token, 0, 0, self._incarnation
            )
        self._schedule_watchdog()

    def _token_timeout(self) -> float:
        # generous: several full rotations' worth of per-hop CPU cost
        return max(
            self.cfg.suspect_timeout_us,
            8 * len(self.all_hosts) * self.cfg.cpu_us_per_msg,
        )

    def _schedule_watchdog(self) -> None:
        self.host.sim.schedule(
            self._token_timeout(), self._watchdog, self._incarnation
        )

    def _watchdog(self, incarnation: int) -> None:
        if incarnation != self._incarnation or self.host.crashed:
            return
        if not self.recovering and not self.has_token:
            silent_for = self.host.sim.now - self.last_token_evidence
            live = [h for h in self.all_hosts if h not in self.suspected]
            if (
                silent_for > self._token_timeout()
                and live
                and live[0] == self.host.id
                and self.has_quorum()  # a minority may not mint tokens
            ):
                # regenerate: higher epoch retires any stale token in flight
                next_seq = max(
                    [self.seq_next, self.next_deliver]
                    + [s + 1 for s in self.buffer]
                )
                self._acquire_token(
                    self.token_epoch + 1, next_seq, self._incarnation
                )
        self._schedule_watchdog()

    # ------------------------------------------------------------------ #
    # submission (replaces the REQ-to-sequencer path)
    # ------------------------------------------------------------------ #

    def broadcast(self, payload: Any) -> Any:
        self._uid_counter += 1
        uid = (self.host.id, self._incarnation, self._uid_counter)
        if self.has_token:
            self._sequence(uid, self.host.id, payload)
        else:
            self.ring_pending.append((uid, payload))
        return uid

    def _submit(self, uid: Any, payload: Any) -> None:  # pragma: no cover
        raise AssertionError("token ring does not use the REQ path")

    def _retransmit(self, uid: Any, incarnation: int) -> None:
        # no REQ retransmission: the watchdog regenerates a lost token and
        # un-sequenced submissions sit safely in ring_pending
        return

    # ------------------------------------------------------------------ #
    # the token
    # ------------------------------------------------------------------ #

    def _acquire_token(self, epoch: int, next_seq: int, incarnation: int) -> None:
        if incarnation != self._incarnation or self.host.crashed:
            return
        if epoch < self.token_epoch:
            return  # stale token (a regeneration superseded it)
        if self.recovering:
            # mid-state-transfer we must not sequence; hand the token to
            # the lowest other live member rather than dropping it
            others = sorted(
                h
                for h in self.all_hosts
                if h not in self.suspected and h != self.host.id
            )
            if others:
                msg = Message(("token",))
                msg.push_header(self.name, ("TOKEN", epoch, next_seq), size=16)
                self.send_down(msg, dst=others[0])
            return
        self.token_epoch = epoch
        self.has_token = True
        self.last_token_evidence = self.host.sim.now
        self.seq_next = max(self.seq_next, next_seq)
        self._drain_held()  # quorum-deferred requests go first
        pending, self.ring_pending = self.ring_pending, []
        for uid, payload in pending:
            self._sequence(uid, self.host.id, payload)
        self._pass_token()

    def _pass_token(self) -> None:
        live = sorted(h for h in self.all_hosts if h not in self.suspected)
        others = [h for h in live if h != self.host.id]
        if not others:
            return  # sole member: keep the token; submissions sequence directly
        idx = 0
        for i, h in enumerate(live):
            if h == self.host.id:
                idx = i
                break
        nxt = live[(idx + 1) % len(live)]
        self.has_token = False
        self.tokens_passed += 1
        msg = Message(("token",))
        msg.push_header(self.name, ("TOKEN", self.token_epoch, self.seq_next), size=16)
        self.send_down(msg, dst=nxt)

    # ------------------------------------------------------------------ #
    # receive path additions
    # ------------------------------------------------------------------ #

    def from_lower(self, msg: Message, src: int = -1, **kw: Any) -> None:
        header = msg.peek_header(self.name)
        if header[0] == "TOKEN":
            msg.pop_header(self.name)
            _k, epoch, next_seq = header
            self._acquire_token(epoch, next_seq, self._incarnation)
            return
        if header[0] == "ORD" or header[0] == "RETR":
            self.last_token_evidence = self.host.sim.now
        super().from_lower(msg, src=src, **kw)

    def on_suspicion_change(self, suspected: set[int]) -> None:
        # no takeover sync here: a lost token is the watchdog's problem;
        # suspicion only changes the rotation membership
        self.suspected = set(suspected)

    def _drain_held(self) -> None:
        if not self.has_token:
            return  # sequencing rights travel with the token
        super()._drain_held()

    # ------------------------------------------------------------------ #
    # NACK repair target: any live member holds recent_log; lowest works
    # ------------------------------------------------------------------ #

    def sequencer(self) -> int:
        for h in self.all_hosts:
            if h not in self.suspected and h != self.host.id:
                return h
        return self.host.id

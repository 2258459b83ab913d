"""Membership: failure detection, ordered view changes, restart protocol.

Consul's membership service gives FT-Linda two things (Sec. 5 of the
paper): conversion of fail-silent crashes into **fail-stop** notifications
(the runtime "provid[es] failure notification in the form of a
distinguished failure tuple"), and a **restart protocol** — "when a
processor P_i recovers, a restart message is multicast to the other
processors, which then execute a protocol to add P_i back into the group".

Mechanics:

- every host broadcasts a heartbeat each ``hb_interval_us``; a host silent
  for ``suspect_timeout_us`` is *suspected*;
- suspicion is local soft state, but the **view** (the replicated member
  list) changes only via :class:`~repro.core.statemachine.HostFailed` /
  :class:`HostRecovered` commands sent through the total order, so every
  replica changes its view — and deposits the failure tuple — at exactly
  the same point in the command stream (virtual synchrony, in effect);
- only the *announce leader* (lowest-id unsuspected member) submits view
  changes, and duplicates are filtered against the current view on
  delivery, so detector races cannot double-announce;
- a restarting host broadcasts ``RESTART`` until a member orders a
  :class:`HostRecovered` command; the deterministic snapshot sender
  (lowest live member id) then ships the replica state — the actual
  transfer is done by the replica layer above.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.consul.config import ConsulConfig
from repro.consul.hosts import SimHost
from repro.consul.network import BROADCAST
from repro.consul.ordering import OrderingLayer
from repro.core.statemachine import HostFailed, HostRecovered
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol

__all__ = ["MembershipLayer"]


class MembershipLayer(Protocol):
    """Heartbeat detector plus ordered group-view maintenance."""

    name = "mem"

    def __init__(self, host: SimHost, all_hosts: list[int], cfg: ConsulConfig):
        super().__init__()
        self.host = host
        self.all_hosts = sorted(all_hosts)
        self.cfg = cfg
        self._incarnation = 0
        self._reset_state()

    def _reset_state(self) -> None:
        self.view: set[int] = set(self.all_hosts)
        self.suspected: set[int] = set()
        self.last_heard: dict[int, float] = {}
        self.restart_wanted: set[int] = set()
        self._announced: set[int] = set()
        self._restart_handled: dict[int, int] = {}  # host -> incarnation
        self.recovering = False
        self.view_changes = 0
        #: set by the replica layer: called to re-ship a lost snapshot
        self.on_resend_snapshot: Callable[[int], None] | None = None

    # ------------------------------------------------------------------ #
    # wiring helpers
    # ------------------------------------------------------------------ #

    @property
    def ordering(self) -> OrderingLayer:
        assert isinstance(self.lower, OrderingLayer)
        return self.lower

    def announce_leader(self) -> int:
        """The member responsible for submitting view changes."""
        live = sorted(self.view - self.suspected)
        return live[0] if live else self.host.id

    # ------------------------------------------------------------------ #
    # lifecycle / timers
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        now = self.host.sim.now
        for h in self.all_hosts:
            self.last_heard[h] = now
        self._schedule_heartbeat()
        self._schedule_check()

    def _schedule_heartbeat(self) -> None:
        self.host.sim.schedule(
            self.cfg.hb_interval_us, self._heartbeat, self._incarnation
        )

    def _heartbeat(self, incarnation: int) -> None:
        if incarnation != self._incarnation or self.host.crashed:
            return
        # heartbeats continue while recovering: a host mid-state-transfer
        # is alive, and a long snapshot must not get it re-suspected and
        # kicked out of the view it just rejoined.  The heartbeat carries
        # our delivery high-watermark so lagging peers can anti-entropy.
        msg = Message(("HB", self.host.id, self.ordering.next_deliver))
        self.send_down(msg, ordered=False, dst=BROADCAST)
        self._schedule_heartbeat()

    def _schedule_check(self) -> None:
        self.host.sim.schedule(
            self.cfg.hb_interval_us, self._check_liveness, self._incarnation
        )

    def _check_liveness(self, incarnation: int) -> None:
        if incarnation != self._incarnation or self.host.crashed:
            return
        if not self.recovering:
            now = self.host.sim.now
            for h in sorted(self.view):
                if h == self.host.id or h in self.suspected:
                    continue
                if now - self.last_heard.get(h, 0.0) > self.cfg.suspect_timeout_us:
                    self._suspect(h)
        self._schedule_check()

    def _has_quorum(self) -> bool:
        if not self.cfg.require_quorum:
            return True
        live = len(self.view - self.suspected)
        return live >= len(self.all_hosts) // 2 + 1

    def _suspect(self, h: int) -> None:
        self.suspected.add(h)
        self.ordering.on_suspicion_change(self.suspected)
        # only the majority side of a partition may order exclusions — the
        # ordering layer would refuse to sequence them anyway (quorum gate),
        # but not announcing avoids stale exclusion commands firing later
        if (
            self.announce_leader() == self.host.id
            and h not in self._announced
            and self._has_quorum()
        ):
            self._announced.add(h)
            self.ordering.broadcast(HostFailed(0, self.host.id, h))

    # ------------------------------------------------------------------ #
    # receive path
    # ------------------------------------------------------------------ #

    def from_lower(self, msg: Message, ordered: bool = False, src: int = -1, **kw: Any) -> None:
        if not ordered:
            self._handle_raw(msg, src)
            return
        payload = msg.payload
        if isinstance(payload, HostFailed):
            self._deliver_failed(payload, msg, **kw)
        elif isinstance(payload, HostRecovered):
            self._deliver_recovered(payload, msg, **kw)
        else:
            self.deliver_up(msg, ordered=True, src=src, **kw)

    def _handle_raw(self, msg: Message, src: int) -> None:
        payload = msg.payload
        tag = payload[0] if isinstance(payload, tuple) and payload else None
        if tag == "HB":
            h = payload[1]
            self.last_heard[h] = self.host.sim.now
            if not self.recovering and len(payload) > 2:
                self.ordering.note_remote_progress(payload[2])
            if h in self.view and h in self.suspected and not self.recovering:
                # a suspected-but-never-excluded host is heartbeating again
                # (partition healed before we could order its removal):
                # withdraw the suspicion so normal operation resumes
                self.suspected.discard(h)
                self._announced.discard(h)
                self.ordering.on_suspicion_change(self.suspected)
        elif tag == "RESTART":
            self._handle_restart(payload[1], payload[2])
        else:
            # snapshots and RPC traffic belong to the layer above
            self.deliver_up(msg, ordered=False, src=src)

    def _handle_restart(self, h: int, inc: int) -> None:
        if self.recovering:
            return
        self.last_heard[h] = self.host.sim.now
        if self.announce_leader() != self.host.id:
            return
        if self._restart_handled.get(h) == inc:
            # this restart is already in flight; if the host rejoined the
            # view but keeps asking, its snapshot was lost — ship it again
            if h in self.view and self.on_resend_snapshot is not None:
                self.on_resend_snapshot(h)
            return
        self._restart_handled[h] = inc
        self.restart_wanted.add(h)
        if h in self.view:
            # crashed and restarted before the failure was ordered: order
            # the crash first so the failure tuple and state reset happen
            if h not in self._announced:
                self._announced.add(h)
                self.ordering.broadcast(HostFailed(0, self.host.id, h))
        else:
            self._submit_recovered(h)

    def _submit_recovered(self, h: int) -> None:
        self.ordering.broadcast(HostRecovered(0, self.host.id, h))

    # ------------------------------------------------------------------ #
    # ordered view changes
    # ------------------------------------------------------------------ #

    def _deliver_failed(self, cmd: HostFailed, msg: Message, **kw: Any) -> None:
        h = cmd.failed_host
        if h not in self.view:
            return  # duplicate announcement: already removed
        self.view.discard(h)
        self.view_changes += 1
        self.suspected.add(h)
        self._announced.discard(h)
        self.ordering.on_suspicion_change(self.suspected)
        # the replica layer deposits the failure tuple / drops blocked reqs
        self.deliver_up(msg, ordered=True, **kw)
        if h == self.host.id:
            # WE were excluded (a false suspicion under heartbeat loss, or
            # a partition): the group has already reset state on our
            # behalf, so the only consistent move is the standard rejoin —
            # announce RESTART and wait for readmission plus a snapshot
            self._begin_self_rejoin()
            return
        if h in self.restart_wanted and self.announce_leader() == self.host.id:
            self._submit_recovered(h)

    def _begin_self_rejoin(self) -> None:
        if self.recovering:
            return
        self.recovering = True
        self.suspected.discard(self.host.id)
        self._incarnation += 1  # retire stale timers; fresh RESTART epoch
        self.ordering.begin_recovery()
        self._send_restart(self._incarnation)
        self._schedule_heartbeat()
        self._schedule_check()

    def _deliver_recovered(self, cmd: HostRecovered, msg: Message, **kw: Any) -> None:
        h = cmd.recovered_host
        if h in self.view:
            return  # duplicate
        self.view.add(h)
        self.view_changes += 1
        self.suspected.discard(h)
        self.restart_wanted.discard(h)
        self.last_heard[h] = self.host.sim.now
        self.ordering.on_suspicion_change(self.suspected)
        # replica layer applies the SM command and, if it is the
        # deterministic snapshot sender, ships state to the newcomer
        self.deliver_up(msg, ordered=True, **kw)

    # ------------------------------------------------------------------ #
    # our own crash/recovery
    # ------------------------------------------------------------------ #

    def host_crashed(self) -> None:
        self._incarnation += 1
        self._reset_state()

    def host_recovered(self) -> None:
        self._incarnation += 1
        self._reset_state()
        self.recovering = True
        self._send_restart(self._incarnation)
        self._schedule_heartbeat()
        self._schedule_check()

    def _send_restart(self, incarnation: int) -> None:
        if incarnation != self._incarnation or self.host.crashed:
            return
        if not self.recovering:
            return
        msg = Message(("RESTART", self.host.id, self._incarnation))
        self.send_down(msg, ordered=False, dst=BROADCAST)
        self.host.sim.schedule(
            self.cfg.restart_interval_us, self._send_restart, incarnation
        )

    def recovery_complete(self, view: set[int]) -> None:
        """Called by the replica layer once the snapshot is installed."""
        self.view = set(view)
        self.suspected = {h for h in self.all_hosts if h not in self.view}
        self.suspected.discard(self.host.id)
        self.recovering = False
        now = self.host.sim.now
        for h in self.view:
            self.last_heard[h] = now
        self.ordering.on_suspicion_change(self.suspected)

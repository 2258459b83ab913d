"""The replica layer: tuple-space state machines over ordered delivery.

Top of each host's protocol stack.  It owns two
:class:`~repro.core.statemachine.TSStateMachine` instances:

- the **stable** machine, identical on every host, fed exclusively by the
  totally ordered command stream — this is the replicated stable tuple
  space of the paper;
- a **volatile** machine, host-local, executing AGSs that touch only
  volatile spaces with no network traffic at all (and dying with the
  host, as volatile spaces must).

It also implements the data path of recovery: when a
:class:`~repro.core.statemachine.HostRecovered` command is delivered, the
deterministic *snapshot sender* (lowest live member id) captures the
stable machine plus the ordering layer's delivery coordinates — all at the
exact same point of the total order on every replica — and ships it to the
newcomer, which installs it and resumes ordered delivery from the next
sequence number.  One state transfer, no quiescing of the other replicas.
"""

from __future__ import annotations

from typing import Any

from repro._errors import AGSError
from repro.consul.config import ConsulConfig
from repro.consul.hosts import SimHost
from repro.consul.membership import MembershipLayer
from repro.core.ags import AGS
from repro.core.spaces import Resilience, Scope, SpaceRegistry, TSHandle
from repro.core.statemachine import (
    Command,
    Completion,
    CreateSpace,
    DestroySpace,
    ExecuteAGS,
    HostRecovered,
    TSStateMachine,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import SimEvent
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol

__all__ = ["ReplicaLayer"]

#: Base id for host-local volatile tuple spaces (disjoint from stable ids).
_VOLATILE_ID_BASE = 1_000_000_000
_VOLATILE_ID_SPAN = 1_000_000


def ags_domain(ags: AGS) -> str:
    """Classify an AGS as ``"stable"`` or ``"volatile"``.

    The two domains have different execution paths (multicast vs local),
    so one statement may not mix them — a mixed AGS could not be atomic
    with a single multicast, which is why the paper's design keeps bodies
    executable locally at every replica.  TS operands bound at run time
    (formal references) are assumed stable, the replicated default.
    """
    stable = False
    volatile = False
    for branch in ags.branches:
        ops = list(branch.body)
        if branch.guard.op is not None:
            ops.append(branch.guard.op)
        for op in ops:
            for operand in (op.ts, op.ts2):
                if operand is None:
                    continue
                value = getattr(operand, "value", None)
                if isinstance(value, TSHandle):
                    if value.stable:
                        stable = True
                    else:
                        volatile = True
                else:
                    stable = True  # dynamic handles default to stable
    if stable and volatile:
        raise AGSError(
            "an AGS may not mix stable and volatile tuple spaces: it could "
            "not be executed atomically with a single multicast"
        )
    return "volatile" if volatile else "stable"


def ags_op_count(ags: AGS) -> int:
    """Total tuple operations in an AGS (drives the CPU cost model)."""
    n = 0
    for branch in ags.branches:
        if branch.guard.op is not None:
            n += 1
        n += len(branch.body)
    return max(n, 1)


class ReplicaLayer(Protocol):
    """FT-Linda's library layer on one host of the replica group."""

    name = "replica"

    def __init__(self, host: SimHost, all_hosts: list[int], cfg: ConsulConfig):
        super().__init__()
        self.host = host
        self.all_hosts = sorted(all_hosts)
        self.cfg = cfg
        self.sm = TSStateMachine()
        # Blocked-since / last-out stamps must live in virtual time, or a
        # waiter's age would mix sim-microseconds with wall-clock seconds.
        self.sm.clock = self._sim_clock
        self.volatile = self._fresh_volatile()
        self.waiting: dict[int, SimEvent] = {}
        self._req_counter = 0
        self.recovering = False
        self.recovered_event: SimEvent | None = None
        self._queued_submissions: list[tuple[Command, int]] = []
        self.commands_applied = 0
        self._last_snapshot: dict[int, Any] = {}  # recovered host -> snapshot
        self._last_snapshot_sent: dict[int, float] = {}
        self._snapshot_fragments: dict[Any, dict[int, bytes]] = {}
        # Same instrument names as the real-time backends, so every
        # experiment reports the same numbers; sim virtual µs -> seconds.
        self.metrics = MetricsRegistry()
        self._h_submit = self.metrics.histogram("submit_to_order")
        self._h_apply = self.metrics.histogram("order_to_apply")
        self._h_e2e = self.metrics.histogram("ags_e2e")
        self._c_cmds = self.metrics.counter("commands_submitted")
        self._submit_t: dict[int, float] = {}
        self._order_t: dict[int, float] = {}
        #: Apply-stream hook: called as ``(host_id, slot, request_id)`` for
        #: every ordered command (``sim.trace.attach`` plants it; ``None`` = off).
        #: The slot is ``sm.applied_count`` — part of the snapshot, so a
        #: recovered host resumes counting exactly where its donor stood.
        self.trace_apply: Any | None = None

    def _sim_clock(self) -> float:
        """Virtual time in seconds (sim runs in microseconds)."""
        return self.host.sim.now / 1e6

    def _fresh_volatile(self) -> TSStateMachine:
        reg = SpaceRegistry(
            create_main=False,
            first_id=_VOLATILE_ID_BASE + self.host.id * _VOLATILE_ID_SPAN,
        )
        sm = TSStateMachine(reg, failure_spaces=[])
        sm.clock = self._sim_clock
        return sm

    # ------------------------------------------------------------------ #
    # wiring helpers
    # ------------------------------------------------------------------ #

    @property
    def membership(self) -> MembershipLayer:
        assert isinstance(self.lower, MembershipLayer)
        return self.lower

    def start(self) -> None:
        self.membership.on_resend_snapshot = self._resend_snapshot

    def _next_request_id(self) -> int:
        self._req_counter += 1
        return (
            self.host.id * 10**12
            + self.host.crash_count * 10**9
            + self._req_counter
        )

    # ------------------------------------------------------------------ #
    # client API (used by SimCluster views)
    # ------------------------------------------------------------------ #

    def submit_ags(self, ags: AGS, process_id: int = 0) -> SimEvent:
        """Execute *ags*; the returned event fires with its AGSResult."""
        domain = ags_domain(ags)
        rid = self._next_request_id()
        cmd = ExecuteAGS(rid, self.host.id, process_id, ags)
        ev = self.host.sim.event(f"ags#{rid}")
        self.waiting[rid] = ev
        self._note_submitted(rid)
        if domain == "volatile":
            self.host.cpu(
                self._apply_local,
                cmd,
                cost_us=self.cfg.apply_cost(ags_op_count(ags)),
            )
        else:
            self._submit_ordered(cmd)
        return ev

    def submit_create_space(
        self,
        name: str,
        resilience: Resilience = Resilience.STABLE,
        scope: Scope = Scope.SHARED,
        owner: int | None = None,
    ) -> SimEvent:
        rid = self._next_request_id()
        ev = self.host.sim.event(f"ts_create#{rid}")
        self.waiting[rid] = ev
        self._note_submitted(rid)
        if resilience is Resilience.VOLATILE:
            cmd = CreateSpace(rid, self.host.id, name, resilience, scope, owner)
            self.host.cpu(self._apply_local, cmd, cost_us=self.cfg.apply_base_us)
        else:
            self._submit_ordered(
                CreateSpace(rid, self.host.id, name, resilience, scope, owner)
            )
        return ev

    def submit_destroy_space(self, handle: TSHandle) -> SimEvent:
        rid = self._next_request_id()
        ev = self.host.sim.event(f"ts_destroy#{rid}")
        self.waiting[rid] = ev
        self._note_submitted(rid)
        cmd = DestroySpace(rid, self.host.id, handle)
        if handle.stable:
            self._submit_ordered(cmd)
        else:
            self.host.cpu(self._apply_local, cmd, cost_us=self.cfg.apply_base_us)
        return ev

    def _note_submitted(self, rid: int) -> None:
        self._c_cmds.inc()
        self._submit_t[rid] = self.host.sim.now

    def _submit_ordered(self, cmd: Command) -> None:
        if self.recovering:
            self._queued_submissions.append((cmd, 0))
            return
        self.send_down(Message(cmd), ordered=True)

    def _apply_local(self, cmd: Command) -> None:
        completions = self.volatile.apply(cmd)
        self._complete(completions)

    # ------------------------------------------------------------------ #
    # ordered delivery
    # ------------------------------------------------------------------ #

    def from_lower(
        self,
        msg: Message,
        ordered: bool = False,
        src: int = -1,
        seqno: int | None = None,
        **kw: Any,
    ) -> None:
        if not ordered:
            payload = msg.payload
            if isinstance(payload, tuple) and payload and payload[0] == "SNAPFRAG":
                self._receive_snapshot_fragment(payload)
            elif isinstance(payload, tuple) and payload and payload[0] == "RPC_REQ":
                self._handle_rpc(payload)
            return
        cmd = msg.payload
        if not isinstance(cmd, Command):  # pragma: no cover - defensive
            raise TypeError(f"ordered payload is not a Command: {cmd!r}")
        # Apply synchronously so the stable machine always equals the
        # delivered prefix (snapshots need this exactness); the CPU cost is
        # charged to the completion notifications below.
        completions = self.sm.apply(cmd)
        self.commands_applied += 1
        if self.trace_apply is not None:
            self.trace_apply(self.host.id, self.sm.applied_count, cmd.request_id)
        rid = getattr(cmd, "request_id", None)
        if rid is not None and rid in self._submit_t and rid not in self._order_t:
            now = self.host.sim.now
            self._order_t[rid] = now
            self._h_submit.record((now - self._submit_t[rid]) / 1e6)
        if isinstance(cmd, HostRecovered) and seqno is not None:
            self._maybe_send_snapshot(cmd.recovered_host, seqno)
        from repro.core.statemachine import HostFailed

        if isinstance(cmd, HostFailed) and cmd.failed_host == self.host.id:
            # falsely excluded: the membership layer has started the rejoin
            # dance; pause submissions until the snapshot reinstates us
            self._begin_rejoin()
        cost = self.cfg.apply_cost(
            ags_op_count(cmd.ags) if isinstance(cmd, ExecuteAGS) else 1
        )
        self.host.cpu(self._complete, completions, cost_us=cost)

    def _complete(self, completions: list[Completion]) -> None:
        for c in completions:
            if c.origin_host != self.host.id:
                continue
            now = self.host.sim.now
            t_ord = self._order_t.pop(c.request_id, None)
            if t_ord is not None:
                self._h_apply.record((now - t_ord) / 1e6)
            t_sub = self._submit_t.pop(c.request_id, None)
            if t_sub is not None:
                self._h_e2e.record((now - t_sub) / 1e6)
            ev = self.waiting.pop(c.request_id, None)
            if ev is not None and not ev.triggered:
                ev.succeed(c.result)

    # ------------------------------------------------------------------ #
    # tuple-server side of the Figure 17 RPC configuration
    # ------------------------------------------------------------------ #

    def _handle_rpc(self, payload: tuple) -> None:
        """Serve one forwarded request: submit locally, reply on completion."""
        _k, rid, client_host, process_id, ags = payload
        ev = self.submit_ags(ags, process_id)
        ev.add_waiter(lambda result: self._rpc_reply(client_host, rid, result))

    def _rpc_reply(self, client_host: int, rid: int, result: Any) -> None:
        if self.host.crashed:
            return
        msg = Message(("RPC_REP", rid, result))
        self.send_down(msg, ordered=False, dst=client_host)

    # ------------------------------------------------------------------ #
    # recovery data path
    # ------------------------------------------------------------------ #

    def _maybe_send_snapshot(self, recovered: int, seqno: int) -> None:
        view = self.membership.view
        senders = sorted(view - {recovered})
        if not senders or senders[0] != self.host.id:
            return
        ordering = self.membership.ordering
        snapshot = {
            "sm": self.sm.snapshot(),
            "view": sorted(view),
            "next_deliver": seqno + 1,
            "delivered_uids": list(ordering.delivered_uids),
        }
        self._last_snapshot[recovered] = snapshot
        self._send_snapshot(recovered, snapshot)

    #: Snapshot fragment payload size.  One unfragmented multi-hundred-KB
    #: frame would monopolize the 10 Mb medium long enough to starve
    #: heartbeats and get hosts falsely suspected — exactly why real
    #: transfers fragment.  8 KB ≈ 6.5 ms of wire time per fragment.
    SNAPSHOT_FRAGMENT_BYTES = 8192

    def _send_snapshot(self, dst: int, snapshot: dict[str, Any]) -> None:
        import pickle

        self._last_snapshot_sent[dst] = self.host.sim.now
        blob = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        step = self.SNAPSHOT_FRAGMENT_BYTES
        chunks = [blob[i : i + step] for i in range(0, len(blob), step)] or [b""]
        xfer_id = (self.host.id, self._last_snapshot_sent[dst])
        # pace the fragments: a back-to-back burst would reserve the shared
        # medium for the whole transfer and starve heartbeats/data anyway
        wire_us = step * 8 / self.host.segment.bandwidth_bps * 1e6
        gap = wire_us * 1.5
        generation = self.host.crash_count
        for idx, chunk in enumerate(chunks):
            self.host.sim.schedule(
                idx * gap,
                self._send_fragment,
                generation,
                dst,
                ("SNAPFRAG", xfer_id, idx, len(chunks), chunk),
            )

    def _send_fragment(self, generation: int, dst: int, payload: tuple) -> None:
        if self.host.crashed or generation != self.host.crash_count:
            return
        self.send_down(Message(payload), ordered=False, dst=dst)

    def _receive_snapshot_fragment(self, payload: tuple) -> None:
        import pickle

        _k, xfer_id, idx, total, chunk = payload
        if not self.recovering:
            return
        buf = self._snapshot_fragments.setdefault(xfer_id, {})
        buf[idx] = chunk
        if len(buf) == total:
            blob = b"".join(buf[i] for i in range(total))
            self._snapshot_fragments.clear()
            self._install_snapshot(pickle.loads(blob))

    def _resend_snapshot(self, dst: int) -> None:
        snap = self._last_snapshot.get(dst)
        if snap is None:
            return
        # large snapshots take a while on the wire; a newcomer re-announcing
        # RESTART in the meantime does not mean the transfer was lost
        last = self._last_snapshot_sent.get(dst, -1e18)
        if self.host.sim.now - last < 4 * self.cfg.restart_interval_us:
            return
        self._send_snapshot(dst, snap)

    def _install_snapshot(self, snapshot: dict[str, Any]) -> None:
        if not self.recovering:
            return  # duplicate shipment
        self.sm = TSStateMachine.from_snapshot(snapshot["sm"])
        # from_snapshot stamped parked statements with the default wall
        # clock; move them (and future stamps) into virtual time
        self.sm.clock = self._sim_clock
        now = self._sim_clock()
        for b in self.sm.blocked:
            b.since = now
        ordering = self.membership.ordering
        ordering.install_recovery(
            snapshot["next_deliver"], set(snapshot["delivered_uids"])
        )
        self.membership.recovery_complete(set(snapshot["view"]))
        self.recovering = False
        queued, self._queued_submissions = self._queued_submissions, []
        for cmd, _ in queued:
            self.send_down(Message(cmd), ordered=True)
        if self.recovered_event is not None and not self.recovered_event.triggered:
            self.recovered_event.succeed(self.host.sim.now)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def host_crashed(self) -> None:
        self.waiting.clear()
        self._queued_submissions.clear()
        self._submit_t.clear()
        self._order_t.clear()
        self.volatile = self._fresh_volatile()
        self._last_snapshot.clear()
        self._snapshot_fragments.clear()

    def host_recovered(self) -> None:
        self.recovering = True
        self._req_counter = 0
        self.recovered_event = self.host.sim.event(f"h{self.host.id}.recovered")

    def _begin_rejoin(self) -> None:
        """Enter recovering mode without a crash (false exclusion)."""
        if self.recovering:
            return
        self.recovering = True
        self.recovered_event = self.host.sim.event(f"h{self.host.id}.rejoined")

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def stable_fingerprint(self) -> int:
        return self.sm.fingerprint()

    def space_size(self, handle: TSHandle) -> int:
        sm = self.sm if handle.stable else self.volatile
        return len(sm.registry.store(handle))

    def space_tuples(self, handle: TSHandle):
        sm = self.sm if handle.stable else self.volatile
        return sm.registry.store(handle).to_list()

    def introspection(self) -> dict[str, Any]:
        """Merged stable + host-local volatile live-state image.

        Both machines run on the sim's virtual clock, so waiter ages and
        last-out ages are in virtual seconds.
        """
        now = self._sim_clock()
        stable = self.sm.introspection(now)
        vol = self.volatile.introspection(now)
        stable["waiters"].extend(vol["waiters"])
        stable["spaces"].extend(vol["spaces"])
        stable["last_out_age"].update(vol["last_out_age"])
        return stable

"""Liveness: the failure detector and the self-healing supervisor.

Opt-in (a group built with no :class:`LivenessPolicy` has no detector and
no monitor thread).  The monitor thread's whole body is
:meth:`Liveness.tick`, and everything the tick decides — who is silent,
who is dead, which restart has fallen due — it decides from the ``now``
it is handed; a restart's backoff counts from :data:`repro.sync.now`, so a
test that swaps that clock checks detection and restarts alike in virtual
time.  What a decision *does* is handed in: the group's
``declare_dead`` (the single path out of the live set) and ``recover``
(restart + state transfer).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import sync
from repro.obs.events import emit as emit_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Daemon
from repro.obs.tracing import FlightRecorder
from repro.replication.transport import Transport

__all__ = ["Liveness", "LivenessPolicy"]


class LivenessPolicy:
    """Tuning for the failure detector and the self-healing supervisor.

    The detector declares a replica dead only when BOTH halves agree: it
    has been *silent* on the feedback lane for at least ``suspect_after``
    seconds (no completion, query answer, or heartbeat answer) AND the
    transport-level probe (``Process.is_alive()`` / thread aliveness)
    fails.  Silence alone is just suspicion — a replica grinding through
    a huge batch is quiet but healthy, and the probe keeps it from being
    shot.  A dead vehicle alone is caught within one ``probe_interval``
    of the silence threshold, which bounds detection latency at roughly
    ``suspect_after + probe_interval``.

    ``auto_recover`` additionally drives the snapshot/install recovery
    protocol after each detected death, waiting out a capped exponential
    backoff (``backoff_initial`` doubling up to ``backoff_max``) between
    a replica's successive restarts and giving up for good after
    ``max_restarts`` attempts — a crash-looping replica must not consume
    the group.
    """

    __slots__ = (
        "probe_interval", "suspect_after", "auto_recover", "max_restarts",
        "backoff_initial", "backoff_max",
    )

    def __init__(
        self,
        *,
        probe_interval: float = 0.25,
        suspect_after: float = 1.0,
        auto_recover: bool = False,
        max_restarts: int = 3,
        backoff_initial: float = 0.1,
        backoff_max: float = 2.0,
    ):
        if probe_interval <= 0 or suspect_after <= 0:
            raise ValueError("probe_interval and suspect_after must be positive")
        self.probe_interval = probe_interval
        self.suspect_after = suspect_after
        self.auto_recover = auto_recover
        self.max_restarts = max_restarts
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max


class Liveness:
    """Owns the last-heard stamps, the restart budget and the monitor thread.

    *declare_dead(replica, cause)* returns False when the replica was
    already dead (someone else owned the death); *recover(replica)*
    raises when a restart fails.  The monitor thread is :attr:`thread`, a
    :class:`~repro.obs.profile.Daemon` ticking every ``probe_interval``;
    until it is started, :meth:`tick` is the caller's to drive.
    """

    def __init__(
        self,
        policy: LivenessPolicy,
        transport: Transport,
        alive: Sequence[bool],
        declare_dead: Callable[[int, str], bool],
        recover: Callable[[int], None],
        metrics: MetricsRegistry,
        *,
        tracer: FlightRecorder | None = None,
        role: str = "liveness-monitor",
        owner: str = "group",
    ):
        self.policy = policy
        self._transport = transport
        self._alive = alive
        self._declare_dead = declare_dead
        self._recover = recover
        self._tracer = tracer
        self._owner = owner
        #: When each replica last said anything on the feedback lane —
        #: completions double as heartbeats, and the tick's own in-band
        #: query covers idle replicas.
        self._last_seen = [sync.now()] * len(alive)
        self._restarts = [0] * len(alive)
        #: replica -> earliest time its next restart may run.
        self._recover_pending: dict[int, float] = {}
        self._c_failures, self._c_autorec, self._h_detect = self.instruments(metrics)
        self.thread = Daemon(
            role, lambda: self.tick(sync.now()), every=policy.probe_interval
        )

    @staticmethod
    def instruments(metrics: MetricsRegistry) -> tuple:
        """The detector's instruments.  A group with no detector registers
        them too (reading zero), so every group reports the same names."""
        return (
            metrics.counter("failures_detected"),
            metrics.counter("auto_recoveries"),
            metrics.histogram("detection_latency"),
        )

    def heard(self, replica_id: int, now: float) -> None:
        """*replica_id* said something: any emission proves its apply
        loop is running."""
        self._last_seen[replica_id] = now

    def rejoined(self, replica_id: int, now: float) -> None:
        """*replica_id* is live again, by whoever's hand: no restart is
        owed, and it starts with a clean slate — without which the
        monitor would re-suspect it instantly."""
        self._last_seen[replica_id] = now
        self._recover_pending.pop(replica_id, None)

    def tick(self, now: float) -> None:
        """Detect dead replicas; drive the restarts that have fallen due.

        Every live replica is sent an in-band ``applied`` query under the
        never-registered qid 0 — a healthy replica's answer is dropped
        like any late answer, and like every emission it refreshes the
        replica's last-heard stamp on the way.  A replica is then declared
        dead when it is BOTH silent past ``suspect_after`` AND failing the
        transport probe.  Silence alone never kills: a replica buried in a
        long batch answers late but its process/thread is demonstrably
        alive.  The dead are declared through the same path as a
        cooperative ``crash_replica``, so survivors see one ordered
        failure tuple at one slot.
        """
        policy = self.policy
        for i in range(len(self._alive)):
            if not self._alive[i]:
                continue
            try:
                self._transport.send(i, ("QUERY", 0, "applied", None))
            except Exception:  # noqa: BLE001 - a dying queue is itself a signal
                pass
            silent = now - self._last_seen[i]
            if silent < policy.suspect_after:
                continue
            if self._transport.probe(i):
                continue  # suspect, but demonstrably alive: keep waiting
            self._detected(i, silent, now)
        self._drive_recoveries(now)

    def _detected(self, replica_id: int, silent: float, now: float) -> None:
        if not self._declare_dead(replica_id, "detector"):
            return  # raced a cooperative crash_replica; it owned the death
        self._c_failures.inc()
        self._h_detect.record(silent)
        emit_event(
            "failure_detected", severity="warning",
            group=self._owner, replica=replica_id, silent_s=round(silent, 4),
        )
        if self._tracer is not None:
            self._tracer.record_span(
                sync.now(), "monitor", "liveness", "detect",
                args={"replica": replica_id, "silent_s": round(silent, 4)},
            )
        if self.policy.auto_recover:
            self._schedule(replica_id, now)

    def _schedule(self, replica_id: int, now: float) -> None:
        policy = self.policy
        attempts = self._restarts[replica_id]
        if attempts >= policy.max_restarts:
            if self._tracer is not None:
                self._tracer.record_span(
                    sync.now(), "monitor", "liveness", "gave_up",
                    args={"replica": replica_id, "restarts": attempts},
                )
            emit_event(
                "recovery_gave_up", severity="error",
                group=self._owner, replica=replica_id, restarts=attempts,
            )
            return  # crash-looping: the restart budget is spent
        delay = sync.backoff(attempts, policy.backoff_initial, policy.backoff_max)
        self._recover_pending[replica_id] = now + delay

    def _drive_recoveries(self, now: float) -> None:
        for replica_id, due in list(self._recover_pending.items()):
            if self._alive[replica_id]:
                self._recover_pending.pop(replica_id, None)
                continue
            if now < due:
                continue
            self._recover_pending.pop(replica_id, None)
            self._restarts[replica_id] += 1
            t0 = sync.now()
            try:
                self._recover(replica_id)
            except Exception:  # noqa: BLE001 - retry with more backoff
                self._schedule(replica_id, sync.now())
            else:
                self._c_autorec.inc()
                took = sync.now() - t0
                emit_event(
                    "auto_recovered",
                    group=self._owner, replica=replica_id,
                    attempt=self._restarts[replica_id], took_s=round(took, 4),
                )
                if self._tracer is not None:
                    self._tracer.record_span(
                        t0, "monitor", "liveness", "auto_recover", dur=took,
                        args={
                            "replica": replica_id,
                            "attempt": self._restarts[replica_id],
                        },
                    )

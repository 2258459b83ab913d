"""Chaos injection for the parallel backends: break things, on purpose.

The liveness plane's claim — SIGKILLed replicas are detected, poison
commands can't fork the group, internal-thread deaths don't wedge
clients — is only worth making if something routinely tries to falsify
it.  This module is that something: a :class:`ChaosMonkey` bound to a
running parallel runtime, with one method per fault the replication layer
promises to survive:

- :meth:`ChaosMonkey.kill_replica` — the *non-cooperative* crash.  On
  the multiprocess backend this is a literal ``SIGKILL`` of the replica
  process; on the threaded backend the worker thread is halted directly.
  Crucially the replica group is **not told**: only the failure detector
  can notice, which is exactly what these faults exist to exercise
  (``crash_replica`` by contrast is the cooperative path — the group
  does its own bookkeeping because the caller is the one shooting).
- :meth:`ChaosMonkey.poison_command` — submit a :class:`Detonate`, a
  command whose ``apply`` deterministically raises on every replica.
  The apply loop's poison barrier must convert it into a
  :class:`~repro._errors.CommandFailed` for the submitting client while
  every replica stays fingerprint-identical.
- :meth:`ChaosMonkey.delay_replica` — stall one replica's delivery lane
  (an in-band ``sleep`` request), creating lag and false-suspicion pressure
  without killing anything: the detector must NOT fire (the probe still
  passes).
- :meth:`ChaosMonkey.kill_sequencer` — feed the sequencer thread an
  item it cannot process.  Its death must mark the group failed and
  wake every waiter.

- :meth:`ChaosMonkey.kill_donor_mid_transfer` — arm a one-shot kill of
  the next state transfer's donor, mid-transfer.

The monkey's RNG is seeded, so a caller that draws its victims from
``monkey.rng`` (``cli chaos`` does) reproduces a failing run exactly.
"""

from __future__ import annotations

import os
import random
import signal
from typing import Any, Callable

from repro import sync
from repro._errors import RuntimeFailure
from repro.core.statemachine import Command
from repro.replication.group import CLIENT_ORIGIN, ReplicaGroup
from repro.replication.transport import InMemoryTransport, PipeTransport

__all__ = ["ChaosMonkey"]


class Detonate(Command):
    """A poison command: no state machine knows how to apply it.

    ``TSStateMachine.apply`` raises ``TypeError`` on unknown command
    types — deterministically, on every replica — which makes this the
    minimal reproducible stand-in for any apply-path bug: same slot,
    same exception, everywhere.  The apply loop's poison barrier must
    turn it into a failed completion rather than a dead replica.
    """

    __slots__ = ()


class ChaosMonkey:
    """Fault injection against one parallel runtime.

    Parameters
    ----------
    runtime:
        A ``ThreadedReplicaRuntime`` or ``MultiprocessRuntime`` (anything
        exposing a ``group`` attribute bound to a ReplicaGroup).
    seed:
        Seeds :attr:`rng`, which picks the ``shard="random"`` target and
        which callers draw their victims from; runs with the same seed
        inject the same faults.
    shard:
        Which shard group to torment on a sharded runtime: an int index,
        a name like ``"shard2"``, or ``"random"`` to pick one with the
        seeded RNG (so scripted runs stay reproducible).  ``None`` — the
        default — targets ``runtime.group``, i.e. shard 0, which on an
        unsharded runtime is the whole pipeline.
    """

    def __init__(
        self,
        runtime: Any,
        seed: int | None = None,
        *,
        shard: int | str | None = None,
    ):
        self.runtime = runtime
        self.rng = random.Random(seed)
        self.group: ReplicaGroup = self._resolve_shard(runtime, shard)
        #: Everything injected, in order: (t_offset_s, action, args).
        self.log: list[tuple[float, str, tuple]] = []
        self._t0 = sync.now()

    def _note(self, action: str, *args: Any) -> None:
        self.log.append((sync.now() - self._t0, action, args))
        # chaos actions share the telemetry plane's event timeline, so a
        # postmortem reads injections and detections in one stream
        from repro.obs.events import emit

        emit("chaos_" + action, severity="warning",
             args=[repr(a) for a in args])

    def _resolve_shard(
        self, runtime: Any, shard: int | str | None
    ) -> ReplicaGroup:
        if shard is None:
            return runtime.group
        groups: list[ReplicaGroup] = getattr(runtime, "shard_groups", None) or [
            runtime.group
        ]
        if shard == "random":
            return groups[self.rng.randrange(len(groups))]
        if isinstance(shard, int):
            return groups[shard]
        for g in groups:
            if g.name == shard:
                return g
        raise ValueError(
            f"no shard group named {shard!r} "
            f"(have: {[g.name or 'shard0' for g in groups]})"
        )

    # ------------------------------------------------------------------ #
    # the faults
    # ------------------------------------------------------------------ #

    def kill_replica(self, replica_id: int) -> None:
        """Hard-kill one replica WITHOUT telling the group.

        Multiprocess: SIGKILL the replica process — the OS-level death
        the paper's fail-silent processors model.  Threaded: halt the
        worker thread directly.  Either way the group's bookkeeping is
        bypassed; only the failure detector (or a client timing out) can
        notice.
        """
        transport = self.group.transport
        if isinstance(transport, PipeTransport):
            proc = transport.processes[replica_id]
            if proc.pid is not None and proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
        elif isinstance(transport, InMemoryTransport):
            # halt flag + wakeup, exactly what a thread dying of an
            # unhandled exception looks like from outside; the probe
            # (halted check) now fails while the group still counts the
            # replica as alive
            transport._halted[replica_id] = True
            transport._fifos[replica_id].put(("STOP",))
        else:  # pragma: no cover - future transports
            raise TypeError(
                f"don't know how to kill a replica of {type(transport).__name__}"
            )
        self._note("kill_replica", replica_id)

    def poison_command(self) -> Any:
        """Submit a command whose apply raises on every replica.

        Returns the exception the group surfaced (expected:
        :class:`~repro._errors.CommandFailed`); raises if the group
        swallowed the poison silently.
        """
        cmd = Detonate(self.group.next_request_id(), CLIENT_ORIGIN)
        self._note("poison_command", cmd.request_id)
        try:
            result = self.group.call(cmd, 30.0)
        except RuntimeFailure as exc:
            return exc
        raise AssertionError(
            f"poison command returned {result!r} instead of failing"
        )

    def delay_replica(self, replica_id: int, seconds: float) -> None:
        """Stall one replica's delivery lane for *seconds* (in-band)."""
        self.group.requests.tell(replica_id, "sleep", seconds)
        self._note("delay_replica", replica_id, seconds)

    def kill_sequencer(self) -> None:
        """Feed the sequencer thread a batch entry it cannot process.

        After this the group is dead by design: the test of interest is
        that every parked and subsequent call fails fast with
        ``RuntimeFailure`` instead of hanging.
        """
        seq = self.group.seq
        with seq._pending_lock:
            seq._pending.append(("BOOM",))  # type: ignore[arg-type]
        seq.thread.kick()
        self._note("kill_sequencer")

    def kill_donor_mid_transfer(self, at_chunk: int = 1) -> Callable[[], int | None]:
        """Arm a one-shot fault: kill the donor of the NEXT chunked state
        transfer right after it serves chunk *at_chunk*.

        Exercises the resumable-transfer claim: the recovery driver must
        notice the death via the transport probe (it holds the sequencer
        lock, so the failure detector cannot help it), resume the fetch
        from another live donor, and only afterwards declare the victim
        dead.  The kill uses the same non-cooperative path as
        :meth:`kill_replica` — no group bookkeeping runs on this thread,
        which would deadlock against the lock the transfer holds.

        Returns a ``fired()`` callable: the killed donor's id, or None if
        no transfer reached *at_chunk* chunks yet.
        """
        transfer = self.group.transfer
        victim: list[int] = []

        def hook(donor: int, idx: int, total: int) -> None:
            if not victim and idx == at_chunk:
                victim.append(donor)
                transfer.chunk_hook = None
                self.kill_replica(donor)
                self._note("kill_donor_mid_transfer", donor, idx, total)

        transfer.chunk_hook = hook
        self._note("arm_donor_kill", at_chunk)
        return lambda: victim[0] if victim else None

    # ------------------------------------------------------------------ #
    # observation helpers (used by tests and the failover benchmark)
    # ------------------------------------------------------------------ #

    def wait_detected(self, replica_id: int, timeout: float = 10.0) -> float:
        """Block until the group declares *replica_id* dead; return seconds."""
        return self._wait_alive(replica_id, False, timeout, "declared dead")

    def wait_recovered(self, replica_id: int, timeout: float = 30.0) -> float:
        """Block until *replica_id* rejoins the live set; return seconds."""
        return self._wait_alive(replica_id, True, timeout, "recovered")

    def _wait_alive(self, replica_id: int, alive: bool, timeout: float, what: str) -> float:
        """Poll every 5 ms until the live mask reads *alive* for *replica_id*."""
        t0 = sync.now()
        deadline = t0 + timeout
        while self.group.alive[replica_id] != alive:
            if sync.now() > deadline:
                raise TimeoutError(f"replica {replica_id} not {what} within {timeout}s")
            sync.sleep(0.005)
        return sync.now() - t0

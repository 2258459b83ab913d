"""Ethernet-like broadcast network model.

The paper's testbed is "Sun-3 workstations connected by a 10 Mb Ethernet".
This module models that medium at the level the protocols care about:

- a **shared segment**: one transmission at a time; frames queue for the
  medium and serialize at ``bandwidth`` bits/s (transmission delay grows
  with frame size, so big AGS requests genuinely cost more);
- **hardware broadcast**: a single frame addressed to
  :data:`BROADCAST` reaches every attached host — this is what makes the
  paper's "single multicast message per AGS" a single wire transmission;
- **propagation delay** plus small seeded jitter;
- fault injection: per-frame loss probability, scheduled **partitions**
  (sets of hosts that cannot hear each other), and crashed hosts silently
  dropping inbound frames (fail-silent).

Statistics (frames, bytes, unicasts vs broadcasts) feed the message-count
experiment E4.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.sim.kernel import Simulator
from repro.xkernel.message import Message

__all__ = ["BROADCAST", "EthernetSegment", "NIC"]

#: Destination id meaning "every host on the segment".
BROADCAST = -1

#: Ethernet framing overhead in bytes (header + FCS + preamble equivalent).
FRAME_OVERHEAD = 26


class NetworkStats:
    """Counters the benchmarks read after a run."""

    __slots__ = ("frames", "broadcast_frames", "unicast_frames", "bytes", "dropped")

    def __init__(self) -> None:
        self.frames = 0
        self.broadcast_frames = 0
        self.unicast_frames = 0
        self.bytes = 0
        self.dropped = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "frames": self.frames,
            "broadcast_frames": self.broadcast_frames,
            "unicast_frames": self.unicast_frames,
            "bytes": self.bytes,
            "dropped": self.dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkStats({self.snapshot()!r})"


class NIC:
    """A host's attachment to the segment.

    ``receive`` is the callback into the host's protocol stack; it is
    invoked only while the host is up (the ``up`` flag models fail-silent
    crashes at the hardware boundary).
    """

    __slots__ = ("host_id", "receive", "up")

    def __init__(self, host_id: int, receive: Callable[[Message, int], None]):
        self.host_id = host_id
        self.receive = receive
        self.up = True


class EthernetSegment:
    """The shared broadcast medium.

    Parameters
    ----------
    sim:
        The simulator supplying the clock and seeded RNG.
    bandwidth_bps:
        Raw bit rate; the paper's testbed is ``10_000_000`` (10 Mb).
    propagation_us:
        One-way propagation/controller latency per frame, microseconds.
    jitter_us:
        Uniform extra delay in ``[0, jitter_us]`` drawn per frame from the
        seeded RNG (models controller scheduling noise deterministically).
    loss_probability:
        Per-receiver chance a frame is silently dropped.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        bandwidth_bps: float = 10_000_000.0,
        propagation_us: float = 50.0,
        jitter_us: float = 0.0,
        loss_probability: float = 0.0,
    ):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_us = propagation_us
        self.jitter_us = jitter_us
        self.loss_probability = loss_probability
        self.stats = NetworkStats()
        self._nics: dict[int, NIC] = {}
        self._busy_until = 0.0
        self._partitions: list[frozenset[int]] = []

    # ------------------------------------------------------------------ #
    # attachment and faults
    # ------------------------------------------------------------------ #

    def attach(self, nic: NIC) -> None:
        if nic.host_id in self._nics:
            raise ValueError(f"host {nic.host_id} already attached")
        self._nics[nic.host_id] = nic

    def set_partitions(self, groups: Iterable[Iterable[int]]) -> None:
        """Split the segment: hosts hear only frames from their own group.

        Pass an empty list to heal the partition.
        """
        self._partitions = [frozenset(g) for g in groups]

    def _reachable(self, src: int, dst: int) -> bool:
        if not self._partitions:
            return True
        for group in self._partitions:
            if src in group:
                return dst in group
        return True  # src in no group: unrestricted

    # ------------------------------------------------------------------ #
    # transmission
    # ------------------------------------------------------------------ #

    def transmit(self, src: int, dst: int, msg: Message) -> float:
        """Queue a frame from *src* to *dst* (or :data:`BROADCAST`).

        Returns the absolute virtual time at which the frame finishes
        transmitting (the medium becomes free).  Receivers get their
        ``receive`` callback at transmit-end + propagation (+ jitter).
        """
        size = msg.size + FRAME_OVERHEAD
        tx_us = (size * 8) / self.bandwidth_bps * 1_000_000.0
        start = max(self.sim.now, self._busy_until)
        end = start + tx_us
        self._busy_until = end
        self.stats.frames += 1
        self.stats.bytes += size
        if dst == BROADCAST:
            self.stats.broadcast_frames += 1
            receivers = [h for h in sorted(self._nics) if h != src]
        else:
            self.stats.unicast_frames += 1
            receivers = [dst] if dst in self._nics else []
        for hid in receivers:
            if not self._reachable(src, hid):
                continue
            if (
                self.loss_probability > 0.0
                and self.sim.rng.random() < self.loss_probability
            ):
                self.stats.dropped += 1
                continue
            jitter = (
                self.sim.rng.uniform(0.0, self.jitter_us) if self.jitter_us else 0.0
            )
            delay = (end - self.sim.now) + self.propagation_us + jitter
            # each receiver gets its own copy: header pops must not alias
            self.sim.schedule(delay, self._deliver, hid, msg.copy(), src)
        return end

    def _deliver(self, host_id: int, msg: Message, src: int) -> None:
        nic = self._nics.get(host_id)
        if nic is None or not nic.up:
            return
        nic.receive(msg, src)

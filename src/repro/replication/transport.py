"""Transports: how ordered items reach replica workers.

A :class:`Transport` is the only thing a new backend has to provide.  It
moves opaque *items* (see :mod:`repro.replication.worker` for the item
protocol) to N replica workers — preserving, per replica, the order in
which the sequencer handed them over — and funnels whatever the workers
emit back into a single sink callable.  Everything stateful about
replication (sequencing, parking, dedup, membership bookkeeping) lives in
:class:`~repro.replication.group.ReplicaGroup` and the components it
composes, NOT here; a transport is pure plumbing.  Every member of the
protocol is required: the group reads ``per_process_workers`` and calls
``depth``, ``probe`` and ``restart_replica`` without asking first.

Two implementations ship with the library:

- :class:`InMemoryTransport` — one C ``SimpleQueue`` FIFO + applier
  thread per replica, the substrate of :class:`~repro.parallel.ThreadedReplicaRuntime`;
- :class:`PipeTransport` — one spawned OS process per replica, joined to
  the parent by two one-way pipes carrying length-prefixed pickles (the
  same marshalling commands would get on a wire), the substrate of
  :class:`~repro.parallel.MultiprocessRuntime`.  ``broadcast``
  pickles a batch ONCE and the calling thread writes that one frame to
  every live replica — one ``write`` per replica per batch, no feeder
  thread, no re-marshalling.  In that frame every statement is ``(…,
  plan id, actuals)`` — the id of its skeleton, and its constants behind
  its actuals — and a skeleton's definition rides only in the first
  frame that uses it (the format, and when a definition is sent again,
  are :mod:`repro.replication.worker`'s); ``send`` pickles what it is
  given.

A future asyncio or socket backend is a third class in this file (or a
user module) and nothing else.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import select
import struct
import threading
from collections import deque
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro import sync
from repro.replication.worker import compact_batch, replica_loop, run_replica_process

__all__ = ["InMemoryTransport", "PipeTransport", "Transport"]

#: What a transport calls with every item a worker emits: (replica_id, item).
Sink = Callable[[int, tuple], None]


@runtime_checkable
class Transport(Protocol):
    """The seam between the ReplicaGroup core and a delivery mechanism."""

    n_replicas: int
    #: True when replica workers run in their own OS processes — the
    #: profiler then starts a per-process sampler in each worker via the
    #: in-band query lane instead of relying on one in-process sampler
    #: seeing every thread.
    per_process_workers: bool

    def start(self, sink: Sink) -> None:
        """Launch the replica workers; deliver their emissions to *sink*."""
        ...

    def send(self, replica_id: int, item: tuple) -> None:
        """Enqueue one item on a single replica's FIFO (in-band)."""
        ...

    def broadcast(self, item: tuple, alive: Sequence[bool]) -> Any:
        """Enqueue *item* on every live replica's FIFO.

        Called with the sequencer lock held: the order of broadcast calls
        IS the total order, and the transport must preserve it per FIFO.
        May return transport-specific delivery info (e.g. the marshalled
        size in bytes) — the replica group attaches it to the batch's
        ``broadcast`` span when tracing is enabled, and ignores it
        otherwise.
        """
        ...

    def stop_replica(self, replica_id: int) -> None:
        """Halt one replica mid-stream (crash injection)."""
        ...

    def restart_replica(self, replica_id: int) -> None:
        """Replace a stopped replica with a fresh, empty worker."""
        ...

    def probe(self, replica_id: int) -> bool:
        """Liveness probe: is the worker's execution vehicle still alive?

        ``Process.is_alive()`` for process transports, thread aliveness
        for in-memory ones.  This is the *non-cooperative* half of failure
        detection — a SIGKILLed process fails the probe even though it can
        no longer say anything on the feedback lane.
        """
        ...

    def depth(self, replica_id: int) -> int:
        """Best-effort count of items queued on one replica's FIFO.

        A backpressure gauge, sampled only when a metrics snapshot is
        taken — never on the hot path.  Queue sizes are approximate by
        nature (``qsize`` races with the consumer); 0 for transports
        that cannot say.
        """
        ...

    def shutdown(self, alive: Sequence[bool]) -> None:
        """Stop all workers and reap transport resources."""
        ...


class InMemoryTransport:
    """Per-replica FIFO + daemon applier thread, all in one process.

    Every replica slot carries an *incarnation* number, bumped on each
    stop: a worker thread's emissions are fenced by the incarnation it was
    started under, so anything a stopped (or stopping) thread still says
    can never be attributed to a reincarnated replica in the same slot.
    """

    per_process_workers = False

    def __init__(self, n_replicas: int):
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        self.n_replicas = n_replicas
        self._fifos: list[sync.Fifo] = [sync.Fifo() for _ in range(n_replicas)]
        #: Set by a stop or a kill; a stale incarnation's worker halts too.
        self._halted = [False] * n_replicas
        self._threads: list[threading.Thread | None] = [None] * n_replicas
        self._incarnations = [0] * n_replicas
        self._sink: Sink | None = None

    def start(self, sink: Sink) -> None:
        self._sink = sink
        for i in range(self.n_replicas):
            self._spawn_worker(i)

    def _spawn_worker(self, replica_id: int) -> None:
        incarnation = self._incarnations[replica_id]
        self._threads[replica_id] = sync.spawn(
            replica_loop,
            replica_id,
            self._fifos[replica_id].get,
            lambda item, i=replica_id, inc=incarnation: self._deliver(i, inc, item),
            lambda i=replica_id, n=incarnation: self._halted[i] or self._incarnations[i] != n,
            name=f"replica-{replica_id}.{incarnation}",
        )

    def _deliver(self, replica_id: int, incarnation: int, item: tuple) -> None:
        if self._incarnations[replica_id] != incarnation:
            return  # a stale worker: the slot has been reincarnated since
        sink = self._sink
        if sink is not None:
            sink(replica_id, item)

    def send(self, replica_id: int, item: tuple) -> None:
        self._fifos[replica_id].put(item)

    def broadcast(self, item: tuple, alive: Sequence[bool]) -> None:
        for i, fifo in enumerate(self._fifos):
            if alive[i]:
                fifo.put(item)

    def stop_replica(self, replica_id: int) -> None:
        # fence first, so nothing the dying worker still emits gets
        # through; the halt flag drops anything still queued (mid-stream
        # crash); the STOP sentinel wakes a worker blocked on an empty FIFO
        self._incarnations[replica_id] += 1
        self._halted[replica_id] = True
        self._fifos[replica_id].put(("STOP",))

    def restart_replica(self, replica_id: int) -> None:
        # a fresh FIFO (the dead incarnation's may hold undelivered batches
        # that must not reach the blank restarted state machine) and a
        # cleared flag: the stale incarnation still halts its old worker
        self._fifos[replica_id] = sync.Fifo()
        self._halted[replica_id] = False
        self._spawn_worker(replica_id)

    def probe(self, replica_id: int) -> bool:
        t = self._threads[replica_id]
        return (
            t is not None
            and t.is_alive()
            and not self._halted[replica_id]
        )

    def depth(self, replica_id: int) -> int:
        return self._fifos[replica_id].qsize()

    def shutdown(self, alive: Sequence[bool]) -> None:
        for i in range(self.n_replicas):
            self.stop_replica(i)


def _frame(blob: bytes) -> bytes:
    """Length-prefix *blob* exactly as ``Connection.send_bytes`` would.

    The parent writes command frames with ``os.write`` on a non-blocking
    descriptor, which ``Connection`` cannot do; matching its framing lets
    the child side stay a plain ``recv_bytes``.
    """
    n = len(blob)
    if n > 0x7FFFFFFF:
        return struct.pack("!iQ", -1, n) + blob
    return struct.pack("!i", n) + blob


class _Lane:
    """The parent's write end of one replica's command pipe.

    ``lock`` serialises everyone who writes to the replica — the
    sequencer, clients on the read lane, the liveness monitor, the
    drain thread — so frames never interleave; ``backlog`` holds, in
    order, whatever the pipe has refused so far.
    """

    __slots__ = ("backlog", "closed", "conn", "fd", "lock")

    def __init__(self, conn: Any):
        os.set_blocking(conn.fileno(), False)
        self.conn = conn
        self.fd = conn.fileno()
        self.lock = sync.Lock()
        self.backlog: deque[memoryview] = deque()
        self.closed = False


class PipeTransport:
    """One spawned OS process per replica, joined to it by two framed pipes.

    ``spawn`` is the start method, and the spawn-safe
    :func:`~repro.replication.worker.run_replica_process` the entry point
    written for it: the parent is multi-threaded (clients, collectors),
    and forking a multi-threaded process can capture another thread's
    held lock in the child — a deadlock observed under full-suite load
    before switching.

    Each replica has a command pipe (parent writes, child reads) and a
    reply pipe (child writes, parent's collector thread reads), both
    carrying length-prefixed pickles.  Nothing sits between a caller and
    the pipe: ``send``/``broadcast`` write the frame from the calling
    thread.  They are called under the sequencer lock — which declaring
    a replica dead also needs — so they must never block on a replica
    that has stopped reading: the parent's write ends are non-blocking,
    and what a full pipe refuses goes to the lane's backlog, which one
    drain thread empties as ``poll`` reports the pipe writable again.
    A frame is written inline only while the backlog is empty, so
    per-replica order is kept across the transition both ways.

    One reply pipe PER replica: a replica SIGKILLed mid-write leaves a
    torn frame, and on a shared pipe that would silently strand every
    other replica's completions.

    Replica slots are fenced by *incarnation*: ``stop_replica`` bumps the
    slot's incarnation and ``_deliver`` checks it, so a reply from the
    dead child that its collector is still holding can never be
    attributed to the reincarnated replica that reuses the slot.
    """

    per_process_workers = True

    def __init__(self, n_replicas: int):
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        self.n_replicas = n_replicas
        self._ctx = mp.get_context("spawn")
        self.processes: list[Any] = []
        self._lanes: list[_Lane] = []
        self._collectors: list[threading.Thread] = []
        self._incarnations = [0] * n_replicas
        self._running = False
        self._sink: Sink | None = None
        #: Skeleton key -> id, for every skeleton whose definition the
        #: replica processes hold.  Only ``broadcast`` and
        #: ``restart_replica`` touch it, and the group calls both under
        #: its sequencer lock.
        self._announced: dict[Any, int] = {}

    def start(self, sink: Sink) -> None:
        self._sink = sink
        self._running = True
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        for i in range(self.n_replicas):
            proc, lane = self._spawn(i)
            self.processes.append(proc)
            self._lanes.append(lane)
        self._drainer = sync.spawn(self._drain_loop, name="mp-pipe-drain")

    def _spawn(self, replica_id: int) -> tuple[Any, _Lane]:
        """Start one replica process on fresh pipes, with its collector."""
        cmd_r, cmd_w = self._ctx.Pipe(duplex=False)
        reply_r, reply_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=run_replica_process,
            args=(replica_id, cmd_r, reply_w),
            daemon=True,
        )
        try:
            proc.start()
        finally:
            # the child has its own copies now; while ours stay open its
            # death cannot close the reply pipe and the collector would
            # never see EOF
            cmd_r.close()
            reply_w.close()
        incarnation = self._incarnations[replica_id]
        self._collectors.append(sync.spawn(
            self._collect, replica_id, reply_r, incarnation,
            name=f"mp-collector-{replica_id}.{incarnation}",
        ))
        return proc, _Lane(cmd_w)

    def _collect(self, replica_id: int, conn: Any, incarnation: int) -> None:
        # conn and incarnation are bound at thread start: a restarted slot
        # gets a new pipe and a new collector, and this one ends when the
        # child it was started for closes (or dies holding) its end
        with conn:
            while True:
                try:
                    buf = conn.recv_bytes()
                except (EOFError, OSError):
                    return
                try:
                    item = pickle.loads(buf)
                except Exception:  # noqa: BLE001 - torn frame, SIGKILLed writer
                    continue
                self._deliver(replica_id, incarnation, item)

    def _deliver(self, replica_id: int, incarnation: int, item: tuple) -> None:
        """Forward *item* to the sink unless its incarnation is stale.

        The fence: even a reply already read off the dead child's pipe is
        dropped here once ``stop_replica`` has bumped the slot, so it
        cannot be attributed to the reincarnated replica.
        """
        if self._incarnations[replica_id] != incarnation:
            return
        sink = self._sink
        if sink is not None:
            sink(replica_id, item)

    # ------------------------------------------------------------------ #
    # the command lane: inline write, backlog, drain thread
    # ------------------------------------------------------------------ #

    def _write(self, lane: _Lane, frame: bytes) -> None:
        """Queue *frame* on *lane* without ever blocking the caller."""
        with lane.lock:
            if lane.closed:
                return
            lane.backlog.append(memoryview(frame))
            # behind already: the drain thread has the lane.  Otherwise
            # write inline, and hand over only what the pipe refused —
            # waking under the lane lock, so never after shutdown (which
            # closes every lane first) has closed the wake pipe.
            if len(lane.backlog) == 1 and not self._flush(lane):
                self._wake()

    @staticmethod
    def _flush(lane: _Lane) -> bool:
        """Write the backlog out; False if the pipe filled first.

        Caller holds ``lane.lock``.
        """
        backlog = lane.backlog
        while backlog:
            head = backlog[0]
            try:
                n = os.write(lane.fd, head)
            except BlockingIOError:
                return False
            except OSError:
                backlog.clear()  # EPIPE: the child is gone, nobody will read
                return True
            if n == len(head):
                backlog.popleft()
            else:
                backlog[0] = head[n:]
        return True

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # already full of wake-ups

    def _drain_loop(self) -> None:
        """Empty backlogs as their pipes become writable (one thread)."""
        while True:
            behind = [ln for ln in self._lanes if ln.backlog and not ln.closed]
            # poll, not select: descriptor numbers are not bounded by
            # FD_SETSIZE, and a lane closed under us reads as ready
            # (POLLNVAL) instead of raising, and is skipped below
            poller = select.poll()
            poller.register(self._wake_r, select.POLLIN)
            for lane in behind:
                poller.register(lane.fd, select.POLLOUT)
            ready = {fd for fd, _event in poller.poll()}
            if self._wake_r in ready:
                try:
                    os.read(self._wake_r, 4096)
                except BlockingIOError:
                    pass
                if not self._running:
                    return
            for lane in behind:
                if lane.fd in ready:
                    with lane.lock:
                        if not lane.closed:
                            self._flush(lane)

    def _close_lane(self, lane: _Lane) -> None:
        with lane.lock:
            if lane.closed:
                return
            lane.closed = True
            lane.conn.close()
            if lane.backlog:
                lane.backlog.clear()
                self._wake()  # the drain thread is polling this fd

    def send(self, replica_id: int, item: tuple) -> None:
        blob = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
        self._write(self._lanes[replica_id], _frame(blob))

    def broadcast(self, item: tuple, alive: Sequence[bool]) -> int:
        # marshal and frame once; every live replica gets the same bytes
        # in one write from this (the sequencer's) thread
        if item[0] == "BATCH":
            item = compact_batch(item, self._announced)
        blob = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _frame(blob)
        for i, lane in enumerate(self._lanes):
            if alive[i]:
                self._write(lane, frame)
        return len(blob)

    def stop_replica(self, replica_id: int) -> None:
        # fence first: once the incarnation is bumped, anything the old
        # collector still reads is dropped at _deliver
        self._incarnations[replica_id] += 1
        self._close_lane(self._lanes[replica_id])
        proc = self.processes[replica_id]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=10)

    def restart_replica(self, replica_id: int) -> None:
        # fresh pipes: the old ones may hold a torn frame or commands that
        # must not reach the blank restarted state machine
        self._collectors = [t for t in self._collectors if t.is_alive()]
        # the new process knows no skeleton: define each again on next
        # use (for the survivors too, which only overwrite what they had)
        self._announced.clear()
        self.processes[replica_id], self._lanes[replica_id] = self._spawn(
            replica_id
        )

    def probe(self, replica_id: int) -> bool:
        if not self.processes:
            return True  # not started yet: nothing to suspect
        return bool(self.processes[replica_id].is_alive())

    def depth(self, replica_id: int) -> int:
        """Frames waiting in the backlog (0 while the pipe keeps up)."""
        return len(self._lanes[replica_id].backlog)

    def shutdown(self, alive: Sequence[bool]) -> None:
        if not self._running:
            return
        for i in range(self.n_replicas):
            if alive[i]:
                self.send(i, ("STOP",))
        for p in self.processes:
            p.join(timeout=5)
            if p.is_alive():
                p.kill()
        for lane in self._lanes:
            self._close_lane(lane)
        self._running = False
        self._wake()
        self._drainer.join(timeout=5)
        os.close(self._wake_r)
        os.close(self._wake_w)
        for t in self._collectors:
            t.join(timeout=5)

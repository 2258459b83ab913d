"""The replica apply loop — one implementation for every transport.

A replica worker owns a private :class:`~repro.core.statemachine.
TSStateMachine` and consumes *items* from its transport in FIFO (= total)
order.  The item protocol is deliberately tiny and value-typed so it can
cross a pickling boundary unchanged:

received                              meaning
------------------------------------  ------------------------------------
``("BATCH", [cmd, ...], t_send)``     apply each command, in order;
                                      ``t_send`` is the sequencer's
                                      broadcast stamp on the batches
                                      sampled for stage attribution (the
                                      replica answers those with a STAGES
                                      emission, below) and ``None`` on the
                                      rest; a process transport pickles
                                      the item once for all replicas and
                                      each decodes its frame once, before
                                      this loop
``("READS", [(floor, cmd), ...])``    read fast path: evaluate each
                                      read-only ExecuteAGS on local state
                                      once ``applied >= floor`` (parked
                                      until then), mutating nothing; the
                                      group's read lane sends one read
                                      per item, from the reader's thread
``("QUERY", qid, what, arg)``         one in-band request of kind *what*
                                      (the table below), handled after
                                      everything sequenced before it; a
                                      kind that answers emits one
                                      ``("QUERY", qid, replica, answer)``
``("STOP",)`` / ``None``              exit the loop

request kind (*arg*)                  answer
------------------------------------  ------------------------------------
``fingerprint``, ``applied``,         that piece of this replica's state
``blocked``, ``introspect``,          (``space_tuples``: fields, oldest
``space_size`` (handle),              first).  ``applied`` is also the
``space_tuples`` (handle)             liveness monitor's heartbeat, sent
                                      under the never-registered qid 0: a
                                      wedged or dead apply loop stops
                                      answering
``snapshot``                          ``(snapshot, applied)`` — the journal
                                      compactor's covered-slot image
``profile_start`` (hz),               drive this process's sampling
``profile_stop``                      profiler: the answers (and the
                                      folded stacks) ride the same
                                      incarnation-fenced feedback lane as
                                      completions, so a replica killed
                                      mid-sampling cannot pollute the
                                      merged profile
``xfer_begin`` (chunk_bytes)          chunked state transfer, donor side:
                                      pickle ``(snapshot, applied)`` once,
                                      cache it split into *chunk_bytes*
                                      pieces keyed by this qid (the
                                      transfer id), answer the descriptor
                                      ``("xfer", xid, n_chunks, n_bytes,
                                      applied)``
``xfer_chunk`` ((xid, idx))           one cached chunk (or None if the
                                      transfer id is unknown — the group
                                      treats that as a lost donor)
``xfer_end`` (xid)                    *nothing*: drop the cached transfer
``install_chunk`` ((xid, idx,         *nothing*: chunked install, receiver
  chunk))                             side — the one way state enters a
                                      replica, from a donor or from the
                                      journal: buffer chunk *idx*
``install_done`` ((xid, n))           reassemble the *n* buffered chunks,
                                      install the decoded snapshot, answer
                                      ``"installed"`` (or ``("incomplete",
                                      missing)`` if any chunk never
                                      arrived)
``sleep`` (seconds)                   *nothing*: chaos injection — stall
                                      this replica's delivery lane
anything else                         ``None``

emitted
------------------------------------  ------------------------------------
``("COMPS", [(request_id, result),    completions (every replica reports;
  ...], applied)``                    the group deduplicates) — one item
                                      per BATCH applied or per READS batch
                                      that fired, so the reply lane is as
                                      batched as the command lane: one
                                      frame, encoded once by the replica's
                                      transport end, decoded once by the
                                      parent's.  ``applied`` is this
                                      replica's applied count when the
                                      answers were produced — after the
                                      BATCH, or at the instant the READS
                                      were served — i.e. the newest slot
                                      whose effects they can reveal; a
                                      durable group delivers them only
                                      once its journal is fsynced that far
``("READMISS", request_id)``          a read whose blocking guard cannot
                                      fire on local state; the group
                                      reroutes it through the total order
``("QUERY", qid, replica_id, ans)``   the answer to one request
``("SPANS", [(trace_id, request_id,   apply-span records for the traced
  slot, ts, dur), ...])``             commands of one batch — emitted only
                                      when commands carry trace ids, i.e.
                                      when a flight recorder is attached;
                                      ``slot`` is the replica's applied
                                      count, its coordinate in the total
                                      order (the consistency checker's
                                      input)
``("STAGES", queue_s, apply_s,        stage-attribution answer for one
  t_emit)``                           sampled batch: time it sat in this
                                      replica's inbox, mean apply time per
                                      command, and the emit stamp (the
                                      group turns ``now - t_emit`` into
                                      the wake/reply stage)

The data-plane frames (BATCH, READS, COMPS, READMISS, SPANS, STAGES) are
bare tuples on a measurement — a typed frame costs ≈ 1.4 µs more to
pickle and ≈ 1.2 µs more to load, ten times a statement on the pipe
(DESIGN.md, "Execution backends").

In-band queries are the replacement for any separate quiescing protocol:
because they travel on the same FIFO as commands, the answer reflects
exactly the state after every previously sequenced command.

A broadcast BATCH has a compact form, on the pipe and in a durable
journal's records, that this loop never sees (:func:`compact_batch`
writes it, :func:`expand_batch` reads it — in the pipe's child and in
the journal's replay — and both are in this file so the format has one
home):

``("PLANNED", [(plan id, ags), ...],  a BATCH in which every statement —
  [entry, ...], t_send)``             every ExecuteAGS, a bare operation's
                                      plan or built by hand — is the entry
                                      ``(request id, origin, process id,
                                      trace id, plan id, actuals)`` and
                                      every other command is itself, by
                                      value.  The plan is the statement's
                                      *skeleton*: the statement with a
                                      ``Param`` hole where each constant
                                      stood, numbered after its own holes
                                      (:meth:`AGS.skeleton`; a plan is its
                                      own); the constants ride behind the
                                      statement's actuals.  The first field
                                      defines the plan ids the receivers
                                      have not been sent yet: a definition
                                      rides once, in the first frame that
                                      uses it — and once more after any
                                      replica restarts, when the sender
                                      forgets what it announced and numbers
                                      plans afresh (a journal keeps a
                                      table of its own).  ``send`` (READS,
                                      queries, installs), state transfer
                                      and replica snapshots carry commands
                                      by value, and need no plan table
``("QUERY", qid, "plans", _)``        answered by the expanding end, in
                                      lane order: how many plan ids this
                                      process knows
"""

from __future__ import annotations

import itertools
import pickle
from typing import Any, Callable

from repro import sync
from repro._errors import CommandFailed
from repro.core.ags import AGS, Branch, Const, Expr, Guard, Op, Param
from repro.core.statemachine import Completion, ExecuteAGS, TSStateMachine
from repro.obs.profile import (
    process_profile_start,
    process_profile_stop,
    register_thread,
)

__all__ = [
    "Replica", "compact_batch", "expand_batch", "replica_loop", "run_replica_process",
    "split_state",
]


def split_state(snapshot: Any, applied: int, chunk_bytes: int) -> list[bytes]:
    """Pickle ``(snapshot, applied)`` once, split into *chunk_bytes* pieces.

    What ``install_chunk``/``install_done`` reassemble: a donor answers
    ``xfer_begin`` with it, and the group ships a journal snapshot with it.
    """
    blob = pickle.dumps((snapshot, applied), protocol=pickle.HIGHEST_PROTOCOL)
    n = max(1, int(chunk_bytes))
    return [blob[i : i + n] for i in range(0, len(blob), n)] or [b""]


def _apply_hardened(sm: TSStateMachine, cmd: Any) -> list[Completion]:
    """Apply *cmd*, converting a raising apply into a failed completion.

    State-machine applies are deterministic, so an exception raised here
    raises identically on every replica — each one independently produces
    the same ``CommandFailed`` completion and the group's dedup collapses
    them, exactly like a successful command.  The poison command consumes
    its slot without forking or wedging the group.
    """
    try:
        return sm.apply(cmd)
    except Exception as exc:  # noqa: BLE001 - deliberate poison barrier
        failure = CommandFailed(
            f"command #{cmd.request_id} failed to apply: "
            f"{type(exc).__name__}: {exc}"
        )
        return [
            Completion(
                cmd.request_id,
                cmd.origin_host,
                getattr(cmd, "process_id", None),
                failure,
            )
        ]


#: What a one-way request kind returns: nothing is emitted for it.
_NO_ANSWER = object()


class Replica:
    """One replica: a state machine, its applied count, and what each
    received item does to them.  :func:`replica_loop` feeds it."""

    def __init__(
        self,
        replica_id: int,
        emit: Callable[[tuple], None],
        halted: Callable[[], bool] | None = None,
    ):
        self.replica_id = replica_id
        self.emit = emit
        self.halted = halted if halted is not None else (lambda: False)
        self.sm = TSStateMachine()
        self.applied = 0
        # Reads parked on a session floor: [(floor, ExecuteAGS)].  Served the
        # moment `applied` catches up — so a client always observes at least
        # everything sequenced before it submitted (read-your-writes), while
        # the read itself never enters the total order.
        self._pending_reads: list[tuple[int, Any]] = []
        # Chunked state transfer: as donor, pickled snapshots split and cached
        # per transfer id; as receiver, chunks buffered until install_done.
        self._xfer_out: dict[int, list[bytes]] = {}
        self._xfer_in: dict[int, dict[int, bytes]] = {}

    def handle(self, item: tuple) -> bool:
        """Do what *item* asks; False when the loop should end (STOP, or
        halted mid-batch)."""
        kind = item[0]
        if kind == "BATCH":
            return self._batch(item)
        if kind == "READS":
            applied = self.applied
            self._pending_reads.extend(r for r in item[1] if r[0] > applied)
            self._serve_reads([r for r in item[1] if r[0] <= applied])
        elif kind == "QUERY":
            _k, qid, what, arg = item
            kind_fn = _REQUEST_KINDS.get(what)
            answer = None if kind_fn is None else kind_fn(self, qid, arg)
            if answer is not _NO_ANSWER:
                self.emit(("QUERY", qid, self.replica_id, answer))
        elif kind == "STOP":
            return False
        return True

    # -- the data plane --------------------------------------------------- #

    def _batch(self, item: tuple) -> bool:
        sm, emit, stopped = self.sm, self.emit, self.halted
        applied = self.applied
        # A broadcast stamp means this batch was sampled for stage
        # attribution and owes a STAGES answer.  The stamp is
        # CLOCK_MONOTONIC — system-wide on Linux, so it subtracts
        # cleanly even across the process boundary.
        t_send = item[2]
        t_dequeue = sync.now() if t_send is not None else 0.0
        spans: list[tuple] | None = None
        # Completions for the whole batch travel as one COMPS item:
        # with process transports every emitted item is a pickled
        # frame and a pipe write, so per-command replies would make the
        # reply lane as chatty as an unbatched command lane.
        comps: list[tuple[int, Any]] = []
        for cmd in item[1]:
            if stopped():
                self.applied = applied
                return False
            trace_id = cmd.trace_id
            if trace_id is None:
                completions = _apply_hardened(sm, cmd)
                applied += 1
            else:
                # traced: time the apply and record this replica's
                # (slot, request_id) coordinate in the total order
                t0 = sync.now()
                completions = _apply_hardened(sm, cmd)
                applied += 1
                if spans is None:
                    spans = []
                spans.append(
                    (trace_id, cmd.request_id, applied,
                     t0, sync.now() - t0)
                )
            comps.extend((c.request_id, c.result) for c in completions)
        self.applied = applied
        if comps:
            emit(("COMPS", comps, applied))
        if spans is not None:
            emit(("SPANS", spans))
        if t_send is not None:
            now = sync.now()
            emit(
                ("STAGES",
                 t_dequeue - t_send,
                 (now - t_dequeue) / max(1, len(item[1])),
                 now)
            )
        self._drain_reads()
        return True

    def _serve_reads(self, reads: list[tuple[int, Any]]) -> None:
        comps: list[tuple[int, Any]] = []
        for _floor, cmd in reads:
            result = self.sm.try_read(cmd.ags, cmd.process_id, cmd.actuals)
            if result is None:
                self.emit(("READMISS", cmd.request_id))
            else:
                comps.append((cmd.request_id, result))
        if comps:
            self.emit(("COMPS", comps, self.applied))

    def _drain_reads(self) -> None:
        pending, applied = self._pending_reads, self.applied
        ready = [r for r in pending if r[0] <= applied]
        if ready:
            pending[:] = [r for r in pending if r[0] > applied]
            self._serve_reads(ready)

    # -- request kinds: (self, qid, arg) -> answer ------------------------ #

    def _xfer_begin(self, qid: int, chunk_bytes: int) -> tuple:
        chunks = self._xfer_out[qid] = split_state(
            self.sm.snapshot(), self.applied, chunk_bytes
        )
        return ("xfer", qid, len(chunks), sum(map(len, chunks)), self.applied)

    def _xfer_chunk(self, _qid: int, arg: tuple[int, int]) -> bytes | None:
        xid, idx = arg
        chunks = self._xfer_out.get(xid)
        if chunks is not None and 0 <= idx < len(chunks):
            return chunks[idx]
        return None

    def _xfer_end(self, _qid: int, xid: int) -> Any:
        self._xfer_out.pop(xid, None)
        return _NO_ANSWER

    def _install_chunk(self, _qid: int, arg: tuple[int, int, bytes]) -> Any:
        xid, idx, chunk = arg
        self._xfer_in.setdefault(xid, {})[idx] = chunk
        return _NO_ANSWER

    def _install_done(self, _qid: int, arg: tuple[int, int]) -> Any:
        xid, total = arg
        got = self._xfer_in.pop(xid, {})
        missing = [i for i in range(total) if i not in got]
        if missing:
            # chunks lost (e.g. this replica restarted mid-install):
            # refuse rather than install a torn snapshot
            return ("incomplete", missing)
        snapshot, self.applied = pickle.loads(
            b"".join(got[i] for i in range(total))
        )
        self.sm = TSStateMachine.from_snapshot(snapshot)
        self._drain_reads()
        return "installed"

    def _sleep(self, _qid: int, seconds: float) -> Any:
        sync.sleep(seconds)
        return _NO_ANSWER


_REQUEST_KINDS: dict[str, Callable[[Replica, int, Any], Any]] = {
    "fingerprint": lambda r, _q, _a: r.sm.fingerprint(),
    "space_size": lambda r, _q, handle: len(r.sm.registry.store(handle)),
    "space_tuples": lambda r, _q, handle: [
        t.fields for t in r.sm.registry.store(handle).to_list()
    ],
    "applied": lambda r, _q, _a: r.applied,
    "blocked": lambda r, _q, _a: len(r.sm.blocked),
    "introspect": lambda r, _q, _a: r.sm.introspection(),
    "snapshot": lambda r, _q, _a: (r.sm.snapshot(), r.applied),
    "profile_start": lambda _r, _q, hz: process_profile_start(hz),
    "profile_stop": lambda _r, _q, _a: process_profile_stop(),
    "xfer_begin": Replica._xfer_begin,
    "xfer_chunk": Replica._xfer_chunk,
    "xfer_end": Replica._xfer_end,
    "install_chunk": Replica._install_chunk,
    "install_done": Replica._install_done,
    "sleep": Replica._sleep,
}


def replica_loop(
    replica_id: int,
    recv: Callable[[], Any],
    emit: Callable[[tuple], None],
    halted: Callable[[], bool] | None = None,
) -> None:
    """Apply items from *recv* until STOP; report through *emit*.

    *halted* supports mid-stream crash injection: once it returns True the
    loop exits before applying anything further, dropping the rest of its
    FIFO on the floor — the fail-stop behaviour the threaded backend's
    crash tests rely on.
    """
    register_thread(f"replica-{replica_id}")
    replica = Replica(replica_id, emit, halted)
    while not replica.halted():
        item = recv()
        if item is None or not replica.handle(item):
            return


def _with_holes(ags: AGS, base: int) -> AGS:
    """*ags* with ``Param(base + k)`` where its k-th constant stood.

    Numbered in the order :meth:`AGS.skeleton` lists the constants, and
    built through the ordinary constructors: a skeleton is a statement,
    validated like any other, once per key.
    """
    holes = itertools.count(base)

    def hole(f: Any) -> Any:
        if type(f) is Const:
            return Param(next(holes))
        if type(f) is Expr:
            return Expr(f.fn, [hole(a) for a in f.args])
        return f

    def op_with_holes(op: Op) -> Op:
        n_spaces = 1 if op.ts2 is None else 2
        filled = [hole(f) for f in op.operands()]
        return Op(op.code, filled[0], filled[n_spaces:], *filled[1:n_spaces])

    return AGS(
        [
            Branch(
                Guard(
                    b.guard.kind,
                    None if b.guard.op is None else op_with_holes(b.guard.op),
                ),
                [op_with_holes(op) for op in b.body],
            )
            for b in ags.branches
        ]
    )


def compact_batch(item: tuple, announced: dict[Any, int]) -> tuple:
    """The PLANNED form of a BATCH *item* (see the module docstring).

    *announced* maps the key of every skeleton whose definition the
    receivers (or a journal's readers) hold to its id; a key not in it is
    numbered, recorded and its skeleton defined in this frame.  Emptying
    the table is always safe — ids are then handed out afresh and every
    receiver, applying frames in order, redefines them before their
    first use.  A batch with no statement in it is returned as it is.
    """
    defs: list[tuple[int, AGS]] = []
    entries: list[Any] | None = None
    for i, cmd in enumerate(item[1]):
        if type(cmd) is ExecuteAGS:
            ags, actuals = cmd.ags, cmd.actuals
            key, constants, base = ags.skeleton()
            if constants and len(actuals) != base:
                # the constants cannot go on the end of actuals that do not
                # fill exactly the statement's own holes (a program error,
                # which must abort as written): it is its own skeleton
                key, constants = ags, ()
            plan = announced.get(key)
            if plan is None:
                plan = announced[key] = len(announced)
                defs.append((plan, ags if key is ags else _with_holes(ags, base)))
            if entries is None:
                entries = list(item[1])
            entries[i] = (
                cmd.request_id, cmd.origin_host, cmd.process_id, cmd.trace_id,
                plan, actuals + constants,
            )
    if entries is None:
        return item
    return ("PLANNED", defs, entries, item[2])


def expand_batch(item: tuple, plans: dict[int, AGS]) -> tuple:
    """The BATCH a PLANNED *item* stands for: :func:`compact_batch` undone.

    *plans* maps plan ids to skeletons and learns the frame's definitions
    first, so one table fed every frame in order resolves every id.
    """
    _kind, defs, entries, t_send = item
    plans.update(defs)
    cmds = [
        ExecuteAGS(e[0], e[1], e[2], plans[e[4]], e[5], e[3]) if type(e) is tuple else e
        for e in entries
    ]
    return ("BATCH", cmds, t_send)


def run_replica_process(replica_id: int, cmd_conn: Any, reply_conn: Any) -> None:
    """Process entry point for the pipe transport (spawn-safe).

    *cmd_conn* is the read end of this replica's command pipe, *reply_conn*
    the write end of its reply pipe; both carry one pickled item per
    ``send_bytes`` frame.  EOF on the command pipe (the parent closed the
    lane, or died) ends the loop like a STOP.  A PLANNED frame is expanded
    back into the BATCH it stands for here, so the loop sees only items.
    """
    plans: dict[int, AGS] = {}

    def recv() -> Any:
        while True:
            try:
                buf = cmd_conn.recv_bytes()
            except (EOFError, OSError):
                return None
            item = pickle.loads(buf)
            kind = item[0]
            if kind == "PLANNED":
                return expand_batch(item, plans)
            if kind == "QUERY" and item[2] == "plans":
                emit(("QUERY", item[1], replica_id, len(plans)))
                continue
            return item

    def emit(item: tuple) -> None:
        reply_conn.send_bytes(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))

    replica_loop(replica_id, recv, emit)

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
``("QUERY", qid, what, arg)``         in-band state query; answered after
                                      everything sequenced before it.
                                      ``snapshot`` answers ``(snapshot,
                                      applied)`` — the journal compactor's
                                      covered-slot image.
                                      ``profile_start``/``profile_stop``
                                      drive this process's sampling
                                      profiler: the answers (and the
                                      folded stacks) ride the same
                                      incarnation-fenced feedback lane as
                                      completions, so a replica killed
                                      mid-sampling cannot pollute the
                                      merged profile
``("READS", [(floor, cmd), ...])``    read fast path: evaluate each
                                      read-only ExecuteAGS on local state
                                      once ``applied >= floor`` (parked
                                      until then), mutating nothing; the
                                      group's read flusher batches many
                                      reads into one item, mirroring the
                                      write lane's batch amortization
``("XFER_BEGIN", qid, chunk_bytes)``  chunked state transfer, donor side:
                                      pickle ``(snapshot, applied)`` once,
                                      cache it split into *chunk_bytes*
                                      pieces keyed by this qid (the
                                      transfer id), answer the descriptor
                                      ``("xfer", xid, n_chunks, n_bytes,
                                      applied)``
``("XFER_CHUNK", qid, xid, idx)``     answer one cached chunk (or None if
                                      the transfer id is unknown — the
                                      group treats that as a lost donor)
``("XFER_END", xid)``                 drop the cached transfer
``("INSTALL_CHUNK", xid, idx, n,      chunked install, receiver side —
  chunk)``                            the one way state enters a replica,
                                      from a donor or from the journal:
                                      buffer chunk *idx* of *n*
``("INSTALL_DONE", qid, xid, n)``     reassemble the buffered chunks,
                                      install the decoded snapshot,
                                      answer ``"installed"`` (or
                                      ``("incomplete", missing)`` if any
                                      chunk never arrived)
``("PING",)``                         liveness probe; answer immediately
                                      with ``("PONG", applied)`` — an
                                      in-band heartbeat, so a wedged or
                                      dead apply loop stops answering
``("SLEEP", seconds)``                chaos injection: stall this replica's
                                      delivery lane for *seconds*
``("STOP",)`` / ``None``              exit the loop

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
``("PONG", applied)``                 heartbeat answer to a PING
``("QUERY", qid, replica_id, ans)``   a query/snapshot/install answer
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

In-band queries are the replacement for any separate quiescing protocol:
because they travel on the same FIFO as commands, the answer reflects
exactly the state after every previously sequenced command.

On the pipe only, a broadcast BATCH has a compact wire form that this
loop never sees (:func:`compact_batch` writes it in the parent,
:func:`run_replica_process` expands it in the child, and both are in this
file so the format has one home):

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
                                      plans afresh.  Everything else —
                                      ``send`` (READS, queries, installs),
                                      state transfer, snapshots, the
                                      journal — carries commands by value,
                                      so none of it needs a plan table
``("QUERY", qid, "plans", _)``        answered by the expanding end, in
                                      lane order: how many plan ids this
                                      process knows
"""

from __future__ import annotations

import itertools
import pickle
import time
from typing import Any, Callable

from repro._errors import CommandFailed
from repro.core.ags import AGS, Branch, Const, Expr, Guard, Op, Param
from repro.core.statemachine import Completion, ExecuteAGS, TSStateMachine
from repro.obs.profile import (
    process_profile_start,
    process_profile_stop,
    register_thread,
)

__all__ = ["compact_batch", "replica_loop", "run_replica_process", "split_state"]


def split_state(snapshot: Any, applied: int, chunk_bytes: int) -> list[bytes]:
    """Pickle ``(snapshot, applied)`` once, split into *chunk_bytes* pieces.

    What INSTALL_CHUNK/INSTALL_DONE reassemble: a donor answers
    XFER_BEGIN with it, and the group ships a journal snapshot with it.
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
    sm = TSStateMachine()
    applied = 0
    stopped = halted if halted is not None else (lambda: False)
    # Reads parked on a session floor: [(floor, ExecuteAGS)].  Served the
    # moment `applied` catches up — so a client always observes at least
    # everything sequenced before it submitted (read-your-writes), while
    # the read itself never enters the total order.
    pending_reads: list[tuple[int, Any]] = []
    # Chunked state transfer: as donor, pickled snapshots split and cached
    # per transfer id; as receiver, chunks buffered until INSTALL_DONE.
    xfer_out: dict[int, list[bytes]] = {}
    xfer_in: dict[int, dict[int, bytes]] = {}

    def serve_reads(reads: list[tuple[int, Any]]) -> None:
        comps: list[tuple[int, Any]] = []
        for _floor, cmd in reads:
            result = sm.try_read(cmd.ags, cmd.process_id, cmd.actuals)
            if result is None:
                emit(("READMISS", cmd.request_id))
            else:
                comps.append((cmd.request_id, result))
        if comps:
            emit(("COMPS", comps, applied))

    def drain_reads() -> None:
        ready = [r for r in pending_reads if r[0] <= applied]
        if ready:
            pending_reads[:] = [r for r in pending_reads if r[0] > applied]
            serve_reads(ready)

    while True:
        if stopped():
            return
        item = recv()
        if item is None:
            return
        kind = item[0]
        if kind == "STOP":
            return
        if kind == "BATCH":
            # A broadcast stamp means this batch was sampled for stage
            # attribution and owes a STAGES answer.  The stamp is
            # CLOCK_MONOTONIC — system-wide on Linux, so it subtracts
            # cleanly even across the process boundary.
            t_send = item[2]
            t_dequeue = time.monotonic() if t_send is not None else 0.0
            spans: list[tuple] | None = None
            # Completions for the whole batch travel as one COMPS item:
            # with process transports every emitted item is a pickled
            # frame and a pipe write, so per-command replies would make the
            # reply lane as chatty as an unbatched command lane.
            comps: list[tuple[int, Any]] = []
            for cmd in item[1]:
                if stopped():
                    return
                trace_id = cmd.trace_id
                if trace_id is None:
                    completions = _apply_hardened(sm, cmd)
                    applied += 1
                else:
                    # traced: time the apply and record this replica's
                    # (slot, request_id) coordinate in the total order
                    t0 = time.monotonic()
                    completions = _apply_hardened(sm, cmd)
                    applied += 1
                    if spans is None:
                        spans = []
                    spans.append(
                        (trace_id, cmd.request_id, applied,
                         t0, time.monotonic() - t0)
                    )
                comps.extend((c.request_id, c.result) for c in completions)
            if comps:
                emit(("COMPS", comps, applied))
            if spans is not None:
                emit(("SPANS", spans))
            if t_send is not None:
                now = time.monotonic()
                emit(
                    ("STAGES",
                     t_dequeue - t_send,
                     (now - t_dequeue) / max(1, len(item[1])),
                     now)
                )
            drain_reads()
        elif kind == "READS":
            ready = [r for r in item[1] if r[0] <= applied]
            pending_reads.extend(r for r in item[1] if r[0] > applied)
            serve_reads(ready)
        elif kind == "PING":
            emit(("PONG", applied))
        elif kind == "SLEEP":
            time.sleep(item[1])
        elif kind == "QUERY":
            _k, qid, what, arg = item
            if what == "fingerprint":
                answer: Any = sm.fingerprint()
            elif what == "space_size":
                answer = len(sm.registry.store(arg))
            elif what == "space_tuples":
                answer = [t.fields for t in sm.registry.store(arg).to_list()]
            elif what == "applied":
                answer = applied
            elif what == "blocked":
                answer = len(sm.blocked)
            elif what == "introspect":
                answer = sm.introspection()
            elif what == "snapshot":
                answer = (sm.snapshot(), applied)
            elif what == "profile_start":
                answer = process_profile_start(arg)
            elif what == "profile_stop":
                answer = process_profile_stop()
            else:
                answer = None
            emit(("QUERY", qid, replica_id, answer))
        elif kind == "XFER_BEGIN":
            _k, qid, chunk_bytes = item
            chunks = xfer_out[qid] = split_state(sm.snapshot(), applied, chunk_bytes)
            emit(
                ("QUERY", qid, replica_id,
                 ("xfer", qid, len(chunks), sum(map(len, chunks)), applied))
            )
        elif kind == "XFER_CHUNK":
            _k, qid, xid, idx = item
            chunks = xfer_out.get(xid)
            answer = (
                chunks[idx]
                if chunks is not None and 0 <= idx < len(chunks)
                else None
            )
            emit(("QUERY", qid, replica_id, answer))
        elif kind == "XFER_END":
            xfer_out.pop(item[1], None)
        elif kind == "INSTALL_CHUNK":
            _k, xid, idx, _total, chunk = item
            xfer_in.setdefault(xid, {})[idx] = chunk
        elif kind == "INSTALL_DONE":
            _k, qid, xid, total = item
            got = xfer_in.pop(xid, {})
            missing = [i for i in range(total) if i not in got]
            if missing:
                # chunks lost (e.g. this replica restarted mid-install):
                # refuse rather than install a torn snapshot
                emit(("QUERY", qid, replica_id, ("incomplete", missing)))
            else:
                snapshot, count = pickle.loads(
                    b"".join(got[i] for i in range(total))
                )
                sm = TSStateMachine.from_snapshot(snapshot)
                applied = count
                emit(("QUERY", qid, replica_id, "installed"))
                drain_reads()


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
    """The pipe's wire form of a BATCH *item* (see the module docstring).

    *announced* maps the key of every skeleton whose definition the
    receivers hold to its id; a key not in it is numbered, recorded and
    its skeleton defined in this frame.  Emptying the table is always
    safe — ids are then handed out afresh and every receiver, applying
    frames in order, redefines them before their first use.  A batch
    with no statement in it is returned as it is.
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
                _kind, defs, entries, t_send = item
                plans.update(defs)
                return (
                    "BATCH",
                    [
                        ExecuteAGS(e[0], e[1], e[2], plans[e[4]], e[5], e[3])
                        if type(e) is tuple
                        else e
                        for e in entries
                    ],
                    t_send,
                )
            if kind == "QUERY" and item[2] == "plans":
                emit(("QUERY", item[1], replica_id, len(plans)))
                continue
            return item

    def emit(item: tuple) -> None:
        reply_conn.send_bytes(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))

    replica_loop(replica_id, recv, emit)

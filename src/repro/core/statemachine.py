"""The tuple-space state machine: deterministic execution of commands.

FT-Linda realizes stable tuple spaces with the **replicated state machine
approach** (Schneider [37]): every host runs an identical copy of the TS
state machine, commands are disseminated by atomic multicast, delivered in
the same total order everywhere, and executed deterministically — so the
replicas never diverge and no further coordination is needed (Sec. 5 of
the paper).  This module is that state machine, factored out of any
particular transport so the same code runs:

- under the discrete-event simulator (``repro.consul`` delivers commands),
- under the threads/multiprocessing backends,
- standalone, as the "single processor" configuration the paper's Table 1
  micro-benchmarks measure.

Determinism contract: :meth:`TSStateMachine.apply` is a pure function of
(current state, command).  Anything nondeterministic — client identity,
timestamps, random payloads — must already be *inside* the command.

Commands
--------
:class:`ExecuteAGS`     run an atomic guarded statement (the workhorse)
:class:`CreateSpace`    ``ts_create``
:class:`DestroySpace`   ``ts_destroy``
:class:`HostFailed`     membership notification; deposits the paper's
                        *failure tuple* and drops the dead host's blocked
                        statements
:class:`HostRecovered`  membership notification of a rejoin (bookkeeping)
:class:`CancelRequest`  withdraw a parked statement (ordered timeout)

Blocking is implemented replica-side: an :class:`ExecuteAGS` whose guards
all fail and are all blocking is parked on a FIFO of blocked statements.
After every state-mutating command the machine rescans that FIFO in order
until quiescence, so statements wake in a deterministic order at every
replica — the same trick lets ``inp``/``rdp`` give the *strong* semantics
the paper highlights (a probe's answer is exact at its point in the total
order).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Mapping, Sequence

from repro._errors import AGSError, SpaceError, TupleError
from repro.core import matching as _matching
from repro.core.ags import ACTUALS, AGS, AGSResult, GuardKind, Op, OpCode
from repro.core.matching import TupleStore
from repro.core.spaces import (
    MAIN_TS,
    Resilience,
    Scope,
    SpaceRegistry,
    TSHandle,
)
from repro.core.tuples import LindaTuple

__all__ = [
    "CancelRequest",
    "Command",
    "Completion",
    "CreateSpace",
    "DepositTuples",
    "DestroySpace",
    "ExecuteAGS",
    "ExtractTuples",
    "FAILURE_TAG",
    "HostFailed",
    "HostRecovered",
    "TSStateMachine",
]

#: First field of the distinguished failure tuple the runtime deposits when
#: a host crashes (Sec. 2.2: fail-silent failures are converted to
#: fail-stop "by providing failure notification in the form of a
#: distinguished failure tuple that gets deposited into TS").
FAILURE_TAG = "ft_failure"

#: First field of the recovery tuple deposited when a host rejoins.
RECOVERY_TAG = "ft_recovery"

#: How many completed request ids each replica remembers for duplicate
#: suppression (client retries after an unknown-outcome timeout).  Eviction
#: is deterministic (insertion order, i.e. completion order in the total
#: order), so every replica forgets the same ids at the same points.
DEDUP_CAP = 4096

#: Distinguishes "no memoized result" from a memoized result of any value.
_NO_MEMO = object()


class Command:
    """Base class of totally ordered state-machine commands.

    ``trace_id`` is observability metadata, not replicated state: it stays
    ``None`` unless a flight recorder is attached to the replica group, in
    which case the group stamps a fresh per-AGS id at submission.  It
    rides inside the command through batching and the pickled multiproc
    blob, so the replica apply loops can tag their ``apply`` spans with
    the same id the client's ``e2e`` span carries.
    """

    __slots__ = ("request_id", "origin_host", "trace_id")

    def __init__(self, request_id: int, origin_host: int):
        self.request_id = request_id
        self.origin_host = origin_host
        self.trace_id: int | None = None


class ExecuteAGS(Command):
    """Run *ags* on behalf of process *process_id* at *origin_host*.

    *ags* is a statement plan and *actuals* the values of its
    :class:`~repro.core.ags.Param` holes for this one execution; a
    statement built by hand has no holes and no actuals.
    """

    __slots__ = ("process_id", "ags", "actuals")

    def __init__(
        self,
        request_id: int,
        origin_host: int,
        process_id: int,
        ags: AGS,
        actuals: tuple = (),
        trace_id: int | None = None,
    ):
        super().__init__(request_id, origin_host)
        self.trace_id = trace_id
        self.process_id = process_id
        self.ags = ags
        self.actuals = actuals

    def __reduce__(self) -> tuple:
        # by position, not by slot name: a statement is most of what a
        # journal and a by-value frame hold
        return (
            ExecuteAGS,
            (
                self.request_id, self.origin_host, self.process_id,
                self.ags, self.actuals, self.trace_id,
            ),
        )

    def __setstate__(self, state: tuple) -> None:
        # a journal or snapshot written before statements carried actuals
        self.actuals = ()
        for name, value in state[1].items():
            setattr(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with_actuals = f" {self.actuals!r}" if self.actuals else ""
        return (
            f"ExecuteAGS(#{self.request_id} h{self.origin_host} "
            f"{self.ags!r}{with_actuals})"
        )


class CreateSpace(Command):
    """``ts_create(name, resilience, scope)``."""

    __slots__ = ("name", "resilience", "scope", "owner")

    def __init__(
        self,
        request_id: int,
        origin_host: int,
        name: str,
        resilience: Resilience,
        scope: Scope,
        owner: int | None,
    ):
        super().__init__(request_id, origin_host)
        self.name = name
        self.resilience = resilience
        self.scope = scope
        self.owner = owner


class DestroySpace(Command):
    """``ts_destroy(handle)``."""

    __slots__ = ("handle",)

    def __init__(self, request_id: int, origin_host: int, handle: TSHandle):
        super().__init__(request_id, origin_host)
        self.handle = handle


class HostFailed(Command):
    """Membership says *failed_host* crashed (fail-silent → fail-stop).

    *shard* is ``None`` in a single-group deployment (deposit the failure
    tuple into every failure space) or ``(index, n_shards)`` when this
    command is sequenced on shard *index* of a sharded deployment: each
    shard then deposits the notification only into the spaces whose
    ``(space, FAILURE_TAG)`` partition it owns, so a failure broadcast to
    every shard group yields exactly one failure tuple per space globally.
    """

    __slots__ = ("failed_host", "shard")

    def __init__(
        self,
        request_id: int,
        origin_host: int,
        failed_host: int,
        shard: tuple[int, int] | None = None,
    ):
        super().__init__(request_id, origin_host)
        self.failed_host = failed_host
        self.shard = shard


class HostRecovered(Command):
    """Membership says *recovered_host* rejoined the group.

    *shard* filters the recovery-tuple deposit exactly like
    :class:`HostFailed`.
    """

    __slots__ = ("recovered_host", "shard")

    def __init__(
        self,
        request_id: int,
        origin_host: int,
        recovered_host: int,
        shard: tuple[int, int] | None = None,
    ):
        super().__init__(request_id, origin_host)
        self.recovered_host = recovered_host
        self.shard = shard


class ExtractTuples(Command):
    """Cross-shard support: withdraw tuples by ``(space, first-field)``.

    *selectors* is a sequence of ``(handle, first)`` pairs: *first* is a
    concrete first-field value, :data:`~repro.core.matching.ANY_FIRST`
    (withdraw every tuple of the space) or ``None`` (withdraw nothing —
    an existence probe, used for spaces the cross-shard AGS only deposits
    into).  The result reports which selected spaces exist plus every
    withdrawn tuple with its original sequence number, so the coordinator
    can rebuild oldest-first matching priority deterministically.

    Only the sharded router issues this command, and only for partitions
    the target shard owns; like every command it is totally ordered within
    its shard, which is what serializes the cross-shard rung against that
    shard's single-shard traffic.
    """

    __slots__ = ("selectors",)

    def __init__(
        self,
        request_id: int,
        origin_host: int,
        selectors: Sequence[tuple[TSHandle, Any]],
    ):
        super().__init__(request_id, origin_host)
        self.selectors = tuple(selectors)


class DepositTuples(Command):
    """Cross-shard support: bulk-deposit tuples and wake blocked guards.

    *deposits* is an ordered sequence of ``(handle, fields)`` pairs — the
    order is part of the protocol (it recreates the coordinator's scratch
    sequence numbering, keeping oldest-match priority deterministic).
    Deposits into spaces destroyed since extraction are dropped; the
    result is the number actually deposited.
    """

    __slots__ = ("deposits",)

    def __init__(
        self,
        request_id: int,
        origin_host: int,
        deposits: Sequence[tuple[TSHandle, tuple]],
    ):
        super().__init__(request_id, origin_host)
        self.deposits = tuple(deposits)


class CancelRequest(Command):
    """Withdraw a parked ExecuteAGS (client-side timeout or abort).

    Like everything else, cancellation flows through the total order, so
    either every replica still has the statement parked (all drop it and
    the origin replica reports the cancellation) or none does (the cancel
    is a no-op everywhere — the statement already fired).  There is no
    in-between: that is precisely what the total order buys.
    """

    __slots__ = ("target_request_id",)

    def __init__(self, request_id: int, origin_host: int, target_request_id: int):
        super().__init__(request_id, origin_host)
        self.target_request_id = target_request_id


class Completion:
    """A finished request: routed back to the client by the replica layer."""

    __slots__ = ("request_id", "origin_host", "process_id", "result")

    def __init__(
        self,
        request_id: int,
        origin_host: int,
        process_id: int | None,
        result: Any,
    ):
        self.request_id = request_id
        self.origin_host = origin_host
        self.process_id = process_id
        self.result = result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Completion(#{self.request_id} -> h{self.origin_host}: {self.result!r})"


class _Blocked:
    """A parked ExecuteAGS awaiting a guard match.

    ``since`` is the machine's local clock reading at park time.  It is
    observability metadata, NOT replicated state: replicas stamp their own
    local times, it is excluded from snapshots and fingerprints, and no
    state transition ever reads it — so the determinism contract holds.
    """

    __slots__ = ("command", "since")

    def __init__(self, command: ExecuteAGS, since: float = 0.0):
        self.command = command
        self.since = since


class TSStateMachine:
    """Deterministic executor of tuple-space commands over a registry.

    Parameters
    ----------
    registry:
        The space registry to execute against.  Replicas of a stable TS
        group each own one registry; host-local volatile spaces use a
        second, host-private machine.
    failure_spaces:
        Handles that receive the distinguished failure/recovery tuples.
        Defaults to ``[MAIN_TS]``.
    """

    def __init__(
        self,
        registry: SpaceRegistry | None = None,
        failure_spaces: Sequence[TSHandle] | None = None,
    ):
        self.registry = registry if registry is not None else SpaceRegistry()
        self.failure_spaces = list(failure_spaces) if failure_spaces else [MAIN_TS]
        self.blocked: list[_Blocked] = []
        self.applied_count = 0
        #: Completed-request memo for at-most-once semantics under client
        #: retries: request_id -> result, bounded by DEDUP_CAP.  This IS
        #: replicated state (it travels in snapshots and is maintained
        #: deterministically), but it is excluded from fingerprints —
        #: results are arbitrary objects without a stable cross-process
        #: hash, and the memo is a deterministic function of the command
        #: history the fingerprinted state already reflects.
        self.completed: dict[int, Any] = {}
        self._completed_order: deque[int] = deque()
        #: Request ids currently parked in ``blocked`` — duplicates of a
        #: parked statement are dropped instead of double-parked.
        self._blocked_rids: set[int] = set()
        #: Local clock used for waiter/last-out stamps only (never state
        #: transitions).  The simulated cluster repoints it at virtual time.
        self.clock = time.monotonic
        #: (space_id, first_field_repr, arity) -> clock reading of the most
        #: recent deposit.  Only maintained while introspection is enabled;
        #: local observability data, not part of snapshots or fingerprints.
        self.last_out: dict[tuple[int, str, int], float] = {}

    # ------------------------------------------------------------------ #
    # command dispatch
    # ------------------------------------------------------------------ #

    def apply(self, command: Command) -> list[Completion]:
        """Execute *command*; return completions it (transitively) produced.

        A single command can complete several requests: depositing a tuple
        may wake any number of blocked statements.  Completions are listed
        in deterministic wake order.

        Duplicate suppression: a command whose request id already
        completed replays the memoized result without re-executing, and a
        duplicate of a statement still parked is dropped (the original
        will complete it).  Both outcomes are pure functions of replicated
        state, so retried submissions stay deterministic group-wide.
        """
        rid = command.request_id
        memo = self.completed.get(rid, _NO_MEMO)
        if memo is not _NO_MEMO:
            self.applied_count += 1
            return [
                Completion(
                    rid,
                    command.origin_host,
                    getattr(command, "process_id", None),
                    memo,
                )
            ]
        if rid in self._blocked_rids:
            self.applied_count += 1
            return []
        completions: list[Completion] = []
        if isinstance(command, ExecuteAGS):
            result = self._try_execute(
                command.ags, command.process_id, command.actuals
            )
            if result is None:
                self.blocked.append(_Blocked(command, self.clock()))
                self._blocked_rids.add(rid)
            else:
                completions.append(
                    Completion(
                        command.request_id,
                        command.origin_host,
                        command.process_id,
                        result,
                    )
                )
                self._drain_blocked(completions)
        elif isinstance(command, CreateSpace):
            try:
                result: Any = self.registry.create(
                    command.name, command.resilience, command.scope, command.owner
                )
            except SpaceError as exc:
                # deterministic failure: every replica takes this branch, so
                # it must become a result, never an exception that could
                # kill the delivery path
                result = exc
            completions.append(
                Completion(command.request_id, command.origin_host, None, result)
            )
        elif isinstance(command, DestroySpace):
            try:
                self.registry.destroy(command.handle)
                result = True
            except SpaceError as exc:
                result = exc
            completions.append(
                Completion(command.request_id, command.origin_host, None, result)
            )
            # destroying a space can never wake a guard, no drain needed
        elif isinstance(command, CancelRequest):
            target = command.target_request_id
            for i, b in enumerate(self.blocked):
                if b.command.request_id == target:
                    del self.blocked[i]
                    self._blocked_rids.discard(target)
                    completions.append(
                        Completion(
                            target,
                            b.command.origin_host,
                            b.command.process_id,
                            AGSResult(None, error="cancelled"),
                        )
                    )
                    break
        elif isinstance(command, HostFailed):
            self._apply_host_failed(command)
            self._drain_blocked(completions)
        elif isinstance(command, HostRecovered):
            self._deposit_notification(
                RECOVERY_TAG, command.recovered_host, command.shard
            )
            self._drain_blocked(completions)
        elif isinstance(command, ExtractTuples):
            result = self._apply_extract(command)
            completions.append(
                Completion(command.request_id, command.origin_host, None, result)
            )
            # extraction only withdraws, it can never wake a guard
        elif isinstance(command, DepositTuples):
            deposited = 0
            for handle, fields in command.deposits:
                if not self.registry.exists(handle):
                    continue
                tup = LindaTuple(fields)
                self.registry.store(handle).add(tup)
                deposited += 1
                if _matching.STATS_ENABLED:
                    self._note_out(handle, tup)
            completions.append(
                Completion(command.request_id, command.origin_host, None, deposited)
            )
            self._drain_blocked(completions)
        else:
            # Unknown command types raise — and the replica apply loop's
            # poison barrier turns that into a deterministic CommandFailed
            # completion (the chaos harness injects exactly this).
            raise TypeError(f"unknown command type {type(command).__name__}")
        self.applied_count += 1
        # Memoize every result produced by executing a command — but never
        # a cancellation: a cancelled statement did NOT run, and a client
        # that retries its id after an unknown-outcome timeout must get a
        # fresh execution, not a replayed "cancelled".  Nor an extraction:
        # its reply is a whole partition, and the cross-shard rung submits
        # each one once, under a fresh id, so no resubmission can ask.
        if not isinstance(command, (CancelRequest, ExtractTuples)):
            for c in completions:
                self._remember(c.request_id, c.result)
        return completions

    def _remember(self, request_id: int, result: Any) -> None:
        if request_id not in self.completed:
            self._completed_order.append(request_id)
            if len(self._completed_order) > DEDUP_CAP:
                evicted = self._completed_order.popleft()
                del self.completed[evicted]
        self.completed[request_id] = result

    def try_read(
        self, ags: AGS, process_id: int, actuals: tuple = ()
    ) -> AGSResult | None:
        """Evaluate a read-only AGS against current state, mutating nothing.

        The replica group's read fast path: a statement whose every
        operation is ``rd``/``rdp`` touches no replicated state, so one
        up-to-date replica can answer it locally — outside the total
        order and without parking.  Returns ``None`` when every guard is
        blocking and none can fire right now; the caller falls back to
        the ordered path instead of parking here (a locally parked read
        would wake nondeterministically relative to the order).

        Not counted in ``applied_count``: reads are not commands.
        """
        if not ags.read_only:
            raise ValueError("try_read is only valid for read-only statements")
        return self._try_execute(ags, process_id, actuals)

    def _apply_host_failed(self, command: HostFailed) -> None:
        # Blocked statements from the dead host will never be claimed;
        # dropping them is deterministic because HostFailed sits at a fixed
        # point in the total order.
        kept = []
        for b in self.blocked:
            if b.command.origin_host != command.failed_host:
                kept.append(b)
            else:
                self._blocked_rids.discard(b.command.request_id)
        self.blocked = kept
        self._deposit_notification(FAILURE_TAG, command.failed_host, command.shard)

    def _deposit_notification(
        self, tag: str, host_id: int, shard: tuple[int, int] | None = None
    ) -> None:
        for handle in self.failure_spaces:
            if shard is not None:
                index, n_shards = shard
                if _matching.shard_of(handle.id, tag, n_shards) != index:
                    continue
            if self.registry.exists(handle):
                self.registry.store(handle).add(LindaTuple((tag, host_id)))

    def _apply_extract(self, command: ExtractTuples) -> dict[str, Any]:
        """Withdraw tuples for the cross-shard rung (see :class:`ExtractTuples`)."""
        exists: list[int] = []
        extracted: list[tuple[int, int, tuple]] = []
        for handle, first in command.selectors:
            if not self.registry.exists(handle):
                continue
            exists.append(handle.id)
            if first is None:
                continue
            store = self.registry.store(handle)
            match_first = None if first == _matching.ANY_FIRST else first
            for seqno, fields in store.withdraw_by_first(match_first):
                extracted.append((handle.id, seqno, fields))
        return {"spaces": exists, "extracted": extracted}

    def _drain_blocked(self, completions: list[Completion]) -> None:
        """Wake blocked statements, oldest first, until a fixpoint."""
        progress = bool(self.blocked)
        while progress:
            progress = False
            for i, blocked in enumerate(self.blocked):
                cmd = blocked.command
                result = self._try_execute(cmd.ags, cmd.process_id, cmd.actuals)
                if result is not None:
                    del self.blocked[i]
                    self._blocked_rids.discard(cmd.request_id)
                    completions.append(
                        Completion(
                            cmd.request_id, cmd.origin_host, cmd.process_id, result
                        )
                    )
                    progress = True
                    break  # restart scan: state changed

    # ------------------------------------------------------------------ #
    # AGS execution
    # ------------------------------------------------------------------ #

    def _resolve_ts(
        self, operand: Any, env: Mapping[str, Any], accessor: int | None
    ) -> TupleStore:
        value = operand.evaluate(env)
        if not isinstance(value, TSHandle):
            raise SpaceError(f"operand {value!r} is not a tuple-space handle")
        return self.registry.store(value, accessor=accessor)

    def _try_execute(
        self, ags: AGS, process_id: int, actuals: tuple = ()
    ) -> AGSResult | None:
        """Attempt the AGS against current state.

        *actuals* fill the statement's :class:`~repro.core.ags.Param`
        holes: they seed each branch's environment, where ``Param``
        evaluates like any other operand, and leave it again before the
        environment becomes the result's bindings.

        Returns ``None`` when every guard is blocking and none can fire
        (caller parks the statement).  Otherwise returns the result —
        including the no-branch-fired result for probe guards and the
        aborted-and-rolled-back result for failures.  Deterministic errors
        (an operand that fails to evaluate, an unknown space, a scope
        violation) become aborted results, never exceptions: every replica
        computes the same outcome.
        """
        for index, branch in enumerate(ags.branches):
            guard = branch.guard
            env: dict[Any, Any] = {ACTUALS: actuals} if actuals else {}
            undo: list[tuple] = []
            if guard.kind is GuardKind.TRUE:
                fired = True
            else:
                op = guard.op
                assert op is not None
                try:
                    store = self._resolve_ts(op.ts, env, process_id)
                    pattern = op.resolve_pattern(env)
                except (AGSError, SpaceError, TupleError) as exc:
                    return AGSResult(index, {}, {}, error=exc)
                m = store.find(pattern, remove=op.code.withdraws)
                if m is None:
                    fired = False
                else:
                    fired = True
                    env.update(m.binding)
                    if op.code.withdraws:
                        undo.append(("removed", store, m.seqno, m.tup))
            if not fired:
                continue
            # guard fired: run the body atomically, rolling back on failure
            error: str | Exception | None = None
            probe_results: dict[int, bool] = {}
            for i, op in enumerate(branch.body):
                try:
                    self._execute_body_op(op, env, undo, probe_results, i, process_id)
                except _BodyAbort as abort:
                    error = str(abort)
                    break
                except (AGSError, SpaceError, TupleError) as exc:
                    error = exc
                    break
            if error is not None:
                self._rollback(undo)
                return AGSResult(index, {}, probe_results, error=error)
            if actuals:
                del env[ACTUALS]
            return AGSResult(index, env, probe_results)
        # no guard fired
        if ags.blocking:
            return None
        return AGSResult(None)

    def _execute_body_op(
        self,
        op: Op,
        env: dict[str, Any],
        undo: list[tuple],
        probe_results: dict[int, bool],
        op_index: int,
        process_id: int | None = None,
    ) -> None:
        code = op.code
        if code is OpCode.OUT:
            store = self._resolve_ts(op.ts, env, process_id)
            try:
                tup = op.compiled().tuple_(env)
            except TupleError as exc:
                raise _BodyAbort(str(exc)) from None
            seqno = store.add(tup)
            undo.append(("added", store, seqno, tup))
            if _matching.STATS_ENABLED:
                self._note_out(op.ts.evaluate(env), tup)
        elif code in (OpCode.IN, OpCode.RD, OpCode.INP, OpCode.RDP):
            store = self._resolve_ts(op.ts, env, process_id)
            pattern = op.resolve_pattern(env)
            m = store.find(pattern, remove=code.withdraws)
            if m is None:
                if code.is_probe:
                    probe_results[op_index] = False
                    return
                raise _BodyAbort(
                    f"body {code.value} found no match for {pattern!r}"
                )
            if code.is_probe:
                probe_results[op_index] = True
            env.update(m.binding)
            if code.withdraws:
                undo.append(("removed", store, m.seqno, m.tup))
        elif code in (OpCode.MOVE, OpCode.COPY):
            src = self._resolve_ts(op.ts, env, process_id)
            assert op.ts2 is not None
            dst = self._resolve_ts(op.ts2, env, process_id)
            pattern = op.resolve_pattern(env)
            matches = src.find_all(pattern, remove=(code is OpCode.MOVE))
            if code is OpCode.MOVE:
                for m in matches:
                    undo.append(("removed", src, m.seqno, m.tup))
            note_outs = _matching.STATS_ENABLED and matches
            dst_handle = op.ts2.evaluate(env) if note_outs else None
            for m in matches:
                seqno = dst.add(m.tup)
                undo.append(("added", dst, seqno, m.tup))
                if note_outs:
                    self._note_out(dst_handle, m.tup)
        else:  # pragma: no cover - defensive
            raise _BodyAbort(f"opcode {code.value} is not executable in a body")

    def _note_out(self, handle: Any, tup: LindaTuple) -> None:
        """Record deposit traffic for the stall detector (introspection on)."""
        if isinstance(handle, TSHandle):
            self.last_out[(handle.id, repr(tup.fields[0]), len(tup.fields))] = (
                self.clock()
            )

    # ------------------------------------------------------------------ #
    # introspection (the waiter registry + live-state image)
    # ------------------------------------------------------------------ #

    def waiters(self, now: float | None = None) -> list[dict[str, Any]]:
        """Every parked statement: who is blocked, on what, for how long.

        Plain data (picklable) so the same image travels the in-band query
        path from replica processes.  ``blocked_for`` is an age in seconds
        relative to this machine's local clock — ages, unlike absolute
        stamps, compare meaningfully across process and clock domains.
        """
        t = self.clock() if now is None else now
        return [
            {
                "request_id": b.command.request_id,
                "origin_host": b.command.origin_host,
                "process_id": b.command.process_id,
                "blocked_for": max(t - b.since, 0.0),
                "waiting_on": b.command.ags.waiting_on(b.command.actuals),
            }
            for b in self.blocked
        ]

    def introspection(self, now: float | None = None) -> dict[str, Any]:
        """Live-state image: spaces, hot templates, waiters, out traffic.

        Everything is computed on demand from current state — the apply
        hot path maintains nothing beyond the gated match counters and
        ``last_out`` stamps — and returned as plain data.
        """
        t = self.clock() if now is None else now
        spaces = []
        for handle, store in self.registry:
            info = store.introspect()
            info.update(
                {
                    "id": handle.id,
                    "name": handle.name,
                    "resilience": handle.resilience.value,
                    "scope": handle.scope.value,
                }
            )
            spaces.append(info)
        return {
            "applied": self.applied_count,
            "waiters": self.waiters(t),
            "spaces": spaces,
            "last_out_age": {
                key: max(t - stamp, 0.0) for key, stamp in self.last_out.items()
            },
        }

    @staticmethod
    def _rollback(undo: list[tuple]) -> None:
        """Reverse recorded effects, newest first (all-or-nothing)."""
        for entry in reversed(undo):
            kind, store, seqno, tup = entry
            if kind == "added":
                store.remove_seqno(seqno, tup)
            else:  # "removed"
                store.reinsert(seqno, tup)

    # ------------------------------------------------------------------ #
    # replication support
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, Any]:
        """State-transfer image: registry plus parked statements.

        Blocked commands are part of replicated state — a recovering
        replica must wake the same statements at the same points in the
        order as everyone else.  The completed-request memo travels too,
        in completion order, so a recovered replica suppresses the same
        duplicate submissions as its donor.  Later commands mutate nothing
        the dict holds, so a caller takes it under its lock and serialises
        it after releasing that lock.
        """
        return {
            "registry": self.registry.snapshot(stable_only=False),
            # what ExecuteAGS is built from, in park order
            "blocked": [
                (c.request_id, c.origin_host, c.process_id, c.ags, c.actuals)
                for c in (b.command for b in self.blocked)
            ],
            "applied_count": self.applied_count,
            "completed": [
                (rid, self.completed[rid]) for rid in self._completed_order
            ],
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, Any], **kwargs: Any) -> "TSStateMachine":
        sm = cls(SpaceRegistry.from_snapshot(snap["registry"]), **kwargs)
        t_install = sm.clock()  # waiter ages restart at install time
        # (rid, host, pid, ags[, actuals]): older snapshots lack the last
        sm.blocked = [
            _Blocked(ExecuteAGS(*parked), t_install) for parked in snap["blocked"]
        ]
        sm._blocked_rids = {b.command.request_id for b in sm.blocked}
        sm.applied_count = snap["applied_count"]
        # .get(): snapshots written before the dedup memo existed lack it
        for rid, result in snap.get("completed", ()):
            sm.completed[rid] = result
            sm._completed_order.append(rid)
        return sm

    def fingerprint(self) -> int:
        """Hash of all replicated state; equal across consistent replicas
        — including replicas in different OS processes (no hash salting).

        The completed-request memo is deliberately excluded: results are
        arbitrary objects with no stable cross-process hash, and the memo
        is a deterministic function of the command history the rest of
        the fingerprinted state already witnesses.
        """
        from repro.core.matching import stable_hash

        acc = self.registry.fingerprint()
        for i, b in enumerate(self.blocked):
            acc ^= stable_hash((i, b.command.request_id, b.command.origin_host))
        return acc


class _BodyAbort(Exception):
    """Internal: a body operation failed; the AGS must roll back."""

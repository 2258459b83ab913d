"""FT-Linda runtimes: the programmer-facing API over the state machine.

The paper's programming model is: processes share tuple spaces; every
interaction is a tuple-space operation; single operations are sugar for
one-branch atomic guarded statements.  This module defines

- :class:`BaseRuntime` — the abstract API (``out``/``in_``/``rd``/``inp``/
  ``rdp``/``move``/``copy``/``execute``/``ts_create``/``eval_``), with all
  the convenience wrappers implemented once on top of a single abstract
  ``_submit(ags, process_id, actuals=…)``; the classic operations compile
  to a *statement plan* once per call-site shape and submit that plan with
  the call's actuals (:meth:`BaseRuntime._plan`);
- :class:`ProcessView` — the API a spawned (``eval``'ed) process sees,
  bound to its process id;
- :class:`LocalRuntime` — a single-host, thread-safe implementation that
  executes statements directly against one
  :class:`~repro.core.statemachine.TSStateMachine`.  This is both the unit
  under test for most of the suite and the paper's "single processor"
  measurement configuration (Sec. 5.3): no replication, no network, pure
  tuple-processing overhead.

Distributed implementations (simulated network + Consul, threads/processes
with a replica group) live in :mod:`repro.consul` and :mod:`repro.parallel`
and share this exact API, so every example and paradigm runs unchanged on
any backend.
"""

from __future__ import annotations

import abc
import itertools
import threading
from typing import Any, Callable, Mapping, Sequence, TypeVar

from repro import sync
from repro._errors import AGSError, RuntimeFailure, TimeoutError_
from repro.core.ags import (
    AGS,
    OUT_TAKES_ACTUALS,
    AGSResult,
    Const,
    Guard,
    GuardKind,
    Op,
    OpCode,
    Operand,
    Param,
    as_operand,
)
from repro.core.spaces import MAIN_TS, Resilience, Scope, TSHandle
from repro.core.statemachine import (
    CancelRequest,
    Command,
    Completion,
    CreateSpace,
    DestroySpace,
    ExecuteAGS,
    TSStateMachine,
)
from repro.core.tuples import Formal, LindaTuple
from repro.obs.metrics import Joint, MetricsRegistry
from repro.obs.tracing import FlightRecorder

__all__ = ["BaseRuntime", "LocalRuntime", "ProcessView"]

#: Origin-host id LocalRuntime stamps on its own commands.  It is reserved:
#: failure injection uses non-negative *logical* host ids (worker ids), and
#: a HostFailed command drops blocked statements whose origin matches the
#: failed host — the runtime's own statements must never match.
_LOCAL_ORIGIN = -1

#: How many snapshots :meth:`LocalRuntime.retain_snapshot` keeps for
#: :meth:`LocalRuntime.read_at`; the oldest slot is dropped first.
_RETAINED_SNAPSHOTS = 4

_RT = TypeVar("_RT", bound="BaseRuntime")


def _autoname(fields: Sequence[Any]) -> list[Any]:
    """Give anonymous formals synthetic names so results can be rebuilt.

    Classic Linda's ``in("count", ?int)`` returns the matched tuple; the
    AGS machinery only reports *named* formal bindings.  The convenience
    wrappers therefore rename every anonymous formal to ``_fI`` (its field
    index) and use the bindings to reconstruct the full matched tuple.
    """
    return [
        Formal(object if not f.typed else f.ftype, f"_f{i}")
        if isinstance(f, Formal) and f.name is None
        else f
        for i, f in enumerate(fields)
    ]


def _rebuild(
    fields: Sequence[Any],
) -> Callable[[Mapping[str, Any], Sequence[Any]], LindaTuple]:
    """How to reconstruct the matched tuple from a pattern's fields.

    Worked out once per pattern: the returned function takes a result's
    bindings (and, for a plan, the call's actuals) and reads each field
    from the formal that bound it, the actual that filled its hole, or
    the operand that computes it.  Nothing is checked again: the fields
    equal those of the tuple that matched.
    """
    steps = [
        (0, f.name) if isinstance(f, Formal)
        else (1, f.index) if isinstance(f, Param)
        else (2, as_operand(f))
        for f in fields
    ]

    def rebuild(bindings: Mapping[str, Any], actuals: Sequence[Any] = ()) -> LindaTuple:
        return LindaTuple.trusted(tuple([
            bindings[x] if how == 0 else actuals[x] if how == 1 else x.evaluate(bindings)
            for how, x in steps
        ]))

    return rebuild


#: Field values a bare operation takes as they are: exactly the types
#: ``Const`` accepts without looking inside the value (tuples are walked).
_PLAIN = frozenset((bool, int, float, str, bytes, type(None), TSHandle))

#: The bare operations whose one op is the statement's guard.
_MATCHING = (OpCode.IN, OpCode.RD, OpCode.INP, OpCode.RDP)


class _Plan:
    """One call-site shape, compiled: see :meth:`BaseRuntime._plan`."""

    __slots__ = ("ags", "rebuild")

    def __init__(self, code: OpCode, n_spaces: int, args: Sequence[Any]):
        """Compile ``code(*args)``, the first *n_spaces* arguments its spaces.

        Every argument that is neither a formal nor a computed operand
        becomes a hole, numbered in argument order — the order
        :meth:`BaseRuntime._plan` collects the actuals in.  Raises
        whatever building the statement by hand would: a shape that is
        not a legal statement never becomes a plan.
        """
        holes = itertools.count()
        planned = [
            f if isinstance(f, (Formal, Operand)) and type(f) is not Const
            else Param(next(holes))
            for f in args
        ]
        spaces, pattern = planned[:n_spaces], planned[n_spaces:]
        if code in _MATCHING:
            pattern = _autoname(pattern)
            self.ags = AGS.single(Guard(GuardKind.OP, Op(code, spaces[0], pattern)))
            self.rebuild = _rebuild(pattern)
        else:
            self.ags = AGS.atomic(Op(code, spaces[0], pattern, *spaces[1:]))
            self.rebuild = None


class BaseRuntime(abc.ABC):
    """Abstract FT-Linda runtime: classic Linda ops as one-op AGSs.

    Subclasses provide command submission and process creation; everything
    user-facing is defined here so all backends behave identically.
    """

    def __init__(self) -> None:
        self._proc_ids = itertools.count(1)
        self._telemetry = None  # TelemetryServer once serve_telemetry runs
        #: Statement plans by call-site shape (see :meth:`_plan`).  A race
        #: to compile one shape stores two equal plans, the later winning.
        self._plans: dict[tuple, _Plan] = {}

    # ------------------------------------------------------------------ #
    # abstract transport
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _submit(
        self,
        ags: AGS,
        process_id: int,
        *,
        timeout: float | None = None,
        actuals: tuple = (),
    ) -> AGSResult:
        """Execute *ags* with atomicity/ordering guarantees; block as needed.

        *actuals* fill the holes of a statement plan (see :meth:`_plan`);
        a statement built by hand has none.
        """

    @abc.abstractmethod
    def create_space(
        self,
        name: str,
        resilience: Resilience = Resilience.STABLE,
        scope: Scope = Scope.SHARED,
        owner: int | None = None,
    ) -> TSHandle:
        """``ts_create`` (Sec. 3)."""

    @abc.abstractmethod
    def destroy_space(self, handle: TSHandle) -> None:
        """``ts_destroy``."""

    def eval_(
        self, fn: Callable[..., Any], *args: Any, process_id: int | None = None
    ) -> "ProcessHandle":
        """Linda's ``eval``: create a live tuple (a new process).

        *fn* receives a :class:`ProcessView` bound to the new process as
        its first argument, then *args*.  ``eval`` is deliberately NOT
        allowed inside an AGS (Sec. 3's restrictions), hence a runtime
        method rather than an opcode.

        Every single-machine backend spawns Linda processes as client
        threads (replication happens underneath, in the command pipeline),
        so the default implementation lives here once.
        """
        pid = process_id if process_id is not None else next(self._proc_ids)
        handle = ProcessHandle(pid)

        def run() -> None:
            try:
                handle._result = fn(self.view(pid), *args)
            except BaseException as exc:  # noqa: BLE001 - reported via join()
                handle._error = exc

        handle._thread = sync.spawn(run, name=f"linda-proc-{pid}")
        return handle

    def metrics_snapshot(self) -> dict[str, Any]:
        """Plain-data image of this runtime's metrics registry.

        Every backend exposes the same instruments (``submit_to_order``,
        ``order_to_apply``, ``ags_e2e`` histograms plus submission
        counters) so experiments can report identical numbers regardless
        of where they ran.  Runtimes without a registry return ``{}``.
        """
        metrics = getattr(self, "metrics", None)
        if metrics is None:
            return {}
        self._sample_plans(metrics)
        return metrics.snapshot()

    def _sample_plans(self, metrics: MetricsRegistry) -> None:
        """Set the ``statement_plans`` gauge — at snapshot time, like the
        depth gauges, so the statement path never touches it."""
        metrics.gauge("statement_plans").set(len(self._plans))

    def introspection_snapshot(self) -> dict[str, Any]:
        """Uniform live-state image: spaces, hot templates, waiters, replicas.

        Every backend returns the same plain-data shape (see
        :func:`repro.obs.inspect.empty_snapshot`) so the stall detector,
        Prometheus exporter, and ``cli top`` dashboard work unchanged on
        any of them.  The base implementation reports an empty image.
        """
        from repro.obs.inspect import empty_snapshot

        return empty_snapshot(type(self).__name__)

    def serve_telemetry(self, port: int = 0, **kwargs: Any):
        """Expose this runtime's observability plane over HTTP.

        Starts (or returns the already-running) :class:`~repro.obs.
        server.TelemetryServer` bound to this runtime — ``/metrics``,
        ``/health``, ``/snapshot``, ``/events``, ``/debug/trace``,
        ``/debug/profile``.  ``port=0`` binds an ephemeral port; read it
        back from the returned server's ``.port``/``.url``.  The server
        is closed automatically by the backends' ``shutdown``.
        """
        if self._telemetry is None:
            from repro.obs.server import serve_telemetry

            self._telemetry = serve_telemetry(self, port, **kwargs)
        return self._telemetry

    def _close_telemetry(self) -> None:
        """Stop the HTTP endpoint if one is running (idempotent)."""
        server, self._telemetry = self._telemetry, None
        if server is not None:
            server.close()

    def shutdown(self) -> None:
        """Release what the runtime holds (idempotent).

        The base holds only the telemetry endpoint; replicated backends
        extend this to stop their replica workers.
        """
        self._close_telemetry()

    def __enter__(self: _RT) -> _RT:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # the Linda operations (single-op AGS sugar)
    # ------------------------------------------------------------------ #

    def execute(
        self,
        ags: AGS,
        actuals: tuple = (),
        *,
        process_id: int = 0,
        timeout: float | None = None,
    ) -> AGSResult:
        """Execute an arbitrary atomic guarded statement.

        *actuals* are the values of a statement plan's
        :class:`~repro.core.ags.Param` holes, in index order — what
        :meth:`repro.lcc.program.Program.statement` returns beside the
        plan; a statement without holes takes none.  Unlike the
        classic-op wrappers below, ``execute`` never raises on an aborted
        statement — callers inspect :attr:`AGSResult.error`.
        """
        return self._submit(ags, process_id, timeout=timeout, actuals=actuals)

    @staticmethod
    def _checked(res: AGSResult) -> AGSResult:
        """Raise the deterministic error carried by an aborted result."""
        if res.aborted:
            if isinstance(res.error, Exception):
                raise res.error
            raise RuntimeFailure(str(res.error))
        return res

    def _plan(
        self, code: OpCode, spaces: tuple, fields: tuple
    ) -> tuple[_Plan, tuple]:
        """The statement plan for one bare operation, and this call's actuals.

        FT-lcc compiled a statement once and shipped opcodes plus the
        call's actuals; this is that step for the classic operations.  A
        call's *shape* is its opcode and, per field, a hole (any plain
        value — the spaces are holes too, so the cache is bounded by
        program text, not by how many spaces a program creates), the
        formal, or the computed operand.  The plan for a shape — a
        validated :class:`AGS` with :class:`Param` holes, the synthetic
        formal names and the recipe that rebuilds the matched tuple — is
        compiled on first use; after that a call validates only its
        values, by the test ``Const`` makes, in the order building the
        statement by hand would, so the first error raised is the same.
        """
        shape: list[Any] = [code]
        actuals = []
        args = spaces + fields
        for i, f in enumerate(args):
            if type(f) in _PLAIN:
                shape.append(None)
                actuals.append(f)
            elif isinstance(f, Formal) and i >= len(spaces):
                if code is OpCode.OUT:
                    raise AGSError(OUT_TAKES_ACTUALS)
                shape.append((f.ftype, f.name))
            else:
                operand = as_operand(f)  # raises for an invalid value
                if type(operand) is Const:
                    shape.append(None)
                    actuals.append(operand.value)
                else:
                    shape.append(operand)  # by value, as statements compare
        key = tuple(shape)
        plan = self._plans.get(key)
        if plan is None:
            # not stored unless it compiles: an illegal shape raises here
            # on every call, as it always did
            plan = self._plans[key] = _Plan(code, len(spaces), args)
        return plan, tuple(actuals)

    def out(self, ts: TSHandle, *fields: Any, process_id: int = 0) -> None:
        """Deposit a tuple (classic ``out``)."""
        plan, actuals = self._plan(OpCode.OUT, (ts,), fields)
        self._checked(self._submit(plan.ags, process_id, actuals=actuals))

    def _match(
        self,
        code: OpCode,
        ts: TSHandle,
        fields: tuple,
        process_id: int,
        timeout: float | None = None,
    ) -> LindaTuple | None:
        """One matching operation: the tuple it matched, ``None`` for a
        probe that found nothing."""
        plan, actuals = self._plan(code, (ts,), fields)
        res = self._checked(
            self._submit(plan.ags, process_id, timeout=timeout, actuals=actuals)
        )
        if not res.succeeded:
            return None
        return plan.rebuild(res.bindings, actuals)

    def in_(
        self,
        ts: TSHandle,
        *fields: Any,
        process_id: int = 0,
        timeout: float | None = None,
    ) -> LindaTuple:
        """Withdraw a matching tuple, blocking until one exists."""
        return self._match(OpCode.IN, ts, fields, process_id, timeout)

    def rd(
        self,
        ts: TSHandle,
        *fields: Any,
        process_id: int = 0,
        timeout: float | None = None,
    ) -> LindaTuple:
        """Read a matching tuple without withdrawing it, blocking."""
        return self._match(OpCode.RD, ts, fields, process_id, timeout)

    def inp(self, ts: TSHandle, *fields: Any, process_id: int = 0) -> LindaTuple | None:
        """Non-blocking ``in`` with FT-Linda's *strong* semantics.

        Returns the matched tuple, or ``None`` as a guarantee that no
        matching tuple existed at this operation's point in the total
        order (Sec. 6).
        """
        return self._match(OpCode.INP, ts, fields, process_id)

    def rdp(self, ts: TSHandle, *fields: Any, process_id: int = 0) -> LindaTuple | None:
        """Non-blocking ``rd`` with strong semantics."""
        return self._match(OpCode.RDP, ts, fields, process_id)

    def _transfer(
        self, code: OpCode, src: TSHandle, dst: TSHandle, fields: tuple, process_id: int
    ) -> None:
        """``move`` or ``copy``: one statement, two spaces."""
        if dst is None:
            Op(code, src, fields)  # raises: no destination (None is a value, so a hole)
        plan, actuals = self._plan(code, (src, dst), fields)
        self._checked(self._submit(plan.ags, process_id, actuals=actuals))

    def move(
        self, src: TSHandle, dst: TSHandle, *fields: Any, process_id: int = 0
    ) -> None:
        """Atomically transfer every matching tuple from *src* to *dst*."""
        self._transfer(OpCode.MOVE, src, dst, fields, process_id)

    def copy(
        self, src: TSHandle, dst: TSHandle, *fields: Any, process_id: int = 0
    ) -> None:
        """Atomically duplicate every matching tuple from *src* into *dst*."""
        self._transfer(OpCode.COPY, src, dst, fields, process_id)

    def eval_out(
        self, ts: TSHandle, *fields: Any, process_id: int = 0
    ) -> "ProcessHandle":
        """Classic Linda's *live tuple*: ``eval(ts, f1, fn, f2, …)``.

        In Gelernter's original model, ``eval`` deposits an *active* tuple:
        fields that are functions are evaluated by freshly created
        processes, concurrently, and when all of them finish the tuple
        turns *passive* — it materializes in the space and becomes
        matchable.  (FT-Linda keeps ``eval`` outside AGSs; this is the
        plain-Linda form, offered on every runtime.)

        Callable fields take no arguments and return a valid field value.
        Returns the handle of the coordinating process; ``join`` yields
        the deposited tuple.
        """
        callables = [(i, f) for i, f in enumerate(fields) if callable(f)]
        for i, f in enumerate(fields):
            if not callable(f) and isinstance(f, Formal):
                raise AGSError("live tuples take values or functions, not formals")

        def coordinator(proc: "ProcessView") -> LindaTuple:
            results: dict[int, Any] = {}
            children = [
                (i, proc.eval_(lambda _p, fn=fn: fn())) for i, fn in callables
            ]
            for i, h in children:
                results[i] = h.join()
            resolved = [
                results[i] if callable(f) else f for i, f in enumerate(fields)
            ]
            proc.out(ts, *resolved)
            return LindaTuple(resolved)

        return self.eval_(coordinator)

    def view(self, process_id: int) -> "ProcessView":
        """An API facade bound to *process_id* (what ``eval`` hands out)."""
        return ProcessView(self, process_id)

    @property
    def main_ts(self) -> TSHandle:
        """The default shared stable tuple space."""
        return MAIN_TS


class ProcessView:
    """The FT-Linda API as seen by one process: same ops, pid pre-bound."""

    __slots__ = ("_runtime", "process_id")

    def __init__(self, runtime: BaseRuntime, process_id: int):
        self._runtime = runtime
        self.process_id = process_id

    def execute(
        self, ags: AGS, actuals: tuple = (), *, timeout: float | None = None
    ) -> AGSResult:
        return self._runtime.execute(
            ags, actuals, process_id=self.process_id, timeout=timeout
        )

    def out(self, ts: TSHandle, *fields: Any) -> None:
        self._runtime.out(ts, *fields, process_id=self.process_id)

    def in_(self, ts: TSHandle, *fields: Any, timeout: float | None = None) -> LindaTuple:
        return self._runtime.in_(
            ts, *fields, process_id=self.process_id, timeout=timeout
        )

    def rd(self, ts: TSHandle, *fields: Any, timeout: float | None = None) -> LindaTuple:
        return self._runtime.rd(
            ts, *fields, process_id=self.process_id, timeout=timeout
        )

    def inp(self, ts: TSHandle, *fields: Any) -> LindaTuple | None:
        return self._runtime.inp(ts, *fields, process_id=self.process_id)

    def rdp(self, ts: TSHandle, *fields: Any) -> LindaTuple | None:
        return self._runtime.rdp(ts, *fields, process_id=self.process_id)

    def move(self, src: TSHandle, dst: TSHandle, *fields: Any) -> None:
        self._runtime.move(src, dst, *fields, process_id=self.process_id)

    def copy(self, src: TSHandle, dst: TSHandle, *fields: Any) -> None:
        self._runtime.copy(src, dst, *fields, process_id=self.process_id)

    def create_space(
        self,
        name: str,
        resilience: Resilience = Resilience.STABLE,
        scope: Scope = Scope.SHARED,
    ) -> TSHandle:
        owner = self.process_id if scope is Scope.PRIVATE else None
        return self._runtime.create_space(name, resilience, scope, owner)

    def destroy_space(self, handle: TSHandle) -> None:
        self._runtime.destroy_space(handle)

    def eval_(self, fn: Callable[..., Any], *args: Any) -> "ProcessHandle":
        return self._runtime.eval_(fn, *args)

    @property
    def main_ts(self) -> TSHandle:
        return self._runtime.main_ts


class ProcessHandle:
    """Handle of an ``eval``'ed process (join/result inspection)."""

    __slots__ = ("process_id", "_thread", "_result", "_error")

    def __init__(self, process_id: int):
        self.process_id = process_id
        self._thread: threading.Thread | None = None
        self._result: Any = None
        self._error: BaseException | None = None

    def join(self, timeout: float | None = None) -> Any:
        """Wait for the process to finish; re-raises its exception."""
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise TimeoutError_(
                    f"process {self.process_id} still running after {timeout}s"
                )
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def done(self) -> bool:
        return self._thread is None or not self._thread.is_alive()


class LocalRuntime(BaseRuntime):
    """Single-host FT-Linda: one state machine, threads as processes.

    All statements execute under one lock, which *is* the total order —
    this configuration trades distribution for exactness and is what the
    paper measures in its single-processor Table 1 numbers.  ``in``/``rd``
    block on a condition variable and are re-tried by the state machine's
    deterministic wake-up scan whenever any statement completes.
    """

    def __init__(self, *, tracer: FlightRecorder | None = None):
        super().__init__()
        self._sm = TSStateMachine()
        self._lock = sync.Lock()
        self._cond = sync.Cond(self._lock)
        self._req_ids = itertools.count(1)
        self._results: dict[int, AGSResult] = {}
        #: slot -> TSStateMachine.snapshot() taken there, for read_at()
        self._retained: dict[int, dict[str, Any]] = {}
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        # a statement's three latencies and its count: one write when it
        # completes at once; a parked one is counted as it parks
        self._timings = Joint(
            [self.metrics.histogram(n) for n in ("submit_to_order", "order_to_apply", "ags_e2e")],
            [self.metrics.counter("commands_submitted")],
        )

    # ------------------------------------------------------------------ #
    # BaseRuntime implementation
    # ------------------------------------------------------------------ #

    def _submit(
        self,
        ags: AGS,
        process_id: int,
        *,
        timeout: float | None = None,
        actuals: tuple = (),
    ) -> AGSResult:
        t_submit = sync.now()
        tracer = self.tracer
        with self._cond:
            # lock acquisition is this runtime's total order: waiting for
            # the lock is the submit->order leg, executing is order->apply
            t_ordered = sync.now()
            rid = next(self._req_ids)
            try:
                completions = self._apply(ExecuteAGS(rid, _LOCAL_ORIGIN, process_id, ags, actuals))
            except BaseException:  # a journal's I/O error: submitted and ordered all the same
                self._timings.record((t_ordered - t_submit, None, None), t_ordered)
                raise
            t_applied = sync.now()
            legs = (t_ordered - t_submit, t_applied - t_ordered)
            trace_id = None
            if tracer is not None:
                # same span vocabulary as the replica group: one trace per
                # AGS, the single state machine playing replica-0
                trace_id = tracer.next_trace_id()
                track = f"client:{threading.current_thread().name}"
                tracer.record_span(
                    t_submit, track, "client", "submit_to_order",
                    dur=t_ordered - t_submit, trace_id=trace_id,
                    args={"request_id": rid},
                )
                tracer.record_span(
                    t_ordered, "replica-0", "replica", "apply",
                    dur=t_applied - t_ordered, trace_id=trace_id,
                    args={"slot": self._sm.applied_count, "request_id": rid},
                )
            for c in completions:
                self._results[c.request_id] = c.result
            if len(completions) > 1:
                # the first is ours; the rest it woke, and their threads wait
                self._cond.notify_all()
            events = 1
            if rid not in self._results:
                # parked: counted now, while it waits; its e2e comes when a
                # later statement completes it
                self._timings.record((*legs, None), t_applied)
                legs, events = (None, None), 0
                deadline = None if timeout is None else t_applied + timeout
            while rid not in self._results:
                remaining = None if deadline is None else deadline - sync.now()
                if remaining is not None and remaining <= 0:
                    # withdrawn through the total order, as the replica
                    # groups do, so a journal replays the withdrawal too;
                    # its "cancelled" completion has no one to go to
                    self._apply(CancelRequest(next(self._req_ids), _LOCAL_ORIGIN, rid))
                    raise TimeoutError_(
                        f"in/rd guard not satisfied within {timeout}s"
                    )
                self._cond.wait(remaining)
            result = self._results.pop(rid)
            now = sync.now()
            self._timings.record((*legs, now - t_submit), now, events)
            if trace_id is not None:
                tracer.record_span(
                    t_submit, track, "client", "e2e",
                    dur=now - t_submit, trace_id=trace_id, args={"request_id": rid},
                )
            return result

    def _apply(self, command: Command) -> list[Completion]:
        """Every command reaches the machine here, under the runtime lock.

        The lock order is the total order, so a subclass that overrides
        this (the journaling runtime: append, then apply) sees commands
        in exactly the order they execute.
        """
        return self._sm.apply(command)

    def create_space(
        self,
        name: str,
        resilience: Resilience = Resilience.STABLE,
        scope: Scope = Scope.SHARED,
        owner: int | None = None,
    ) -> TSHandle:
        with self._cond:
            rid = next(self._req_ids)
            completions = self._apply(
                CreateSpace(rid, _LOCAL_ORIGIN, name, resilience, scope, owner)
            )
            result = completions[0].result
            if isinstance(result, Exception):
                raise result
            return result

    def destroy_space(self, handle: TSHandle) -> None:
        with self._cond:
            rid = next(self._req_ids)
            completions = self._apply(DestroySpace(rid, _LOCAL_ORIGIN, handle))
            result = completions[0].result
            if isinstance(result, Exception):
                raise result

    # ------------------------------------------------------------------ #
    # failure injection (paradigm tests / baselines)
    # ------------------------------------------------------------------ #

    def inject_failure(self, host_id: int) -> None:
        """Simulate the fail-stop notification for logical host *host_id*.

        On the distributed backends the membership protocol does this
        automatically; on a single-host runtime, tests and examples model
        "worker w's processor crashed" by stopping the worker's thread and
        calling ``inject_failure(w)`` — which deposits the distinguished
        failure tuple and drops the dead host's blocked statements, exactly
        as the runtime does in the paper (Sec. 2.2).
        """
        from repro.core.statemachine import HostFailed

        with self._cond:
            rid = next(self._req_ids)
            completions = self._apply(HostFailed(rid, _LOCAL_ORIGIN, host_id))
            for c in completions:
                self._results[c.request_id] = c.result
            if completions:
                self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # inspection (tests, benchmarks)
    # ------------------------------------------------------------------ #

    @property
    def state_machine(self) -> TSStateMachine:
        return self._sm

    def introspection_snapshot(self) -> dict[str, Any]:
        from repro.obs.inspect import empty_snapshot

        snap = empty_snapshot(type(self).__name__)
        with self._lock:
            snap["sm"] = self._sm.introspection()
        return snap

    def space_size(self, handle: TSHandle) -> int:
        with self._lock:
            return len(self._sm.registry.store(handle))

    def space_tuples(self, handle: TSHandle) -> list[LindaTuple]:
        with self._lock:
            return self._sm.registry.store(handle).to_list()

    # ------------------------------------------------------------------ #
    # snapshot-isolated reads
    # ------------------------------------------------------------------ #

    def retain_snapshot(self) -> int:
        """Take (and retain) a snapshot at the current slot boundary.

        The snapshot is taken under the runtime lock; returns the slot it
        is pinned at, usable with :meth:`read_at`.  Only the newest
        ``_RETAINED_SNAPSHOTS`` slots are kept.
        """
        with self._lock:
            snap = self._sm.snapshot()
            slot = snap["applied_count"]
            self._retained[slot] = snap
            while len(self._retained) > _RETAINED_SNAPSHOTS:
                del self._retained[min(self._retained)]
            return slot

    def read_at(self, slot: int | None = None) -> "SnapshotView":
        """Snapshot-isolated reads at a retained slot (newest by default).

        The slot is chosen under the runtime lock; the view is built from
        its snapshot on the *caller's* thread after the lock is released.
        A retained snapshot is never mutated, so the view shares nothing
        with the live state machine: reads against it never contend with
        concurrent ``out``/``in`` traffic, and always observe exactly the
        state at the slot boundary the snapshot was taken at.  Raises
        ``KeyError`` when the slot is not (or no longer) retained.
        """
        with self._lock:
            if not self._retained:
                raise KeyError("no retained snapshots (call retain_snapshot first)")
            if slot is None:
                slot = max(self._retained)
            snap = self._retained[slot]
        return SnapshotView(TSStateMachine.from_snapshot(snap), slot, self._plan)


class SnapshotView:
    """Read-only tuple-space queries frozen at one snapshot slot.

    Produced by :meth:`LocalRuntime.read_at`; every method evaluates
    against a private state machine materialized from the retained
    snapshot, so results are stable no matter how much the live
    space churns underneath.
    """

    __slots__ = ("_sm", "slot", "_plan")

    def __init__(
        self,
        sm: TSStateMachine,
        slot: int,
        plan: Callable[[OpCode, tuple, tuple], tuple[_Plan, tuple]],
    ):
        self._sm = sm
        self.slot = slot
        self._plan = plan  # the owning runtime's: one cache of shapes

    def rdp(self, ts: TSHandle, *fields: Any) -> LindaTuple | None:
        """Non-blocking read against the frozen state."""
        plan, actuals = self._plan(OpCode.RDP, (ts,), fields)
        res = self._sm.try_read(plan.ags, 0, actuals)
        if res is None or not res.succeeded:
            return None
        return plan.rebuild(res.bindings, actuals)

    def count(self, ts: TSHandle, *fields: Any) -> int:
        """Number of tuples matching the pattern at the frozen slot."""
        from repro.core.tuples import Pattern

        return self._sm.registry.store(ts).count(Pattern(tuple(fields)))

    def size(self, ts: TSHandle) -> int:
        return len(self._sm.registry.store(ts))

    def tuples(self, ts: TSHandle) -> list[LindaTuple]:
        return self._sm.registry.store(ts).to_list()

    def fingerprint(self) -> int:
        return self._sm.fingerprint()

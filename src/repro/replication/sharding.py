"""ReplicatedRuntime: FT-Linda over content-partitioned replica groups.

One class, :class:`ReplicatedRuntime`, binds the
:class:`~repro.core.runtime.BaseRuntime` API to the shared replication
core.  It owns N :class:`~repro.replication.group.ReplicaGroup`
pipelines (the *shards*), routes every statement to them, fans space
lifecycle and membership out to all of them, and merges their metrics,
introspection and profiles into one view.  Its two backends, in
:mod:`repro.parallel.runtime`, differ only in the transport each shard's
group is built on.

The classic deployment totally orders *every* AGS through one sequencer
(one :class:`ReplicaGroup`), so write throughput is capped at a single
thread's ordering rate no matter how many replicas or cores exist.
``shards=N`` lifts that cap by partitioning the tuple space by content:
tuples live on the shard selected by a stable hash of
``(space, first-field value)`` (:func:`repro.core.matching.shard_of` —
never builtin ``hash()``, which is salted per process), and each shard is
a full, independently sequenced :class:`ReplicaGroup` with its own
transport, replicas, read fast path and liveness monitor.

Routing
-------
The AGS classifier (:meth:`repro.core.ags.AGS.shard_set`) reduces a
statement to the set of partitions it can touch:

- **single-shard AGS** — every guard/body template names a static space
  and a constant first field, and they all map to one shard.  This is the
  common case (bag-of-tasks ``("task", …)`` channels, distvar counters,
  barriers) and keeps today's cost exactly: one multicast on that shard's
  sequencer, that shard's read fast path, native parking and ordered
  cancel.  Different channels land on different shards and order/apply
  in parallel — that is the whole point.

- **cross-shard / wildcard AGS** — templates span shards, use a wildcard
  first field, or compute the target space at execution time.  These run
  a deterministic *rung* serialized by a coordinator lock: (1) an ordered
  :class:`~repro.core.statemachine.ExtractTuples` withdraws each involved
  partition from its shard, visiting shards in ascending shard-id order;
  (2) the coordinator replays the withdrawn tuples (sorted by original
  sequence number, preserving oldest-match priority) into a scratch
  :class:`~repro.core.statemachine.TSStateMachine` holding only the
  involved spaces and applies the AGS there; (3) an ordered
  :class:`~repro.core.statemachine.DepositTuples` scatters the surviving
  and produced tuples back to their owning shards, again in ascending
  shard order, waking any single-shard waiters.  A blocking cross-shard
  AGS that cannot fire scatters everything back unchanged and retries
  with backoff until its timeout.  Correct but slow — by design: the
  throughput-critical traffic is single-shard.

Invariants
----------
- Within a shard, the classic guarantee holds unchanged: one total order,
  identical replicas, strong ``inp``/``rdp``.
- Across shards, the rung's fixed visiting order plus the coordinator
  lock serialize cross-shard statements with respect to each other, and
  each Extract/Deposit occupies one slot in every involved shard's order,
  so single-shard traffic serializes against the rung per shard.
- Space lifecycle commands fan out to every shard under one lock in
  fixed order, so every shard's registry allocates identical handle ids.
- Failure/recovery tuples: membership commands are broadcast to every
  shard group stamped with ``shard_info``, and each shard deposits the
  notification only into the ``(space, tag)`` partitions it owns — one
  failure tuple per space globally, at an ordered point in each shard.

With ``shards=1`` (the default) there is one group and nothing to
route: every statement goes straight to it, and ``fingerprints``,
``metrics_snapshot`` and ``introspection_snapshot`` are that group's own.
"""

from __future__ import annotations

import os
from typing import Any

from repro import sync
from repro._errors import TimeoutError_
from repro.core.ags import AGS, AGSResult
from repro.core.matching import ANY_FIRST, shard_of, stable_hash
from repro.core.runtime import BaseRuntime
from repro.core.spaces import MAIN_TS, Resilience, Scope, SpaceRegistry, TSHandle
from repro.core.statemachine import (
    CreateSpace,
    DepositTuples,
    DestroySpace,
    ExecuteAGS,
    ExtractTuples,
    TSStateMachine,
)
from repro.obs.metrics import merged
from repro.obs.profile import DEFAULT_HZ, SamplingProfiler, merge_folded
from repro.obs.tracing import FlightRecorder
from repro.replication.group import CLIENT_ORIGIN, LivenessPolicy, ReplicaGroup
from repro.replication.transport import Transport

__all__ = ["ReplicatedRuntime"]


class ReplicatedRuntime(BaseRuntime):
    """FT-Linda over N replicas in one or more shards (see module docstring).

    Clients are ordinary threads (``eval_`` spawns them) that park until
    their shard's group reports a completion.  Read-only statements
    (``rd``/``rdp``) skip sequencing by default — one replica answers
    them at a consistent session floor (pass ``read_fastpath=False`` to
    force every operation through the total order).

    ``detect_failures`` turns on each group's liveness plane — a monitor
    thread combining in-band heartbeats with transport probes, so even a
    replica killed behind the runtime's back is noticed and converted to
    fail-stop.  Pass True for the default
    :class:`~repro.replication.LivenessPolicy` or a policy instance to
    tune it; a policy's ``auto_recover`` additionally restarts the dead
    replica and installs a donor snapshot, with capped exponential
    backoff and a max-restarts budget.

    ``shards`` partitions the tuple space into that many independently
    sequenced replica groups, each with *n_replicas* replicas on a
    transport of its own.  The remaining knobs apply to every shard; the
    tracer is shared, so one flight recorder sees all shards (replica
    tracks are shard-prefixed).
    """

    def __init__(
        self,
        n_replicas: int = 3,
        *,
        shards: int = 1,
        read_fastpath: bool = True,
        tracer: FlightRecorder | None = None,
        detect_failures: bool | LivenessPolicy = False,
        durable_dir: str | None = None,
        durable_fsync: bool = True,
    ):
        super().__init__()
        if shards < 1:
            raise ValueError("shards must be >= 1")
        # The group takes a policy or None; bool | policy is this layer's
        # convenience.  A caller's policy is shared as it is: nothing
        # writes to it.
        liveness = detect_failures
        if not isinstance(liveness, LivenessPolicy):
            liveness = LivenessPolicy() if liveness else None
        self.n_shards = shards
        self.tracer = tracer
        self.shard_groups: list[ReplicaGroup] = []
        for k in range(shards):
            # each shard journals its own ordered stream: shards are
            # independently sequenced, so they recover independently too
            shard_dir = durable_dir
            if durable_dir is not None and shards > 1:
                shard_dir = os.path.join(durable_dir, f"shard{k}")
            self.shard_groups.append(
                ReplicaGroup(
                    self._transport(n_replicas),
                    read_fastpath=read_fastpath,
                    tracer=tracer,
                    liveness=liveness,
                    shard_info=(k, shards) if shards > 1 else None,
                    durable_dir=shard_dir,
                    durable_fsync=durable_fsync,
                )
            )
        #: The first shard's group — the whole pipeline when ``shards=1``.
        self.group = self.shard_groups[0]
        #: The runtime-facing registry is shard 0's; the merged view
        #: across shards is :meth:`metrics_snapshot`.
        self.metrics = self.group.metrics
        #: Serializes space lifecycle fan-out so every shard's registry
        #: sees create/destroy in the same order (identical handle ids).
        self._space_lock = sync.Lock()
        #: Serializes cross-shard rungs against each other.  Single-shard
        #: traffic never takes this lock.
        self._cross_lock = sync.Lock()
        #: Live handles, maintained at the router (the coordinator needs
        #: the full space list for dynamic-space statements).  Guarded by
        #: _space_lock.
        self._spaces: dict[int, TSHandle] = {MAIN_TS.id: MAIN_TS}
        #: The runtime's own process-wide sampler (see start_profiling).
        self._profiler: SamplingProfiler | None = None
        from repro.obs.server import maybe_serve_from_env

        self._telemetry = maybe_serve_from_env(self)

    def _transport(self, n_replicas: int) -> Transport:
        """A fresh transport for one shard's group — the backend's one choice."""
        raise NotImplementedError

    @property
    def sharded(self) -> ReplicatedRuntime:
        """This runtime, under the name the repo benchmark's adapters use.

        Kept only for ``benchmarks/suite``, which is frozen: everything
        else calls ``post_ags``, ``n_shards`` and ``query`` on the runtime.
        """
        return self

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def shard_of_ags(self, ags: AGS, actuals: tuple = ()) -> int | None:
        """The single shard *ags* pins to, or ``None`` for the cross path.

        *actuals* are the statement's, when it is a plan: the route reads
        the space and first field through its holes.
        """
        shards = ags.shard_set(self.n_shards, actuals)
        if shards is not None and len(shards) == 1:
            return next(iter(shards))
        return None

    def _submit(
        self,
        ags: AGS,
        process_id: int,
        *,
        timeout: float | None = None,
        actuals: tuple = (),
    ) -> AGSResult:
        """Route one AGS: single-shard fast path or the cross-shard rung."""
        if self.n_shards == 1:
            return self._call_on(self.group, ags, process_id, timeout, actuals)
        shards = ags.shard_set(self.n_shards, actuals)
        if shards is not None and len(shards) == 1:
            group = self.shard_groups[next(iter(shards))]
            return self._call_on(group, ags, process_id, timeout, actuals)
        return self._execute_cross(ags, process_id, timeout, shards, actuals)

    def post_ags(self, ags: AGS, process_id: int = 0, actuals: tuple = ()) -> None:
        """Pipelined submit (no completion wait) — single-shard AGS only."""
        shard = self.shard_of_ags(ags, actuals)
        if shard is None:
            raise ValueError(
                "post_ags requires a statically single-shard statement; "
                "cross-shard statements must go through execute()"
            )
        group = self.shard_groups[shard]
        group.post(
            ExecuteAGS(
                group.next_request_id(), CLIENT_ORIGIN, process_id, ags, actuals
            )
        )

    @staticmethod
    def _call_on(
        group: ReplicaGroup,
        ags: AGS,
        process_id: int,
        timeout: float | None,
        actuals: tuple,
    ) -> AGSResult:
        return group.call(
            ExecuteAGS(
                group.next_request_id(), CLIENT_ORIGIN, process_id, ags, actuals
            ),
            timeout,
        )

    # ------------------------------------------------------------------ #
    # the cross-shard rung
    # ------------------------------------------------------------------ #

    def _execute_cross(
        self,
        ags: AGS,
        process_id: int,
        timeout: float | None,
        shard_set: frozenset[int] | None,
        actuals: tuple,
    ) -> AGSResult:
        deadline = None if timeout is None else sync.now() + timeout
        attempt = 0
        while True:
            with self._cross_lock:
                outcome = self._cross_attempt(ags, process_id, shard_set, actuals)
            if outcome is not None:
                return outcome
            # every guard is blocking and none could fire: the state was
            # scattered back unchanged; poll again after a short backoff
            if deadline is not None and sync.now() >= deadline:
                # nothing is parked anywhere — the rung restored all
                # tuples — so this timeout is as clean as an ordered cancel
                raise TimeoutError_(
                    f"guard not satisfied within {timeout}s", outcome="cancelled"
                )
            # a blocking cross-shard AGS polls: it cannot park inside any
            # single shard's order without pinning other shards' tuples
            sync.sleep(sync.backoff(attempt, 0.002, 0.05))
            attempt += 1

    def _cross_selectors(
        self, ags: AGS, involved: list[int], actuals: tuple
    ) -> tuple[dict[int, list[tuple[TSHandle, Any]]], dict[int, TSHandle]]:
        """Per-shard ExtractTuples selectors + the handles they mention.

        Three selector forms (see :class:`ExtractTuples`): ``(h, value)``
        withdraws one partition from its owning shard, ``(h, ANY_FIRST)``
        withdraws a space's whole slice from every involved shard (the
        wildcard-first-field case), ``(h, None)`` withdraws nothing but
        reports whether the space exists (deposit-only spaces — the
        scratch machine must not adopt a destroyed space).  A statement
        whose target space is only known at execution time degrades to a
        full sweep: every live space, every shard.
        """
        hints = ags.shard_hints(actuals)
        handles: dict[int, TSHandle] = {}
        if any(ts is None for ts, _first, _extracts in hints):
            with self._space_lock:
                swept = sorted(self._spaces)
                handles = {hid: self._spaces[hid] for hid in swept}
            per_shard = {
                k: [(handles[hid], ANY_FIRST) for hid in swept] for k in involved
            }
            return per_shard, handles
        per_shard = {k: [] for k in involved}
        probe_only: list[TSHandle] = []
        for ts, first, extracts in hints:
            assert ts is not None
            handles[ts.id] = ts
            if not extracts:
                probe_only.append(ts)
                continue
            if first == ANY_FIRST:
                for k in involved:
                    per_shard[k].append((ts, ANY_FIRST))
            else:
                per_shard[shard_of(ts.id, first, self.n_shards)].append((ts, first))
        probe_shard = involved[0]
        for ts in probe_only:
            if not any(sel[0].id == ts.id for sel in per_shard[probe_shard]):
                per_shard[probe_shard].append((ts, None))
        return per_shard, handles

    def _cross_attempt(
        self,
        ags: AGS,
        process_id: int,
        shard_set: frozenset[int] | None,
        actuals: tuple,
    ) -> AGSResult | None:
        """One extract → scratch-execute → scatter round.  Holds _cross_lock.

        Returns ``None`` when the (blocking) statement could not fire —
        everything extracted has been scattered back unchanged.
        """
        involved = (
            sorted(shard_set) if shard_set is not None else list(range(self.n_shards))
        )
        selectors, handles = self._cross_selectors(ags, involved, actuals)
        # 1. the extract rung: ascending shard order, one ordered command
        #    per involved shard with a non-empty selector list
        extracted: list[tuple[int, int, int, tuple]] = []  # (space, seqno, shard, fields)
        exists: set[int] = set()
        for k in involved:
            sels = selectors[k]
            if not sels:
                continue
            group = self.shard_groups[k]
            reply = group.call(
                ExtractTuples(group.next_request_id(), CLIENT_ORIGIN, sels)
            )
            exists.update(reply["spaces"])
            extracted.extend(
                (sid, seqno, k, fields) for sid, seqno, fields in reply["extracted"]
            )
        # 2. scratch execution: adopt the involved spaces that exist,
        #    replay withdrawn tuples oldest-first, apply the AGS
        registry = SpaceRegistry(create_main=False)
        for hid in sorted(exists):
            if hid in handles:
                registry.adopt(handles[hid])
        scratch = TSStateMachine(registry, failure_spaces=[])
        extracted.sort(key=lambda e: (e[0], e[1], e[2]))
        from repro.core.tuples import LindaTuple

        for sid, _seqno, _shard, fields in extracted:
            registry.store(handles[sid]).add(LindaTuple(fields))
        try:
            completions = scratch.apply(
                ExecuteAGS(1, CLIENT_ORIGIN, process_id, ags, actuals)
            )
        except Exception:
            # an unexpected (non-deterministic-path) failure: restore the
            # withdrawn tuples verbatim before surfacing it, so nothing
            # is lost even on a bug in scratch execution
            self._scatter(
                [(handles[sid], fields) for sid, _s, _k, fields in extracted]
            )
            raise
        if not completions:
            # parked: a blocking statement whose guards cannot fire.
            # Scatter the withdrawn tuples back unchanged and let the
            # caller retry — the scratch machine is thrown away.
            self._scatter(
                [(handles[sid], fields) for sid, _s, _k, fields in extracted]
            )
            return None
        # 3. scatter everything surviving in the scratch spaces (leftover
        #    slices plus tuples the body produced) back to their owners
        deposits: list[tuple[TSHandle, tuple]] = []
        for handle, store in registry:
            for tup in store.to_list():
                deposits.append((handle, tup.fields))
        self._scatter(deposits)
        return completions[0].result

    def _scatter(self, deposits: list[tuple[TSHandle, tuple]]) -> None:
        """Ship *deposits* to their owning shards, ascending shard order.

        ``post`` (not ``call``): per-shard FIFO ordering already
        guarantees any later command on that shard observes the deposit,
        and the coordinator lock is held, so a subsequent rung cannot
        extract ahead of these on any shard.
        """
        by_shard: dict[int, list[tuple[TSHandle, tuple]]] = {}
        for handle, fields in deposits:
            k = shard_of(handle.id, fields[0], self.n_shards)
            by_shard.setdefault(k, []).append((handle, fields))
        for k in sorted(by_shard):
            group = self.shard_groups[k]
            group.post(
                DepositTuples(group.next_request_id(), CLIENT_ORIGIN, by_shard[k])
            )

    # ------------------------------------------------------------------ #
    # space lifecycle (fanned out, serialized, identical ids everywhere)
    # ------------------------------------------------------------------ #

    def create_space(
        self,
        name: str,
        resilience: Resilience = Resilience.STABLE,
        scope: Scope = Scope.SHARED,
        owner: int | None = None,
    ) -> TSHandle:
        with self._space_lock:
            results = []
            for group in self.shard_groups:
                results.append(
                    group.call(
                        CreateSpace(
                            group.next_request_id(), CLIENT_ORIGIN,
                            name, resilience, scope, owner,
                        )
                    )
                )
            first = results[0]
            if isinstance(first, Exception):
                raise first
            self._spaces[first.id] = first
            return first

    def destroy_space(self, handle: TSHandle) -> None:
        with self._space_lock:
            results = []
            for group in self.shard_groups:
                results.append(
                    group.call(
                        DestroySpace(group.next_request_id(), CLIENT_ORIGIN, handle)
                    )
                )
            first = results[0]
            if isinstance(first, Exception):
                raise first
            self._spaces.pop(handle.id, None)

    # ------------------------------------------------------------------ #
    # membership (fanned out: every shard converts the same failure)
    # ------------------------------------------------------------------ #

    def crash_replica(self, replica_id: int, *, notify: bool = True) -> None:
        """Halt replica *replica_id* in every shard group.

        Each shard sequences its own ``HostFailed`` carrying its
        ``shard_info``, so the failure tuple lands exactly once per space
        globally while every shard still drops the dead origin's parked
        statements at an ordered point.
        """
        for group in self.shard_groups:
            group.crash_replica(replica_id, notify=notify)

    def recover_replica(self, replica_id: int, *, timeout: float = 30.0) -> None:
        """Restart a halted replica in every shard and transfer state into it."""
        for group in self.shard_groups:
            group.recover_replica(replica_id, timeout=timeout)

    def inject_failure(self, host_id: int) -> None:
        """Deposit a failure tuple for a *logical* host (worker) id."""
        for group in self.shard_groups:
            group.inject_failure(host_id)

    # ------------------------------------------------------------------ #
    # durability (fanned out: every shard compacts/reports its journal)
    # ------------------------------------------------------------------ #

    def compact_journal(self, *, timeout: float = 30.0) -> list[int | None]:
        """Compact every shard's journal; per-shard covered slots."""
        return [g.compact_journal(timeout=timeout) for g in self.shard_groups]

    def journal_status(self) -> list[dict[str, Any]]:
        """Per-shard journal status (empty when not durable)."""
        statuses = []
        for g in self.shard_groups:
            st = g.journal_status()
            if st is not None:
                st["shard"] = g.name or "group"
                statuses.append(st)
        return statuses

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def query(
        self,
        replica_id: int,
        what: str,
        arg: Any = None,
        timeout: float = 30.0,
        *,
        shard: int = 0,
    ) -> Any:
        """In-band query against one shard's replica (default shard 0),
        answered after all previously sequenced commands."""
        return self.shard_groups[shard].query(replica_id, what, arg, timeout=timeout)

    def quiesce(self, timeout: float = 30.0) -> None:
        """Wait until every live replica has applied every broadcast."""
        for group in self.shard_groups:
            group.quiesce(timeout=timeout)

    def fingerprints(self) -> list[int]:
        """One combined fingerprint per replica index live in every shard.

        A replica's combined print hashes the tuple of its per-shard
        state-machine fingerprints, so two replica indices agree exactly
        when they agree shard-by-shard — the convergence assertion the
        contract tests make is preserved verbatim.
        """
        if self.n_shards == 1:
            return self.group.fingerprints()
        prints: list[int] = []
        for i in range(self.group.n_replicas):
            if not all(g.alive[i] for g in self.shard_groups):
                continue
            parts: list[int] = []
            dead_race = False
            for g in self.shard_groups:
                try:
                    parts.append(g.query(i, "fingerprint"))
                except TimeoutError_:
                    if g.alive[i]:
                        raise
                    dead_race = True
                    break
            if not dead_race:
                prints.append(stable_hash(tuple(parts)))
        return prints

    def converged(self) -> bool:
        return len(set(self.fingerprints())) <= 1

    def space_size(self, handle: TSHandle) -> int:
        return sum(group.space_size(handle) for group in self.shard_groups)

    def metrics_snapshot(self) -> dict[str, Any]:
        """Merged instruments, plus per-shard sub-snapshots when sharded."""
        self._sample_plans(self.metrics)
        if self.n_shards == 1:
            return self.group.metrics_snapshot()
        # each group's snapshot refreshes its own backpressure gauges
        # before the merged view is assembled
        per_shard = {g.name: g.metrics_snapshot() for g in self.shard_groups}
        snap = merged([g.metrics for g in self.shard_groups]).snapshot()
        snap["shards"] = per_shard
        return snap

    # ------------------------------------------------------------------ #
    # continuous profiling
    # ------------------------------------------------------------------ #

    def start_profiling(self, hz: float = DEFAULT_HZ) -> None:
        """Begin continuous sampling of the runtime at *hz* (opt-in).

        One process-wide local sampler covers every shard's registered
        roles (sequencers, journals, monitors, replica threads — all
        shard-qualified, "shard0/sequencer", …) plus client threads by
        name, while each shard group drives its own replica-process
        samplers over the in-band query lane, incarnation-fenced: a
        replica SIGKILLed mid-profile just drops out of the merge, and a
        shard losing one affects only its own remote stacks.  See
        :mod:`repro.obs.profile`.
        """
        if self._profiler is None:
            self._profiler = SamplingProfiler(hz=hz).start()
        for group in self.shard_groups:
            group.start_profiling(hz)

    def stop_profiling(self) -> dict[str, int]:
        """Stop sampling everywhere; return folded stacks (``role;frame;... -> n``)
        merged across all shards."""
        folded: dict[str, int] = {}
        prof = self._profiler
        self._profiler = None
        if prof is not None:
            folded = prof.stop()
        for group in self.shard_groups:
            folded = merge_folded(folded, group.stop_profiling())
        return folded

    def introspection_snapshot(self) -> dict[str, Any]:
        """One live-state image across shards (shape of ``empty_snapshot``).

        Sharded deployments add two things to the uniform shape: every
        replica row carries a ``shard`` name, and a top-level ``shards``
        list reports per-shard occupancy (live replicas, applied head,
        pending depth, tuples held) plus the occupancy ``skew`` —
        max-shard tuples over mean-shard tuples, 1.0 meaning the
        partitioner is spreading content evenly.
        """
        backend = type(self).__name__
        if self.n_shards == 1:
            return self.group.introspection_snapshot(backend)
        from repro.obs.inspect import empty_snapshot

        out = empty_snapshot(backend)
        sm_out = out["sm"]
        shard_rows: list[dict[str, Any]] = []
        spaces_by_id: dict[int, dict[str, Any]] = {}
        for group in self.shard_groups:
            snap = group.introspection_snapshot(backend)
            for row in snap["replicas"]:
                row = dict(row)
                row["shard"] = group.name
                out["replicas"].append(row)
            sm = snap.get("sm", {})
            sm_out["applied"] += sm.get("applied", 0)
            sm_out["waiters"].extend(sm.get("waiters", []))
            for key, age in sm.get("last_out_age", {}).items():
                prev = sm_out["last_out_age"].get(key)
                if prev is None or age < prev:
                    sm_out["last_out_age"][key] = age
            tuples_here = 0
            for sp in sm.get("spaces", []):
                tuples_here += sp.get("tuples", 0)
                agg = spaces_by_id.get(sp["id"])
                if agg is None:
                    spaces_by_id[sp["id"]] = dict(sp)
                else:
                    for field in ("tuples", "bytes", "buckets"):
                        agg[field] = agg.get(field, 0) + sp.get(field, 0)
                    # the hottest single bucket anywhere, not a sum — the
                    # skew it feeds should read ~1.0 for balanced content
                    agg["max_bucket"] = max(
                        agg.get("max_bucket", 0), sp.get("max_bucket", 0)
                    )
            applied_counts = [
                r["applied"] for r in snap["replicas"] if r["applied"] is not None
            ]
            shard_rows.append(
                {
                    "shard": group.name,
                    "live": sum(1 for r in snap["replicas"] if r["alive"]),
                    "replicas": group.n_replicas,
                    "applied": max(applied_counts) if applied_counts else 0,
                    "pending": snap.get("pending", 0),
                    "tuples": tuples_here,
                    "waiters": len(sm.get("waiters", [])),
                }
            )
            out["pending"] += snap.get("pending", 0)
        for sid in sorted(spaces_by_id):
            agg = spaces_by_id[sid]
            mean_bucket = (
                agg["tuples"] / agg["buckets"] if agg.get("buckets") else 0.0
            )
            agg["skew"] = (
                agg.get("max_bucket", 0) / mean_bucket if mean_bucket else 0.0
            )
            sm_out["spaces"].append(agg)
        totals = [row["tuples"] for row in shard_rows]
        mean = sum(totals) / len(totals) if totals else 0.0
        for row in shard_rows:
            row["skew"] = (row["tuples"] / mean) if mean else 0.0
        out["shards"] = shard_rows
        return out

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        super().shutdown()
        if self._profiler is not None:
            self._profiler.stop()
            self._profiler = None
        for group in self.shard_groups:
            group.shutdown()

"""Every call the suite makes that is not on ``BaseRuntime``.

The workloads speak ``out``/``in_``/``rd``/``inp``/``rdp``/``execute``;
everything else they need from a runtime goes through this file, so a
refactor of the runtimes has one place to read what it must keep working.
``LocalRuntime`` has no pipeline to post into or drain, so the adapters
degrade to the blocking equivalent there.
"""

from __future__ import annotations

from typing import Any

from repro import AGS, LocalRuntime


def post_ags(rt: Any, ags: AGS) -> None:
    """Pipelined submit: sequence *ags* without waiting for its completion."""
    if isinstance(rt, LocalRuntime):
        rt.execute(ags)
    else:
        rt.sharded.post_ags(ags)


def quiesce(rt: Any) -> None:
    """Return once every replica has applied everything posted so far."""
    if not isinstance(rt, LocalRuntime):
        rt.quiesce()


def metrics_snapshot(rt: Any) -> dict[str, Any]:
    return rt.metrics_snapshot()


def journal_status(rt: Any) -> list[dict[str, Any]]:
    """Per-shard journal status; empty when the runtime is not durable."""
    return rt.journal_status()


def converged(rt: Any) -> bool:
    """All live replicas hold the same state (trivially true locally)."""
    return True if isinstance(rt, LocalRuntime) else rt.converged()


def space_size(rt: Any, ts: Any) -> int:
    return rt.space_size(ts)


def resident_tuples(rt: Any, ts: Any) -> list[tuple]:
    """The fields of every tuple in *ts*, across all shards."""
    if isinstance(rt, LocalRuntime):
        return [t.fields for t in rt.space_tuples(ts)]
    fields: list[tuple] = []
    for shard in range(rt.sharded.n_shards):
        fields.extend(rt.sharded.query(0, "space_tuples", ts, shard=shard))
    return fields


def shutdown(rt: Any) -> None:
    if not isinstance(rt, LocalRuntime):
        rt.shutdown()

"""Stage-level latency attribution: where does a millisecond go?

The metrics layer (PR 1) times three coarse points of the replication
pipeline (submit→order, order→apply, end-to-end).  That answers *how
slow* but not *where*: an AGS's end-to-end time is spent in distinct
stages — waiting in the client submit queue for the sequencer, the
broadcast itself, sitting in a replica's inbox FIFO, the state-machine
apply, and the reply hop that wakes the client — and optimizing the hot
path (ROADMAP item 3) needs the budget decomposed per stage, the way the
LLFT paper (PAPERS.md) decomposes its latency budget.

Attribution is **always on and sampled**, not switched: the sequencer
stamps the first batch it ships and every :data:`STAGE_SAMPLE_EVERY`-th
after it (``("BATCH", cmds, t_send)`` — ``t_send`` is ``None`` on the
unsampled batches, which cost nothing extra), and every replica answers
a stamped batch with one small ``("STAGES", …)`` emission carrying its
inbox delay, its mean per-command apply time and its emit stamp — from
which the group records four histogram families:

========================  ==================================================
``stage_broadcast``       transport.broadcast() duration per batch
``stage_replica_queue``   broadcast → the replica dequeues the batch
``stage_apply``           mean state-machine apply time per command (one
                          sample per batch per replica)
``stage_reply``           replica emit → the group's collector receives it
                          (the wake/reply hop)
========================  ==================================================

``submit_to_order`` (which already measures client queue + sequencing)
and ``ags_e2e`` complete the budget.  A durable group adds
``journal_fsync`` — each group-commit fsync of the journal thread.  It
runs *beside* the pipeline (broadcast, inbox and apply overlap it), so
its row is shown only when it has samples and is never summed into the
attributed total; the part of it a command actually waits out is
``journal_commit_wait``.  All stamps are ``time.monotonic``
— system-wide on Linux, so replica-process stamps subtract cleanly from
group-side stamps.

:func:`stage_budget` turns a metrics snapshot into the per-stage budget
table and :func:`render_budget` is the ``repro.cli top`` panel; the
histograms export as ``linda_stage_*_seconds`` Prometheus families
through the existing :func:`repro.obs.inspect.to_prometheus` path.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["STAGE_SAMPLE_EVERY", "render_budget", "stage_budget"]

#: One batch in this many carries a broadcast stamp (the first always
#: does).  A sampled batch costs two clock reads on the sequencer and one
#: STAGES answer per replica; at 1 in 64 that is noise on every workload,
#: and a run of a few thousand batches still gives each stage a mean and
#: a p95 worth reading.
STAGE_SAMPLE_EVERY = 64

#: The pipeline budget, in pipeline order: (display label, histogram
#: name).  Batch-granularity stages still attribute per command — every
#: command in a batch experiences the whole batch's broadcast and inbox
#: wait, so the batch-level sample IS its per-command estimate.
BUDGET_STAGES: list[tuple[str, str]] = [
    ("client queue + sequence", "submit_to_order"),
    ("broadcast", "stage_broadcast"),
    ("replica inbox", "stage_replica_queue"),
    ("apply", "stage_apply"),
    ("wake/reply", "stage_reply"),
    ("journal fsync", "journal_fsync"),
]

#: Stages that run beside the pipeline rather than in it: a row only
#: when there are samples, and no part of the attributed sum.
_BESIDE_PATH = frozenset({"journal_fsync"})


# ---------------------------------------------------------------------- #
# the budget table
# ---------------------------------------------------------------------- #


def stage_budget(metrics: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Decompose the e2e mean into per-stage rows from a metrics snapshot.

    Returns one row per stage with samples (``n``), ``mean``/``p95``
    seconds and ``share`` — the stage mean as a fraction of the e2e mean
    (the "where does a millisecond go" column).  Stages overlap-free in
    the happy path sum to roughly e2e; what they do not cover (scheduler
    wakeups, dedup, Python overhead) lands in the ``unattributed`` row,
    so the table never silently over- or under-claims.
    """
    hists = metrics.get("histograms", {})
    e2e = hists.get("ags_e2e", {})
    e2e_mean = e2e.get("mean", 0.0)
    rows: list[dict[str, Any]] = []
    attributed = 0.0
    for label, hist_name in BUDGET_STAGES:
        h = hists.get(hist_name, {})
        mean = h.get("mean", 0.0)
        if hist_name in _BESIDE_PATH:
            if not h.get("count"):
                continue
        else:
            attributed += mean
        rows.append(
            {
                "stage": label,
                "metric": hist_name,
                "n": h.get("count", 0),
                "mean_s": mean,
                "p95_s": h.get("p95", 0.0),
                "share": (mean / e2e_mean) if e2e_mean else 0.0,
            }
        )
    rows.append(
        {
            "stage": "unattributed",
            "metric": None,
            "n": e2e.get("count", 0),
            "mean_s": max(0.0, e2e_mean - attributed),
            "p95_s": 0.0,
            "share": (
                max(0.0, e2e_mean - attributed) / e2e_mean if e2e_mean else 0.0
            ),
        }
    )
    rows.append(
        {
            "stage": "end-to-end",
            "metric": "ags_e2e",
            "n": e2e.get("count", 0),
            "mean_s": e2e_mean,
            "p95_s": e2e.get("p95", 0.0),
            "share": 1.0 if e2e_mean else 0.0,
        }
    )
    return rows


def _fmt_us(seconds: float) -> str:
    if seconds >= 0.1:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_budget(metrics: Mapping[str, Any]) -> str:
    """The terminal "WHERE DOES A MILLISECOND GO" panel (pure string).

    Empty string when no stage histogram has samples — callers can
    unconditionally append the panel and get nothing on runtimes with
    no batch pipeline (``LocalRuntime``).
    """
    rows = stage_budget(metrics)
    if not any(r["n"] and r["metric"] and r["metric"].startswith("stage_") for r in rows):
        return ""
    lines = [
        "WHERE DOES A MILLISECOND GO (per-AGS pipeline budget)",
        f"{'STAGE':<24} {'N':>8} {'MEAN':>9} {'P95':>9} {'SHARE':>7}",
    ]
    for r in rows:
        bar = "#" * int(round(20 * min(1.0, r["share"])))
        lines.append(
            f"{r['stage']:<24} {r['n']:>8} {_fmt_us(r['mean_s']):>9} "
            f"{_fmt_us(r['p95_s']):>9} {100 * r['share']:>6.1f}% {bar}"
        )
    return "\n".join(lines)

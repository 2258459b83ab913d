"""Live tuple-space introspection: "why is it stuck, where is it hot".

Metrics (PR 1) aggregate latencies; traces (PR 2) replay events after the
fact.  Neither answers the operator's *state* questions: which templates
are hot, which processes sit blocked on which anti-tuples, whether a
replica lags, why a bag-of-tasks run has silently wedged.  Buravlev et
al. (PAPERS.md) show match-path contention and data distribution dominate
tuple-space performance, and De Florio's fault-tolerance work argues the
key runtime recovery signal is a *stalled guard* — both are state, not
event, observations.  This module is that layer:

- :func:`enable_introspection` — one process-wide switch.  Off (default)
  the match path pays a single ``is not None`` branch and the apply path
  one module-attribute check; on, every :class:`~repro.core.matching.
  TupleStore` counts match attempts/hits per canonical template and every
  :class:`~repro.core.statemachine.TSStateMachine` stamps deposit traffic
  for the stall detector.  The switch exports ``REPRO_INTROSPECT=1`` so
  replica processes spawned afterwards come up instrumented too;

- **snapshots** — every runtime exposes ``introspection_snapshot()``
  returning one uniform plain-data shape (see :func:`empty_snapshot`),
  assembled from ``TSStateMachine.introspection()`` images that ride the
  existing in-band query path on the replicated backends — so a snapshot
  reflects the exact state after everything sequenced before it;

- :func:`detect_stalls` — flags waiters blocked beyond a threshold with
  no recent matching ``out`` traffic on their templates ("suspected
  deadlock/starvation"); a blocked waiter whose template IS being fed is
  contention, not a stall, and is not flagged;

- :func:`to_prometheus` — the merged snapshot (plus the runtime's metrics
  registry) in the Prometheus text exposition format;

- :func:`render_top` — the terminal dashboard behind
  ``python -m repro.cli top``.

Ages, not absolute stamps: every snapshot reports ``blocked_for`` and
``last_out_age`` in seconds relative to the producing machine's clock, so
images from replica OS processes and the virtual-time simulator compare
without clock-domain conversions.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core import matching as _matching

from .envflags import EnvFlag

__all__ = [
    "detect_stalls",
    "disable_introspection",
    "empty_snapshot",
    "enable_introspection",
    "introspection_enabled",
    "render_top",
    "to_prometheus",
]

_FLAG = EnvFlag("REPRO_INTROSPECT")


def enable_introspection() -> None:
    """Turn on per-template match stats and out-traffic stamps.

    Takes effect for tuple stores and state machines created *after* the
    call — enable before constructing the runtime.  Exported through the
    environment so replica processes spawned later inherit the setting.
    """
    _matching.STATS_ENABLED = True
    _FLAG.enable()


def disable_introspection() -> None:
    """Revert :func:`enable_introspection` (existing stores keep counting)."""
    _matching.STATS_ENABLED = False
    _FLAG.disable()


def introspection_enabled() -> bool:
    return _matching.STATS_ENABLED


def empty_snapshot(backend: str) -> dict[str, Any]:
    """The uniform introspection-snapshot shape every backend fills in."""
    return {
        "backend": backend,
        "sm": {"applied": 0, "waiters": [], "spaces": [], "last_out_age": {}},
        "replicas": [],
        "pending": 0,
        "wal_bytes": None,
    }


# --------------------------------------------------------------------------- #
# stall detection
# --------------------------------------------------------------------------- #


def _key_matches(
    waiter_key: tuple[Any, ...], out_key: tuple[Any, ...]
) -> bool:
    """Does a waiter's (space, first, arity) key match a deposit's?

    The waiter side may carry wildcards: ``None`` for a space handle only
    known at execution time, ``"*"`` for a non-constant first field.
    """
    w_ts, w_first, w_arity = waiter_key
    o_ts, o_first, o_arity = out_key
    if w_arity != o_arity:
        return False
    if w_ts is not None and w_ts != o_ts:
        return False
    return w_first == "*" or w_first == o_first


def detect_stalls(
    snapshot: Mapping[str, Any], threshold: float
) -> list[dict[str, Any]]:
    """Waiters blocked ≥ *threshold* s with no recent matching deposits.

    A waiter is **stalled** when every template it is parked on has seen
    no matching ``out``/``move``/``copy`` deposit within the last
    *threshold* seconds — nobody is feeding it, so it will not wake
    without intervention (suspected deadlock or starvation, De Florio's
    recovery trigger).  Requires introspection to have been enabled while
    the traffic happened; with stats off, ``last_out_age`` is empty and
    any waiter past the threshold is flagged (conservative).
    """
    sm = snapshot.get("sm", {})
    last_out = {
        tuple(k): age for k, age in sm.get("last_out_age", {}).items()
    }
    stalls: list[dict[str, Any]] = []
    for w in sm.get("waiters", []):
        if w["blocked_for"] < threshold:
            continue
        fed = False
        for entry in w.get("waiting_on", []):
            key = tuple(entry["key"])
            for out_key, age in last_out.items():
                if age <= threshold and _key_matches(key, out_key):
                    fed = True
                    break
            if fed:
                break
        if not fed:
            templates = [
                f"{e['op']} {e['space']} {e['template']}"
                for e in w.get("waiting_on", [])
            ]
            stalls.append(
                {
                    **{k: w[k] for k in (
                        "request_id", "origin_host", "process_id", "blocked_for"
                    )},
                    "templates": templates,
                    "reason": (
                        "suspected deadlock/starvation: blocked "
                        f"{w['blocked_for']:.2f}s with no matching out "
                        f"traffic in the last {threshold:g}s"
                    ),
                }
            )
    return stalls


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(**labels: Any) -> str:
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels.items())
    return f"{{{inner}}}"


def _histogram_lines(name: str, snap: Mapping[str, Any]) -> list[str]:
    """One metrics-layer histogram as a Prometheus histogram family."""
    base = f"linda_{name}_seconds"
    lines = [
        f"# HELP {base} {name} latency histogram",
        f"# TYPE {base} histogram",
    ]
    bounds: list[tuple[float, int]] = []
    overflow = 0
    for bucket, n in snap.get("buckets", {}).items():
        if bucket == "overflow":
            overflow = n
        else:
            bounds.append((float(bucket[len("le_"):]), n))
    bounds.sort()
    cum = 0
    for le, n in bounds:
        cum += n
        lines.append(f'{base}_bucket{{le="{le:g}"}} {cum}')
    lines.append(f'{base}_bucket{{le="+Inf"}} {cum + overflow}')
    lines.append(f"{base}_sum {snap.get('sum', 0.0):.9g}")
    lines.append(f"{base}_count {snap.get('count', 0)}")
    # resolved quantiles as a companion gauge family — a Prometheus
    # histogram type carries no quantile samples, and scrapers without
    # histogram_quantile() (and humans with curl) want the numbers direct
    quantiles = [
        (q, snap.get(key))
        for q, key in (
            ("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"), ("0.999", "p999")
        )
        if snap.get(key) is not None
    ]
    if quantiles:
        lines.append(f"# HELP {base}_quantile resolved {name} quantiles")
        lines.append(f"# TYPE {base}_quantile gauge")
        for q, value in quantiles:
            lines.append(f'{base}_quantile{{quantile="{q}"}} {value:.9g}')
    return lines


def _window_lines(windows: Mapping[str, Any]) -> list[str]:
    """Trailing-window quantiles and rates as labelled gauge families."""
    lines: list[str] = []
    whists = windows.get("histograms", {})
    if whists:
        lines.append(
            "# HELP linda_window_latency_seconds "
            "windowed latency quantiles (trailing windows)"
        )
        lines.append("# TYPE linda_window_latency_seconds gauge")
        for name, per_window in whists.items():
            for label, w in per_window.items():
                for q, key in (
                    ("0.5", "p50"), ("0.99", "p99"), ("0.999", "p999")
                ):
                    lines.append(
                        f"linda_window_latency_seconds"
                        f"{_labels(metric=name, window=label, quantile=q)} "
                        f"{w[key]:.9g}"
                    )
    rate_sources: list[tuple[str, str, float]] = []
    for name, per_window in whists.items():
        for label, w in per_window.items():
            rate_sources.append((name, label, w["rate"]))
    for name, per_window in windows.get("rates", {}).items():
        for label, w in per_window.items():
            rate_sources.append((name, label, w["rate"]))
    if rate_sources:
        lines.append(
            "# HELP linda_window_rate per-second op rate (trailing windows)"
        )
        lines.append("# TYPE linda_window_rate gauge")
        for name, label, rate in rate_sources:
            lines.append(
                f"linda_window_rate{_labels(metric=name, window=label)} "
                f"{rate:.9g}"
            )
    return lines


def to_prometheus(
    snapshot: Mapping[str, Any],
    metrics: Mapping[str, Any] | None = None,
    stalls: list[dict[str, Any]] | None = None,
    alerts: list[dict[str, Any]] | None = None,
) -> str:
    """Render an introspection snapshot in Prometheus text format.

    *metrics* is an optional :meth:`~repro.obs.metrics.MetricsRegistry.
    snapshot` merged in as counter/histogram families; *stalls* an
    optional :func:`detect_stalls` result exported as a gauge; *alerts*
    an optional :meth:`~repro.obs.slo.AlertEngine.snapshot` exported as
    per-rule state gauges plus the firing total.
    """
    sm = snapshot.get("sm", {})
    lines: list[str] = []

    def family(name: str, mtype: str, help_: str) -> None:
        lines.append(f"# HELP linda_{name} {help_}")
        lines.append(f"# TYPE linda_{name} {mtype}")

    family("space_tuples", "gauge", "live tuples per space")
    for sp in sm.get("spaces", []):
        label = _labels(space=f"{sp['name']}#{sp['id']}")
        lines.append(f"linda_space_tuples{label} {sp['tuples']}")
    family("space_bytes", "gauge", "approximate bytes of tuple data per space")
    for sp in sm.get("spaces", []):
        label = _labels(space=f"{sp['name']}#{sp['id']}")
        lines.append(f"linda_space_bytes{label} {sp['bytes']}")
    family("space_bucket_skew", "gauge",
           "max/mean signature-bucket occupancy (1.0 = balanced)")
    for sp in sm.get("spaces", []):
        label = _labels(space=f"{sp['name']}#{sp['id']}")
        lines.append(f"linda_space_bucket_skew{label} {sp['skew']:.6g}")

    family("template_match_attempts_total", "counter",
           "match attempts per canonical template")
    family_hits = []
    for sp in sm.get("spaces", []):
        space = f"{sp['name']}#{sp['id']}"
        for t in sp.get("templates", []):
            label = _labels(space=space, template=t["template"])
            lines.append(
                f"linda_template_match_attempts_total{label} {t['attempts']}"
            )
            family_hits.append(
                f"linda_template_match_hits_total{label} {t['hits']}"
            )
    family("template_match_hits_total", "counter",
           "successful matches per canonical template")
    lines.extend(family_hits)

    waiters = sm.get("waiters", [])
    family("waiters", "gauge", "statements parked on a blocking guard")
    lines.append(f"linda_waiters {len(waiters)}")
    family("waiter_blocked_seconds", "gauge", "age of each parked statement")
    for w in waiters:
        templates = ";".join(
            e["template"] for e in w.get("waiting_on", [])
        ) or "?"
        label = _labels(
            request_id=w["request_id"],
            process=w["process_id"],
            template=templates,
        )
        lines.append(
            f"linda_waiter_blocked_seconds{label} {w['blocked_for']:.6f}"
        )
    if stalls is not None:
        family("stalled_waiters", "gauge",
               "waiters flagged by the stall detector")
        lines.append(f"linda_stalled_waiters {len(stalls)}")

    replicas = snapshot.get("replicas", [])

    def replica_labels(r: Mapping[str, Any]) -> str:
        # sharded snapshots tag each replica row with its shard group, so
        # the same replica index in different shards stays distinguishable
        if "shard" in r:
            return _labels(replica=r["id"], shard=r["shard"])
        return _labels(replica=r["id"])

    family("replica_alive", "gauge", "1 when the replica is live")
    for r in replicas:
        lines.append(
            f"linda_replica_alive{replica_labels(r)} "
            f"{1 if r.get('alive') else 0}"
        )
    family("replica_applied_total", "counter", "commands applied per replica")
    for r in replicas:
        if r.get("applied") is not None:
            lines.append(
                f"linda_replica_applied_total{replica_labels(r)} "
                f"{r['applied']}"
            )
    family("replica_lag", "gauge",
           "commands behind the most advanced live replica")
    for r in replicas:
        if r.get("lag") is not None:
            lines.append(
                f"linda_replica_lag{replica_labels(r)} {r['lag']}"
            )

    shard_rows = snapshot.get("shards", [])
    if shard_rows:
        family("shard_tuples", "gauge", "live tuples held per shard group")
        for s in shard_rows:
            lines.append(
                f"linda_shard_tuples{_labels(shard=s['shard'])} {s['tuples']}"
            )
        family("shard_applied_total", "counter",
               "commands applied per shard group (max over its replicas)")
        for s in shard_rows:
            lines.append(
                f"linda_shard_applied_total{_labels(shard=s['shard'])} "
                f"{s['applied']}"
            )
        family("shard_skew", "gauge",
               "shard tuples over mean shard tuples (1.0 = balanced)")
        for s in shard_rows:
            lines.append(
                f"linda_shard_skew{_labels(shard=s['shard'])} {s['skew']:.6g}"
            )

    family("pending_commands", "gauge", "submissions queued at the sequencer")
    lines.append(f"linda_pending_commands {snapshot.get('pending', 0)}")
    if snapshot.get("wal_bytes") is not None:
        family("wal_bytes", "gauge", "write-ahead log size on disk")
        lines.append(f"linda_wal_bytes {snapshot['wal_bytes']}")

    if metrics:
        for name, value in metrics.get("counters", {}).items():
            family(f"{name}_total", "counter", f"{name} counter")
            lines.append(f"linda_{name}_total {value}")
        for name, value in metrics.get("gauges", {}).items():
            family(name, "gauge", f"{name} gauge")
            lines.append(f"linda_{name} {value:g}")
        for name, h in metrics.get("histograms", {}).items():
            # stage histograms export as linda_stage_*_seconds — the
            # Prometheus side of the per-AGS pipeline budget
            lines.extend(_histogram_lines(name, h))
        windows = metrics.get("windows")
        if windows:
            lines.extend(_window_lines(windows))

    if alerts is not None:
        firing = [a for a in alerts if a.get("firing")]
        # only synthesize the total when the engine's own gauge is not
        # already in the metrics snapshot (avoid a duplicate family)
        if not (metrics and "alerts_firing" in metrics.get("gauges", {})):
            family("alerts_firing", "gauge", "alert rules currently firing")
            lines.append(f"linda_alerts_firing {len(firing)}")
        family("alert_state", "gauge", "1 when the alert rule is firing")
        for a in alerts:
            label = _labels(rule=a["rule"], severity=a["severity"])
            lines.append(
                f"linda_alert_state{label} {1 if a.get('firing') else 0}"
            )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# the `linda top` terminal dashboard
# --------------------------------------------------------------------------- #


def _fmt_bytes(n: int | None) -> str:
    if n is None:
        return "-"
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GB"  # pragma: no cover - unreachable


def _fmt_age(seconds: float) -> str:
    if seconds < 10:
        return f"{seconds:.2f}s"
    if seconds < 120:
        return f"{seconds:.0f}s"
    return f"{seconds / 60:.1f}m"

#: Rows per table in one :func:`render_top` frame.
MAX_ROWS = 10


def render_top(
    snapshot: Mapping[str, Any],
    metrics: Mapping[str, Any] | None = None,
    stalls: list[dict[str, Any]] | None = None,
    alerts: list[dict[str, Any]] | None = None,
) -> str:
    """Render one dashboard frame (pure string; the CLI owns the refresh).

    Each table shows at most :data:`MAX_ROWS` rows."""
    sm = snapshot.get("sm", {})
    waiters = sm.get("waiters", [])
    stalled_ids = {s["request_id"] for s in (stalls or [])}
    firing = [a for a in (alerts or []) if a.get("firing")]
    lines: list[str] = []
    head = (
        f"linda top — backend={snapshot.get('backend', '?')}  "
        f"applied={sm.get('applied', 0)}  "
        f"pending={snapshot.get('pending', 0)}  "
        f"waiters={len(waiters)}  stalled={len(stalled_ids)}"
    )
    if snapshot.get("wal_bytes") is not None:
        head += f"  wal={_fmt_bytes(snapshot['wal_bytes'])}"
    if alerts is not None:
        head += f"  alerts={len(firing)}"
    lines.append(head)

    if firing:
        lines.append("")
        lines.append(f"{'ALERT':<22} {'SEV':<9} {'FOR':>8}  DETAIL")
        for a in firing[:MAX_ROWS]:
            lines.append(
                f"{a['rule']:<22} {a['severity']:<9} "
                f"{_fmt_age(a.get('for', 0.0)):>8}  {a.get('detail', '')}"
            )

    shard_rows = snapshot.get("shards", [])
    if shard_rows:
        lines.append("")
        lines.append(
            f"{'SHARD':<8} {'LIVE':>6} {'APPLIED':>9} {'PENDING':>8} "
            f"{'TUPLES':>8} {'WAITERS':>8} {'SKEW':>6}"
        )
        for s in shard_rows:
            lines.append(
                f"{s['shard']:<8} {s['live']}/{s['replicas']:<4} "
                f"{s['applied']:>9} {s['pending']:>8} {s['tuples']:>8} "
                f"{s['waiters']:>8} {s['skew']:>6.2f}"
            )

    replicas = snapshot.get("replicas", [])
    if replicas:
        sharded = any("shard" in r for r in replicas)
        lines.append("")
        shard_col = f"{'SHARD':<8} " if sharded else ""
        lines.append(
            f"{shard_col}{'REPLICA':>8} {'ALIVE':>6} {'APPLIED':>9} {'LAG':>6}"
        )
        for r in replicas:
            prefix = f"{r.get('shard', ''):<8} " if sharded else ""
            lines.append(
                f"{prefix}{r['id']:>8} {('yes' if r.get('alive') else 'NO'):>6} "
                f"{(r['applied'] if r.get('applied') is not None else '-'):>9} "
                f"{(r['lag'] if r.get('lag') is not None else '-'):>6}"
            )

    spaces = sm.get("spaces", [])
    if spaces:
        lines.append("")
        lines.append(
            f"{'SPACE':<16} {'TUPLES':>8} {'BYTES':>9} {'BUCKETS':>8} "
            f"{'MAXBKT':>7} {'SKEW':>6}"
        )
        for sp in spaces[:MAX_ROWS]:
            lines.append(
                f"{sp['name'] + '#' + str(sp['id']):<16} {sp['tuples']:>8} "
                f"{_fmt_bytes(sp['bytes']):>9} {sp['buckets']:>8} "
                f"{sp['max_bucket']:>7} {sp['skew']:>6.2f}"
            )

    hot: list[tuple[str, dict[str, Any]]] = []
    for sp in spaces:
        for t in sp.get("templates", []):
            hot.append((f"{sp['name']}#{sp['id']}", t))
    hot.sort(key=lambda pair: -pair[1]["attempts"])
    if hot:
        lines.append("")
        lines.append(
            f"{'HOT TEMPLATE':<40} {'SPACE':<12} {'ATTEMPTS':>9} "
            f"{'HITS':>8} {'HIT%':>6}"
        )
        for space, t in hot[:MAX_ROWS]:
            pct = 100.0 * t["hits"] / t["attempts"] if t["attempts"] else 0.0
            lines.append(
                f"{t['template']:<40.40} {space:<12} {t['attempts']:>9} "
                f"{t['hits']:>8} {pct:>5.1f}%"
            )

    if waiters:
        lines.append("")
        lines.append(
            f"{'WAITER':>8} {'PROC':>6} {'HOST':>6} {'BLOCKED':>9}  BLOCKED ON"
        )
        for w in sorted(waiters, key=lambda w: -w["blocked_for"])[:MAX_ROWS]:
            what = "; ".join(
                f"{e['op']} {e['space']} {e['template']}"
                for e in w.get("waiting_on", [])
            ) or "?"
            flag = "  ** STALLED **" if w["request_id"] in stalled_ids else ""
            lines.append(
                f"{w['request_id']:>8} {w['process_id']:>6} "
                f"{w['origin_host']:>6} {_fmt_age(w['blocked_for']):>9}  "
                f"{what}{flag}"
            )
    else:
        lines.append("")
        lines.append("(no blocked statements)")

    if stalls:
        lines.append("")
        for s in stalls[:MAX_ROWS]:
            lines.append(f"!! waiter #{s['request_id']}: {s['reason']}")

    if metrics:
        hists = metrics.get("histograms", {})
        shown = [
            (name, h)
            for name, h in sorted(hists.items())
            if h.get("count") and name in (
                "ags_e2e", "submit_to_order", "order_to_apply", "batch_size"
            )
        ]
        if shown:
            lines.append("")
            lines.append(
                f"{'LATENCY':<16} {'N':>8} {'MEAN':>10} {'P50':>10} "
                f"{'P95':>10} {'P99':>10} {'P999':>10}"
            )
            for name, h in shown:
                lines.append(
                    f"{name:<16} {h['count']:>8} {h['mean']:>10.6f} "
                    f"{h['p50']:>10.6f} {h['p95']:>10.6f} {h['p99']:>10.6f} "
                    f"{h.get('p999', h['p99']):>10.6f}"
                )
        # the "now" view: windowed quantiles/rates next to the cumulative
        # table, so a load change shows up within one window
        whists = (metrics.get("windows") or {}).get("histograms", {})
        wshown = [
            (name, per_window)
            for name, per_window in sorted(whists.items())
            if any(w["count"] for w in per_window.values())
        ]
        if wshown:
            lines.append("")
            lines.append(
                f"{'WINDOWED':<16} {'WIN':>5} {'N':>8} {'RATE/S':>8} "
                f"{'P50':>10} {'P99':>10} {'P999':>10}"
            )
            for name, per_window in wshown[:MAX_ROWS]:
                for label, w in per_window.items():
                    if not w["count"]:
                        continue
                    lines.append(
                        f"{name:<16} {label:>5} {w['count']:>8} "
                        f"{w['rate']:>8.1f} {w['p50']:>10.6f} "
                        f"{w['p99']:>10.6f} {w['p999']:>10.6f}"
                    )
        from repro.obs.stages import render_budget

        budget = render_budget(metrics)
        if budget:
            lines.append("")
            lines.append(budget)
    return "\n".join(lines)

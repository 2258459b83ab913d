"""Declarative SLO alerting: a machine-checkable notion of "healthy".

Dashboards require a human watching; the telemetry plane also needs the
system to *judge itself* — LLFT's premise is that failover is only
trustworthy when health is continuously and automatically assessed.
This module closes that loop over the signals the repo already has:

- :class:`AlertRule` — a named predicate over one evaluation context
  (introspection snapshot + metrics snapshot + stall list).  The check
  returns ``(breached, detail)``; everything else — severity, hysteresis
  thresholds, description — is declarative.

- :class:`AlertEngine` — evaluates a rule set at a low frequency (its
  :attr:`~AlertEngine.thread`, a once-a-second
  :class:`~repro.obs.profile.Daemon`, or caller-driven via
  :meth:`evaluate` for tests and the ``cli top`` refresh loop).
  **Hysteresis** keeps it quiet: a rule must breach ``fire_after``
  consecutive evaluations to fire and pass ``resolve_after`` consecutive
  clean ones to resolve, so a single noisy sample neither pages nor
  flaps.  Transitions emit ``alert_fired`` /
  ``alert_resolved`` events into :mod:`repro.obs.events` and the count
  of firing rules is kept in an ``alerts_firing`` gauge (exported as
  ``linda_alerts_firing``).

- :func:`default_rules` — the built-in production rule set: replica
  down, stalled waiters, windowed-p99 SLO burn, read-fallback ratio,
  and sequencer/replica/journal backpressure (``journal_lag``: slots
  written, not yet fsynced).  All of them read *windowed*
  signals where rates matter — a cumulative counter can never resolve,
  which is exactly why every instrument serves a trailing view.

The engine treats the context as plain data (``Mapping``), so it runs
identically against a live runtime, a remote ``/snapshot`` payload, or
a synthetic fixture in tests.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping

from .events import get_log
from .metrics import MetricsRegistry
from .profile import Daemon

__all__ = ["AlertEngine", "AlertRule", "default_rules", "runtime_context"]

Check = Callable[[Mapping[str, Any]], "tuple[bool, str]"]


class AlertRule:
    """One named health predicate with fire/resolve hysteresis settings."""

    __slots__ = ("name", "check", "severity", "fire_after", "resolve_after",
                 "description")

    def __init__(
        self,
        name: str,
        check: Check,
        *,
        severity: str = "warning",
        fire_after: int = 2,
        resolve_after: int = 2,
        description: str = "",
    ):
        if fire_after < 1 or resolve_after < 1:
            raise ValueError("fire_after/resolve_after must be >= 1")
        self.name = name
        self.check = check
        self.severity = severity
        self.fire_after = fire_after
        self.resolve_after = resolve_after
        self.description = description


class _RuleState:
    __slots__ = ("firing", "breaches", "cleans", "detail", "since")

    def __init__(self) -> None:
        self.firing = False
        self.breaches = 0
        self.cleans = 0
        self.detail = ""
        self.since: float | None = None


class AlertEngine:
    """Evaluates alert rules over a context source, with hysteresis.

    *source* is a zero-arg callable returning the evaluation context
    (see :func:`runtime_context`); tests may instead pass a context
    directly to :meth:`evaluate`.  *metrics*, when given, receives the
    ``alerts_firing`` gauge and per-rule state gauges.
    """

    def __init__(
        self,
        source: Callable[[], Mapping[str, Any]] | None = None,
        rules: "list[AlertRule] | None" = None,
        *,
        metrics: MetricsRegistry | None = None,
        events=None,
    ):
        self._source = source
        self.rules: list[AlertRule] = list(rules or [])
        self._metrics = metrics
        self._events = events if events is not None else get_log()
        self._states: dict[str, _RuleState] = {}
        self._lock = threading.Lock()
        #: Evaluates once a second, once started.
        self.thread = Daemon("alert-engine", self._tick, every=1.0)

    # ---------------------------------------------------------------- #
    # evaluation
    # ---------------------------------------------------------------- #

    def evaluate(self, ctx: Mapping[str, Any] | None = None) -> list[dict[str, Any]]:
        """Run every rule once against *ctx* (or the engine's source).

        Returns the post-evaluation alert table (see :meth:`snapshot`).
        """
        if ctx is None:
            if self._source is None:
                raise ValueError("no context given and no source configured")
            ctx = self._source()
        now = time.monotonic()
        transitions: list[tuple[str, AlertRule, str]] = []
        with self._lock:
            for rule in self.rules:
                state = self._states.setdefault(rule.name, _RuleState())
                try:
                    breached, detail = rule.check(ctx)
                except Exception as exc:  # a broken rule must not kill the loop
                    breached, detail = False, f"rule error: {exc!r}"
                if breached:
                    state.breaches += 1
                    state.cleans = 0
                    state.detail = detail
                    if not state.firing and state.breaches >= rule.fire_after:
                        state.firing = True
                        state.since = now
                        transitions.append(("alert_fired", rule, detail))
                else:
                    state.cleans += 1
                    state.breaches = 0
                    if state.firing and state.cleans >= rule.resolve_after:
                        state.firing = False
                        state.since = None
                        transitions.append(("alert_resolved", rule, state.detail))
            firing = sum(1 for s in self._states.values() if s.firing)
        if self._metrics is not None:
            self._metrics.gauge("alerts_firing").set(firing)
        for kind, rule, detail in transitions:
            self._events.emit(
                kind,
                severity=rule.severity if kind == "alert_fired" else "info",
                rule=rule.name,
                detail=detail,
            )
        return self.snapshot()

    def firing(self) -> list[str]:
        """Names of currently firing rules."""
        with self._lock:
            return sorted(n for n, s in self._states.items() if s.firing)

    def has_critical(self) -> bool:
        """True when any firing rule carries critical severity."""
        sev = {r.name: r.severity for r in self.rules}
        with self._lock:
            return any(
                s.firing and sev.get(n) == "critical"
                for n, s in self._states.items()
            )

    def snapshot(self) -> list[dict[str, Any]]:
        """One row per rule: name/severity/firing/detail/firing-for."""
        now = time.monotonic()
        with self._lock:
            rows = []
            for rule in self.rules:
                state = self._states.get(rule.name) or _RuleState()
                rows.append({
                    "rule": rule.name,
                    "severity": rule.severity,
                    "firing": state.firing,
                    "detail": state.detail if state.firing else "",
                    "for": (now - state.since)
                    if state.firing and state.since is not None else 0.0,
                    "description": rule.description,
                })
            return rows

    def _tick(self) -> None:
        try:
            self.evaluate()
        except Exception:  # noqa: BLE001 - the health loop outlives a flaky source
            pass


# --------------------------------------------------------------------------- #
# built-in rule set
# --------------------------------------------------------------------------- #


def _window_hist(metrics: Mapping[str, Any], name: str, window: str):
    return (
        (metrics.get("windows") or {}).get("histograms", {})
        .get(name, {}).get(window)
    )


def _window_rate_count(metrics: Mapping[str, Any], name: str, window: str) -> int:
    entry = (
        (metrics.get("windows") or {}).get("rates", {})
        .get(name, {}).get(window)
    )
    return entry["count"] if entry else 0


def default_rules(
    *,
    p99_slo_s: float = 0.5,
    min_samples: int = 20,
    backpressure_depth: int = 1000,
) -> list[AlertRule]:
    """The built-in production rule set over the standard context shape.

    The latency and fallback rules read the 10 s window; the fallback rule
    fires when more than half of that window's reads fell back.

    Context keys: ``introspection`` (a runtime introspection snapshot),
    ``metrics`` (a registry snapshot, windows included), ``stalls`` (a
    :func:`~repro.obs.inspect.detect_stalls` result).
    """

    def replica_down(ctx: Mapping[str, Any]):
        replicas = (ctx.get("introspection") or {}).get("replicas", [])
        dead = [str(r["id"]) for r in replicas if not r.get("alive")]
        if dead:
            return True, f"replicas down: {', '.join(dead)}"
        return False, ""

    def stall(ctx: Mapping[str, Any]):
        stalls = ctx.get("stalls") or []
        if stalls:
            ids = ", ".join(str(s["request_id"]) for s in stalls[:5])
            return True, f"{len(stalls)} stalled waiter(s): #{ids}"
        return False, ""

    def slo_burn(ctx: Mapping[str, Any]):
        w = _window_hist(ctx.get("metrics") or {}, "ags_e2e", "10s")
        if not w or w["count"] < min_samples:
            return False, ""
        if w["p99"] > p99_slo_s:
            return True, (
                f"ags_e2e p99[10s]={w['p99']:.4f}s over "
                f"objective {p99_slo_s:g}s (n={w['count']})"
            )
        return False, ""

    def fallback(ctx: Mapping[str, Any]):
        metrics = ctx.get("metrics") or {}
        fast = _window_rate_count(metrics, "read_fastpath", "10s")
        fb = _window_rate_count(metrics, "read_fallback", "10s")
        total = fast + fb
        if total < min_samples:
            return False, ""
        ratio = fb / total
        if ratio > 0.5:
            return True, (
                f"read fallback ratio[10s]={ratio:.2f} ({fb}/{total}) over 0.5"
            )
        return False, ""

    def backpressure(ctx: Mapping[str, Any]):
        gauges = (ctx.get("metrics") or {}).get("gauges", {})
        deep = {
            name: gauges[name]
            for name in (
                "sequencer_inbox_depth",
                "replica_inbox_max_depth",
                "journal_lag",
            )
            if gauges.get(name, 0) > backpressure_depth
        }
        if deep:
            worst = max(deep.items(), key=lambda kv: kv[1])
            return True, (
                f"{worst[0]}={worst[1]:g} over {backpressure_depth} "
                f"({len(deep)} queue(s) deep)"
            )
        return False, ""

    return [
        AlertRule(
            "replica_down", replica_down, severity="critical",
            fire_after=1, resolve_after=1,
            description="one or more replicas are not live",
        ),
        AlertRule(
            "stall", stall, severity="warning",
            fire_after=2, resolve_after=2,
            description="waiters blocked with no matching out traffic",
        ),
        AlertRule(
            "slo_latency_burn", slo_burn, severity="warning",
            fire_after=2, resolve_after=2,
            description=f"windowed ags_e2e p99 over {p99_slo_s:g}s",
        ),
        AlertRule(
            "read_fallback_ratio", fallback, severity="warning",
            fire_after=2, resolve_after=2,
            description="read fast path falling back through the sequencer",
        ),
        AlertRule(
            "backpressure", backpressure, severity="warning",
            fire_after=2, resolve_after=2,
            description="pipeline queue depth over threshold",
        ),
    ]


def runtime_context(rt: Any, *, stall_threshold: float = 5.0) -> Callable[[], dict[str, Any]]:
    """A context source reading a live runtime's observability surfaces."""
    from .inspect import detect_stalls

    def source() -> dict[str, Any]:
        snap = rt.introspection_snapshot()
        return {
            "introspection": snap,
            "metrics": rt.metrics_snapshot(),
            "stalls": detect_stalls(snap, stall_threshold),
        }

    return source

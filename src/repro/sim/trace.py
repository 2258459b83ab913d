"""Structured protocol tracing for simulated runs.

Protocol debugging in this reproduction kept coming down to one question:
*what happened, in what order, on which host?*  The :class:`Tracer`
answers it: components emit ``(time, host, layer, event, detail)`` records
at key transitions (sequencing, delivery, suspicion, view changes,
snapshots), and the tracer filters and renders them as a timeline.

Tracing is opt-in and zero-cost when off: emit points call
:meth:`Tracer.emit` through a module-level hook that defaults to ``None``.

Events share the schema of the real backends' flight recorder
(:class:`~repro.obs.tracing.SpanEvent`): :class:`TraceEvent` is a
subclass that adds the simulator's host/layer vocabulary, so a simulated
trace exports to the same Chrome trace-event JSON
(:meth:`Tracer.to_chrome`) and feeds the same consistency checker
(:func:`repro.obs.check.check_consistency`) as a threaded or multiproc
run — simulated and real traces render identically.

Usage::

    from repro.sim.trace import Tracer

    tracer = Tracer()
    cluster = SimCluster(ClusterConfig(n_hosts=3), )
    tracer.attach(cluster)
    ... run ...
    print(tracer.render(layer="mem"))
    json.dump(tracer.to_chrome(), open("sim-trace.json", "w"))
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.tracing import SpanEvent, to_chrome_trace

__all__ = ["Tracer"]


class TraceEvent(SpanEvent):
    """One protocol event — a :class:`SpanEvent` in sim vocabulary.

    Constructed with the simulator's native coordinates (virtual µs and
    an integer host id); stores them in the shared schema (seconds,
    ``host-N`` track) and keeps the legacy accessors as properties.
    """

    __slots__ = ()

    def __init__(self, time: float, host: int, layer: str, event: str, detail: Any):
        super().__init__(
            time / 1e6,  # virtual µs -> virtual seconds, as in repro.obs
            f"host-{host}",
            layer,
            event,
            args={"host": host, "detail": detail},
        )

    @property
    def time(self) -> float:
        """Event time in virtual microseconds (the simulator's clock)."""
        return self.ts * 1e6

    @property
    def host(self) -> int:
        return self.args["host"]

    @property
    def layer(self) -> str:
        return self.cat

    @property
    def event(self) -> str:
        return self.name

    @property
    def detail(self) -> Any:
        return self.args["detail"]

    def __repr__(self) -> str:
        return (
            f"[{self.time / 1000:10.3f}ms h{self.host} {self.layer:>7}] "
            f"{self.event} {self.detail}"
        )


class Tracer:
    """Collects, filters and renders protocol events from a cluster."""

    def __init__(self, capacity: int = 100_000):
        self.events: list[TraceEvent] = []
        self.capacity = capacity
        self._cluster = None

    # ------------------------------------------------------------------ #
    # attachment
    # ------------------------------------------------------------------ #

    def attach(self, cluster: Any) -> "Tracer":
        """Instrument every host's protocol stack in *cluster*.

        Wraps the interesting entry points of each layer with emitting
        proxies and plants the replica layers' apply hook (the
        consistency checker's input); detaching is not supported (build a
        fresh cluster).
        """
        self._cluster = cluster
        for host in cluster.hosts:
            stack = host.stack
            if stack is None:
                continue
            for layer in stack.layers:
                self._instrument(host.id, layer)
        return self

    def _instrument(self, host_id: int, layer: Any) -> None:
        name = getattr(layer, "name", type(layer).__name__)
        hooks: dict[str, Callable[..., Any]] = {}
        if name == "ord":
            hooks = {
                "_sequence": lambda a, k: f"uid={a[0]} origin={a[1]}",
                "deliver_up": lambda a, k: (
                    f"seqno={k.get('seqno')} uid={k.get('uid')}"
                    if k.get("ordered")
                    else None
                ),
                "_send_nack": lambda a, k: "",
                "_start_takeover_sync": lambda a, k: "",
            }
        elif name == "mem":
            hooks = {
                "_suspect": lambda a, k: f"host={a[0]}",
                "_deliver_failed": lambda a, k: f"host={a[0].failed_host}",
                "_deliver_recovered": lambda a, k: f"host={a[0].recovered_host}",
                "_begin_self_rejoin": lambda a, k: "",
            }
        elif name == "replica":
            hooks = {
                "_maybe_send_snapshot": lambda a, k: f"to={a[0]} at_seqno={a[1]}",
                "_install_snapshot": lambda a, k: "",
                "submit_ags": lambda a, k: f"pid={a[1] if len(a) > 1 else 0}",
            }
            # the apply-stream hook: every ordered command's (slot,
            # request_id) coordinate, the consistency checker's input
            layer.trace_apply = self._on_apply
        for method_name, describe in hooks.items():
            original = getattr(layer, method_name, None)
            if original is None:
                continue
            setattr(
                layer,
                method_name,
                self._wrap(host_id, name, method_name, original, describe),
            )

    def _wrap(self, host_id, layer_name, event, original, describe):
        def wrapped(*args, **kwargs):
            detail = describe(args, kwargs)
            if detail is not None:
                self.emit(host_id, layer_name, event.lstrip("_"), detail)
            return original(*args, **kwargs)

        return wrapped

    def _on_apply(self, host_id: int, slot: int, request_id: int) -> None:
        self.emit(
            host_id,
            "replica",
            "apply",
            f"slot={slot} rid={request_id}",
            slot=slot,
            request_id=request_id,
        )

    # ------------------------------------------------------------------ #
    # recording and querying
    # ------------------------------------------------------------------ #

    def emit(
        self, host: int, layer: str, event: str, detail: Any = "", **extra: Any
    ) -> None:
        if len(self.events) >= self.capacity:
            return  # bounded: a runaway trace must not eat the heap
        now = self._cluster.sim.now if self._cluster is not None else 0.0
        ev = TraceEvent(now, host, layer, event, detail)
        if extra:
            ev.args.update(extra)
        self.events.append(ev)

    def select(
        self,
        *,
        host: int | None = None,
        layer: str | None = None,
        event: str | None = None,
        since: float = 0.0,
    ) -> list[TraceEvent]:
        return [
            e
            for e in self.events
            if (host is None or e.host == host)
            and (layer is None or e.layer == layer)
            and (event is None or e.event == event)
            and e.time >= since
        ]

    def count(self, **kw: Any) -> int:
        return len(self.select(**kw))

    def render(self, limit: int = 200, **kw: Any) -> str:
        """A printable timeline of the selected events."""
        picked = self.select(**kw)[:limit]
        return "\n".join(repr(e) for e in picked)

    def to_chrome(self) -> dict[str, Any]:
        """Chrome trace-event JSON, identical in shape to a real-run trace."""
        return to_chrome_trace(self.events)

    def __len__(self) -> int:
        return len(self.events)

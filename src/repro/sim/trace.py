"""Structured protocol tracing for simulated runs.

Protocol debugging in this reproduction kept coming down to one question:
*what happened, in what order, on which host?*  :func:`attach` answers it
through the same :class:`~repro.obs.tracing.FlightRecorder` the real
backends record into: it wraps the key transitions of every host's layers
(sequencing, delivery, suspicion, view changes, snapshots) so each records
one :class:`~repro.obs.tracing.SpanEvent` — virtual seconds, track
``host-N``, the layer as ``cat``, and ``host``/``detail`` in ``args``.  A
simulated trace therefore renders (:func:`~repro.obs.tracing.render_events`),
exports to Chrome trace-event JSON and feeds the consistency checker
(:func:`repro.obs.check.check_consistency`) exactly like a threaded or
multiproc one.

Tracing is opt-in: a cluster nothing is attached to runs its layers
unwrapped.

Usage::

    from repro.obs.tracing import FlightRecorder, render_events
    from repro.sim.trace import attach

    cluster = SimCluster(ClusterConfig(n_hosts=3))
    recorder = attach(cluster, FlightRecorder())
    ... run ...
    print(render_events(e for e in recorder.events() if e.cat == "mem"))
    json.dump(recorder.to_chrome(), open("sim-trace.json", "w"))
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.tracing import FlightRecorder

__all__ = ["attach"]

#: Per layer: the methods whose calls are recorded, each with the detail
#: it records (None: this call is not recorded).
_HOOKS: dict[str, dict[str, Callable[[tuple, dict], Any]]] = {
    "ord": {
        "_sequence": lambda a, k: f"uid={a[0]} origin={a[1]}",
        "deliver_up": lambda a, k: (
            f"seqno={k.get('seqno')} uid={k.get('uid')}" if k.get("ordered") else None
        ),
        "_send_nack": lambda a, k: "",
        "_start_takeover_sync": lambda a, k: "",
    },
    "mem": {
        "_suspect": lambda a, k: f"host={a[0]}",
        "_deliver_failed": lambda a, k: f"host={a[0].failed_host}",
        "_deliver_recovered": lambda a, k: f"host={a[0].recovered_host}",
        "_begin_self_rejoin": lambda a, k: "",
    },
    "replica": {
        "_maybe_send_snapshot": lambda a, k: f"to={a[0]} at_seqno={a[1]}",
        "_install_snapshot": lambda a, k: "",
        "submit_ags": lambda a, k: f"pid={a[1] if len(a) > 1 else 0}",
    },
}


def attach(cluster: Any, recorder: FlightRecorder) -> FlightRecorder:
    """Instrument every host's protocol stack in *cluster* to record into
    *recorder*, and return it.

    Also plants each replica layer's apply hook, whose ``(slot,
    request_id)`` coordinates are the consistency checker's input.
    Detaching is not supported (build a fresh cluster).
    """

    def record(host: int, layer: str, event: str, detail: Any, **extra: Any) -> None:
        recorder.record_span(
            cluster.sim.now / 1e6,  # virtual µs -> virtual seconds, as in repro.obs
            f"host-{host}",
            layer,
            event,
            args={"host": host, "detail": detail, **extra},
        )

    def wrap(host: int, layer: str, event: str, original, describe):
        def wrapped(*args, **kwargs):
            detail = describe(args, kwargs)
            if detail is not None:
                record(host, layer, event, detail)
            return original(*args, **kwargs)

        return wrapped

    def on_apply(host: int, slot: int, request_id: int) -> None:
        record(host, "replica", "apply", f"slot={slot} rid={request_id}",
               slot=slot, request_id=request_id)

    for host in cluster.hosts:
        if host.stack is None:
            continue
        for layer in host.stack.layers:
            name = getattr(layer, "name", type(layer).__name__)
            if name == "replica":
                layer.trace_apply = on_apply
            for method, describe in _HOOKS.get(name, {}).items():
                original = getattr(layer, method, None)
                if original is not None:
                    setattr(layer, method,
                            wrap(host.id, name, method.lstrip("_"), original, describe))
    return recorder

"""ftlsh — an interactive FT-Linda shell.

A small REPL over a :class:`~repro.core.runtime.LocalRuntime`: type
FT-lcc statements and see their results, inspect spaces, load program
files, and inject failures.  Useful for exploring the semantics and for
demos; scriptable via stdin for tests.

Run::

    python -m repro.cli
    python -m repro.cli --program examples/worker.ftl
    python -m repro.cli --backend multiproc --replicas 3 --auto-recover
    python -m repro.cli metrics --backend multiproc --ops 500
    python -m repro.cli trace --backend multiproc --ops 100 --out trace.json
    python -m repro.cli top --backend threaded --wedge --once
    python -m repro.cli chaos --backend multiproc --seed 1
    python -m repro.cli profile --backend multiproc --out prof.speedscope.json

The ``metrics`` subcommand drives a small tuple-churn workload on a
chosen backend and prints the runtime's metrics snapshot (submit→order,
order→apply and end-to-end AGS latency histograms, plus batching
counters) — the quickest way to see what the replication pipeline costs.
``--json`` emits the raw snapshot dict as JSON for machine consumption.

The ``trace`` subcommand runs the same workload with a flight recorder
attached, exports the recorded spans as Chrome trace-event JSON (open
``--out`` in Perfetto or ``chrome://tracing``: one track per replica plus
the client tracks), runs the trace-driven replica-consistency checker
over the per-replica apply streams, and can print a text timeline
(``--text``).

The ``top`` subcommand is the live dashboard: it enables introspection,
drives a continuous tuple-churn workload on the chosen backend, and
auto-refreshes a terminal view of hot templates, the waiter table (with
stall-detector verdicts), replica queue depth/lag, and WAL size.
``--once`` renders a single frame and exits (CI smoke / scripting);
``--wedge`` spawns a consumer blocked on a template nobody deposits, to
watch the stall detector fire; ``--export FILE`` also writes each frame
as a Prometheus text-format snapshot; ``--json`` emits the frame's raw
data (introspection snapshot, metrics, stall verdicts, stage budget) as
one JSON document instead of the rendered panel.  On the parallel
backends the metrics carry the sampled per-stage pipeline histograms and
the panel ends with the "where does a millisecond go" budget.

The ``profile`` subcommand runs the continuous sampling profiler over a
churn workload: hot runtime threads appear under their registered role
names (``sequencer``, ``replica-2``, ``journal``, ...; shard-
qualified on sharded runtimes), and on the multiprocess backend each
replica OS process is sampled in situ via the in-band query lane.  The
folded profile is exported as speedscope JSON (``--format speedscope``,
load at https://www.speedscope.app) or collapsed flamegraph text
(``--format collapsed``, pipe into ``flamegraph.pl``); ``--once`` is the
short gating smoke that fails unless samples landed on named roles.

The ``chaos`` subcommand is the failure-detection demo: it drives churn
on a parallel backend with the liveness plane enabled, hard-kills a
seeded-random replica mid-workload (``SIGKILL`` on multiproc), and
reports how long detection and auto-recovery took plus whether the group
converged afterwards.  The REPL itself can also run on a parallel
backend (``--backend threaded|multiproc``), where ``.kill``/``.recover``
/``.replicas`` expose the same machinery interactively.

Commands (everything else is compiled as an FT-lcc statement)::

    .spaces                    list tuple spaces
    .space NAME [stable|volatile]   create a space
    .dump NAME                 show a space's tuples
    .load FILE                 load an .ftl program (binds its spaces,
                               compiles every statement, once)
    .run NAME [k=v ...]        run a named program statement (its compiled
                               plan; the k=v are this call's actuals)
    .fail HOST                 inject a failure notification
    .kill R                    hard-kill replica R, bypassing the group
                               (parallel backends; the detector must notice)
    .recover R                 restart replica R via state transfer
    .replicas                  show replica liveness
    .metrics                   show runtime latency/throughput metrics
    .catalog                   show the signature catalog
    .help                      this text
    .quit                      leave
"""

from __future__ import annotations

import argparse
import contextlib
import shlex
import sys
import threading
from typing import Any, Iterator, TextIO

from repro._errors import LindaError
from repro.core.ags import AGSResult
from repro.core.runtime import LocalRuntime
from repro.core.spaces import MAIN_TS, Resilience, TSHandle
from repro.lcc import SignatureCatalog, compile_ags
from repro.lcc.program import Program, compile_program

__all__ = ["FtlShell", "main"]


class FtlShell:
    """The REPL engine, separable from the terminal for testing."""

    def __init__(self, out: TextIO = sys.stdout, rt: Any = None):
        self.rt = LocalRuntime() if rt is None else rt
        self.out = out
        self.spaces: dict[str, TSHandle] = {"main": MAIN_TS}
        self.catalog = SignatureCatalog()
        self.program: Program | None = None
        self.running = True
        self._chaos: Any = None  # lazy ChaosMonkey for .kill

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def repl(self, lines: TextIO, *, prompt: bool = True) -> None:
        while self.running:
            if prompt:
                self.out.write("ftl> ")
                self.out.flush()
            line = lines.readline()
            if not line:
                break
            self.handle(line.strip())

    def handle(self, line: str) -> None:
        """Process one input line."""
        if not line or line.startswith("#"):
            return
        try:
            if line.startswith("."):
                self._command(line)
            else:
                self._statement(line)
        except LindaError as exc:
            self._print(f"error: {exc}")
        except (ValueError, KeyError) as exc:
            self._print(f"error: {exc}")

    def _print(self, text: str) -> None:
        self.out.write(text + "\n")

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def _statement(self, src: str) -> None:
        ags = compile_ags(src, self.spaces, self.catalog)
        result = self.rt.execute(ags, timeout=5.0)
        self._show_result(result)

    def _show_result(self, result: AGSResult) -> None:
        if result.aborted:
            self._print(f"aborted: {result.error}")
        elif not result.succeeded:
            self._print("no branch fired")
        else:
            binds = ", ".join(f"{k}={v!r}" for k, v in result.bindings.items())
            self._print(f"ok (branch {result.fired}){': ' + binds if binds else ''}")

    # ------------------------------------------------------------------ #
    # dot-commands
    # ------------------------------------------------------------------ #

    def _command(self, line: str) -> None:
        parts = shlex.split(line)
        cmd, args = parts[0], parts[1:]
        if cmd == ".quit":
            self.running = False
        elif cmd == ".help":
            self._print(__doc__.split("Commands", 1)[1])
        elif cmd == ".spaces":
            for name, h in sorted(self.spaces.items()):
                size = self.rt.space_size(h)
                self._print(
                    f"{name:>12}  {h.resilience.value:>8} {h.scope.value:>7}  "
                    f"{size} tuples"
                )
        elif cmd == ".space":
            if not args:
                raise ValueError(".space NAME [stable|volatile]")
            name = args[0]
            resilience = Resilience(args[1]) if len(args) > 1 else Resilience.STABLE
            self.spaces[name] = self.rt.create_space(name, resilience)
            self._print(f"created {name}")
        elif cmd == ".dump":
            if not args or args[0] not in self.spaces:
                raise ValueError(f"unknown space {args[0] if args else '?'}")
            for t in self.rt.space_tuples(self.spaces[args[0]]):
                self._print(f"  {t!r}")
        elif cmd == ".load":
            if not args:
                raise ValueError(".load FILE")
            with open(args[0]) as f:
                source = f.read()
            self.program = compile_program(source).bind(
                self.rt, existing=self.spaces
            )
            self.spaces.update(self.program.handles)
            self._print(
                f"loaded {len(self.program.statement_decls)} statements, "
                f"spaces now: {sorted(self.spaces)}"
            )
        elif cmd == ".run":
            if self.program is None:
                raise ValueError("no program loaded (.load FILE first)")
            if not args:
                raise ValueError(".run NAME [k=v ...]")
            params: dict[str, Any] = {}
            for pair in args[1:]:
                k, _eq, v = pair.partition("=")
                params[k] = _parse_value(v)
            result = self.rt.execute(
                *self.program.statement(args[0], **params), timeout=5.0
            )
            self._show_result(result)
        elif cmd == ".fail":
            self.rt.inject_failure(int(args[0]))
            self._print(f"failure tuple deposited for host {args[0]}")
        elif cmd == ".kill":
            if not args:
                raise ValueError(".kill REPLICA_ID")
            self._monkey().kill_replica(int(args[0]))
            self._print(
                f"replica {args[0]} killed behind the group's back "
                "(.replicas to watch the detector)"
            )
        elif cmd == ".recover":
            if not args:
                raise ValueError(".recover REPLICA_ID")
            self._group()  # raises on the local backend
            self.rt.recover_replica(int(args[0]))
            self._print(f"replica {args[0]} rejoined via state transfer")
        elif cmd == ".replicas":
            group = self._group()
            for i, alive in enumerate(group.alive):
                self._print(f"  replica {i}: {'live' if alive else 'DEAD'}")
        elif cmd == ".metrics":
            from repro.obs.metrics import format_snapshot

            self._print(format_snapshot(self.rt.metrics_snapshot()))
        elif cmd == ".catalog":
            for sig in self.catalog.signatures():
                self._print(f"  ({', '.join(sig)})")
            if self.program is not None:
                for sig in self.program.catalog.signatures():
                    self._print(f"  ({', '.join(sig)})  [program]")
        else:
            raise ValueError(f"unknown command {cmd} (.help for help)")

    def _group(self) -> Any:
        group = getattr(self.rt, "group", None)
        if group is None:
            raise ValueError(
                "this needs a parallel backend "
                "(restart with --backend threaded or multiproc)"
            )
        return group

    def _monkey(self) -> Any:
        self._group()
        if self._chaos is None:
            from repro.chaos import ChaosMonkey

            self._chaos = ChaosMonkey(self.rt)
        return self._chaos


def _parse_value(text: str) -> Any:
    """Parse a .run parameter: int, float, bool, or string."""
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    return text


def _workload_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """Shared options of the metrics/trace workload subcommands."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "--backend",
        choices=("local", "threaded", "multiproc"),
        default="local",
        help="runtime to measure (default: local)",
    )
    parser.add_argument("--ops", type=int, default=200, help="total out/in pairs")
    parser.add_argument("--clients", type=int, default=4, help="client threads")
    parser.add_argument(
        "--replicas", type=int, default=3, help="replica count (non-local backends)"
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="content-partitioned shard groups (non-local backends; default 1)",
    )
    return parser


def _build_runtime(opts: argparse.Namespace, **kwargs: Any) -> Any:
    """The one place the CLI constructs a runtime from ``--backend``.

    *kwargs* go to the runtime's constructor; ``--shards`` applies when
    the subcommand's parser has it.
    """
    if opts.backend == "local":
        return LocalRuntime(**kwargs)
    from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime

    backends = {"threaded": ThreadedReplicaRuntime, "multiproc": MultiprocessRuntime}
    return backends[opts.backend](
        opts.replicas,
        shards=getattr(opts, "shards", 1),
        **kwargs,
    )


def _run_churn(rt: Any, clients: int, ops: int) -> int:
    """Drive `ops` out/rd/in cycles split across `clients` threads.

    The rd in the middle exercises the replica group's read fast path on
    backends that have one — visible as the `read_fastpath` counter.
    """
    per_client = max(1, ops // max(1, clients))

    def churn(client: int) -> None:
        for k in range(per_client):
            rt.out(rt.main_ts, "metrics-op", client, k)
            rt.rd(rt.main_ts, "metrics-op", client, k)
            rt.in_(rt.main_ts, "metrics-op", client, k)

    threads = [
        threading.Thread(target=churn, args=(c,), name=f"client-{c}")
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return per_client * clients


@contextlib.contextmanager
def _background_churn(
    rt: Any, clients: int, tag: str, *, with_rd: bool = False
) -> Iterator[list[int]]:
    """Keep `clients` threads cycling out[/rd]/in on `tag` tuples.

    Yields the per-client completed-cycle counts (live: the threads keep
    bumping them); leaving the block stops the threads and joins them, so
    callers shut the runtime down only after its last client is gone.
    """
    stop = threading.Event()
    completed = [0] * clients

    def churn(client: int) -> None:
        k = 0
        while not stop.is_set():
            rt.out(rt.main_ts, tag, client, k)
            if with_rd:
                rt.rd(rt.main_ts, tag, client, k)
            rt.in_(rt.main_ts, tag, client, k)
            k += 1
            completed[client] = k

    threads = [
        threading.Thread(
            target=churn, args=(c,), name=f"client-{c}", daemon=True
        )
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    try:
        yield completed
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30.0)


def _shutdown(rt: Any) -> None:
    shutdown = getattr(rt, "shutdown", None)
    if shutdown is not None:
        shutdown()


def _metrics_main(argv: list[str]) -> int:
    """``python -m repro.cli metrics``: run a workload, print metrics."""
    import json

    from repro.obs.metrics import format_snapshot

    parser = _workload_parser(
        "ftlsh metrics",
        "drive a tuple-churn workload and print runtime metrics",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw metrics_snapshot() dict as JSON",
    )
    opts = parser.parse_args(argv)
    rt = _build_runtime(opts)
    try:
        total = _run_churn(rt, opts.clients, opts.ops)
        if opts.json:
            print(json.dumps(rt.metrics_snapshot(), indent=2, sort_keys=True))
        else:
            print(
                f"backend={opts.backend} clients={opts.clients} ops={total}"
            )
            print(format_snapshot(rt.metrics_snapshot()))
    finally:
        _shutdown(rt)
    return 0


def _trace_main(argv: list[str]) -> int:
    """``python -m repro.cli trace``: record a traced run, export + check it."""
    import json

    from repro.obs.check import check_consistency
    from repro.obs.tracing import FlightRecorder, render_events, to_chrome_trace

    parser = _workload_parser(
        "ftlsh trace",
        "record a flight-recorder trace of a tuple-churn workload, export "
        "Chrome trace-event JSON and check replica consistency",
    )
    parser.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    parser.add_argument(
        "--text",
        action="store_true",
        help="also print a text timeline of the recorded events",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=1 << 16,
        help="flight-recorder ring size in events",
    )
    opts = parser.parse_args(argv)
    tracer = FlightRecorder(capacity=opts.capacity)
    rt = _build_runtime(opts, tracer=tracer)
    try:
        total = _run_churn(rt, opts.clients, opts.ops)
        quiesce = getattr(rt, "quiesce", None)
        if quiesce is not None:
            quiesce()  # in-band: every replica's SPANS precede the answer
    finally:
        _shutdown(rt)
    events = tracer.events()
    with open(opts.out, "w") as f:
        json.dump(to_chrome_trace(events), f)
    if opts.text:
        print(render_events(events))
    by_name: dict[str, int] = {}
    for e in events:
        by_name[e.name] = by_name.get(e.name, 0) + 1
    spans = " ".join(f"{k}={v}" for k, v in sorted(by_name.items()))
    print(
        f"backend={opts.backend} clients={opts.clients} ops={total} "
        f"events={len(events)} ({spans})"
    )
    print(f"wrote {opts.out} — open in Perfetto or chrome://tracing")
    report = check_consistency(events)
    print(report.summary())
    return 0 if report.ok else 1


def _top_main(argv: list[str]) -> int:
    """``python -m repro.cli top``: the live introspection dashboard."""
    import time

    from repro.core.tuples import formal
    from repro.obs.inspect import (
        detect_stalls,
        enable_introspection,
        render_top,
        to_prometheus,
    )
    from repro.obs.server import jsonable

    parser = _workload_parser(
        "ftlsh top",
        "auto-refreshing live dashboard: hot templates, waiter table with "
        "stall detection, replica lag, WAL size",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, help="refresh period in seconds"
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="frames to render before exiting (0 = until interrupted)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render exactly one frame, without clearing the screen, and exit",
    )
    parser.add_argument(
        "--wedge",
        action="store_true",
        help="spawn a consumer blocked on a template nobody deposits "
        "(demonstrates the stall detector)",
    )
    parser.add_argument(
        "--stall-threshold",
        type=float,
        default=5.0,
        help="seconds blocked with no matching out traffic before a waiter "
        "is flagged (default: 5)",
    )
    parser.add_argument(
        "--export",
        metavar="FILE",
        help="also write each frame as a Prometheus text-format snapshot",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit each frame's raw data (introspection, metrics, stalls, "
        "stage budget) as one JSON document instead of the panel",
    )
    parser.add_argument(
        "--wal",
        metavar="DIR",
        help="use a journaling runtime on directory DIR (local backend only)",
    )
    parser.add_argument(
        "--url",
        metavar="URL",
        help="render the dashboard from a remote /snapshot endpoint "
        "(e.g. http://host:port) instead of an in-process runtime",
    )
    opts = parser.parse_args(argv)

    if opts.url:
        return _remote_top(opts)

    enable_introspection()  # must precede runtime construction
    if opts.wal:
        if opts.backend != "local":
            parser.error("--wal requires --backend local")
        from repro.persist import SegmentedWALRuntime

        rt: Any = SegmentedWALRuntime(opts.wal, fsync=False)
    else:
        rt = _build_runtime(opts)

    try:
        # one synchronous burst so even --once has state worth showing
        _run_churn(rt, opts.clients, opts.ops)
        if opts.wedge:
            threading.Thread(
                target=lambda: rt.in_(
                    rt.main_ts, "never-deposited", formal(int), process_id=999
                ),
                name="wedged-consumer",
                daemon=True,
            ).start()
            time.sleep(0.05)  # let the guard reach the replicas and park
        from repro.obs.slo import AlertEngine, default_rules

        engine = AlertEngine(
            rules=default_rules(), metrics=getattr(rt, "metrics", None)
        )
        frames = 1 if opts.once else opts.iterations
        n = 0
        churn = (
            contextlib.nullcontext()
            if opts.once
            else _background_churn(rt, opts.clients, "top-op")
        )
        with churn:
            while True:
                snap = rt.introspection_snapshot()
                stalls = detect_stalls(snap, opts.stall_threshold)
                metrics = rt.metrics_snapshot()
                ctx = {"introspection": snap, "metrics": metrics, "stalls": stalls}
                if opts.once:
                    # a single frame gives hysteresis only one shot — prime
                    # it so a stalled/wedged state is visible in the one render
                    engine.evaluate(ctx)
                alerts = engine.evaluate(ctx)
                if opts.json:
                    import json

                    from repro.obs.stages import stage_budget

                    print(json.dumps(
                        jsonable(
                            {
                                "introspection": snap,
                                "metrics": metrics,
                                "stalls": stalls,
                                "alerts": alerts,
                                "stage_budget": stage_budget(metrics),
                            }
                        ),
                        indent=2,
                        sort_keys=True,
                    ))
                else:
                    frame = render_top(snap, metrics, stalls, alerts)
                    if not opts.once:
                        sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
                    print(frame)
                sys.stdout.flush()
                if opts.export:
                    with open(opts.export, "w") as f:
                        f.write(to_prometheus(snap, metrics, stalls, alerts))
                n += 1
                if frames and n >= frames:
                    break
                try:
                    time.sleep(opts.interval)
                except KeyboardInterrupt:
                    break
    finally:
        _shutdown(rt)
    return 0


def _remote_top(opts: argparse.Namespace) -> int:
    """``top --url``: render the dashboard from a remote /snapshot feed.

    The endpoint already ran stall detection and alert evaluation
    server-side (they need the live runtime), so remote frames are pure
    rendering — any machine with HTTP reach can watch a tuple space.
    """
    import json
    import time
    import urllib.error
    import urllib.request

    from repro.obs.inspect import render_top

    base = opts.url.rstrip("/")
    frames = 1 if opts.once else opts.iterations
    n = 0
    while True:
        try:
            with urllib.request.urlopen(base + "/snapshot", timeout=10) as r:
                payload = json.loads(r.read())
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot reach {base}/snapshot: {exc}", file=sys.stderr)
            return 1
        if opts.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            frame = render_top(
                payload.get("introspection", {}),
                payload.get("metrics"),
                payload.get("stalls"),
                payload.get("alerts"),
            )
            if not opts.once:
                sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
            print(f"[remote {base}]")
            print(frame)
        sys.stdout.flush()
        n += 1
        if frames and n >= frames:
            return 0
        try:
            time.sleep(opts.interval)
        except KeyboardInterrupt:
            return 0


def _serve_main(argv: list[str]) -> int:
    """``python -m repro.cli serve``: run a runtime with the HTTP endpoint.

    Default mode drives continuous churn and serves until interrupted —
    an observable tuple space to curl at.  ``--smoke`` instead asserts
    the endpoint contract (metric families present, health flips to 503
    on an unrecovered replica kill) and exits — the CI gate.
    """
    import json
    import time
    import urllib.error
    import urllib.request

    from repro.obs.inspect import enable_introspection

    parser = _workload_parser(
        "ftlsh serve",
        "serve /metrics /health /snapshot /events /debug/trace "
        "/debug/profile over HTTP for a live runtime",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default 0 = ephemeral; the URL is printed)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--stall-threshold", type=float, default=5.0,
        help="stall-detector threshold used by /metrics and the alert rules",
    )
    parser.add_argument(
        "--events-out", metavar="PATH",
        help="also append every structured event to PATH as NDJSON",
    )
    parser.add_argument(
        "--no-churn", action="store_true",
        help="serve an idle runtime (default: background churn keeps the "
        "windowed metrics moving)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-check the endpoint (families present, 200→503 health "
        "flip on replica kill) and exit",
    )
    opts = parser.parse_args(argv)
    if opts.backend == "local":
        parser.error("serve needs a parallel backend (--backend threaded|multiproc)")

    if opts.events_out:
        from repro.obs.events import get_log

        get_log().attach_sink(opts.events_out)
    enable_introspection()
    from repro.obs.tracing import FlightRecorder

    rt = _build_runtime(opts, tracer=FlightRecorder())
    try:
        _run_churn(rt, opts.clients, opts.ops)
        server = rt.serve_telemetry(
            opts.port, host=opts.host, stall_threshold=opts.stall_threshold
        )
        print(f"telemetry at {server.url}  (GET /metrics /health /snapshot "
              f"/events /debug/trace /debug/profile)")
        sys.stdout.flush()
        if opts.smoke:
            return _serve_smoke(rt, server.url)

        churn = (
            contextlib.nullcontext()
            if opts.no_churn
            else _background_churn(rt, opts.clients, "serve-op")
        )
        with churn:
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                return 0
    finally:
        _shutdown(rt)


def _serve_smoke(rt: Any, base: str) -> int:
    """Assert the endpoint contract against a just-started server."""
    import json
    import urllib.error
    import urllib.request

    def get(path: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(base + path, timeout=10) as r:
                return r.status, r.read()
        except urllib.error.HTTPError as e:
            return e.code, e.read()

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok  " if ok else "FAIL") + f" {what}")
        if not ok:
            failures.append(what)

    status, body = get("/metrics")
    check(status == 200, "/metrics returns 200")
    for family in (
        "linda_ags_e2e_seconds", "linda_commands_submitted_total",
        "linda_window_latency_seconds", "linda_replica_alive",
        "linda_alert_state",
    ):
        check(family.encode() in body, f"/metrics exposes {family}")
    status, body = get("/health")
    check(
        status == 200 and json.loads(body)["healthy"],
        "/health is 200 before the kill",
    )
    status, body = get("/snapshot")
    check(status == 200, "/snapshot returns 200")
    snap = json.loads(body)
    check("metrics" in snap and "alerts" in snap, "/snapshot carries metrics+alerts")
    status, body = get("/events")
    check(status == 200, "/events returns 200")
    status, _body = get("/debug/trace")
    check(status == 200, "/debug/trace returns 200")

    rt.crash_replica(1)
    status, body = get("/health")
    check(status == 503, "/health flips to 503 on an unrecovered kill")
    check(not json.loads(body)["problems"] == [], "/health names the problem")
    status, body = get("/events")
    kinds = [e["kind"] for e in json.loads(body)["events"]]
    check("replica_dead" in kinds, "/events records the replica death")
    if failures:
        print(f"{len(failures)} telemetry smoke check(s) failed")
        return 1
    print("telemetry smoke passed")
    return 0


def _chaos_main(argv: list[str]) -> int:
    """``python -m repro.cli chaos``: kill a replica under churn, report."""
    import json
    import time

    parser = _workload_parser(
        "ftlsh chaos",
        "drive churn on a parallel backend, hard-kill a seeded-random "
        "replica mid-workload, and report detection/recovery latency",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="fault-injection RNG seed"
    )
    parser.add_argument(
        "--warmup", type=float, default=0.3,
        help="seconds of churn before the kill (default: 0.3)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    opts = parser.parse_args(argv)
    if opts.backend == "local":
        parser.error("chaos needs a parallel backend (--backend threaded|multiproc)")
    if opts.replicas < 2:
        parser.error("chaos needs at least 2 replicas")

    from repro.chaos import ChaosMonkey
    from repro.replication import LivenessPolicy

    policy = LivenessPolicy(
        probe_interval=0.05,
        suspect_after=0.3,
        auto_recover=True,
        backoff_initial=0.05,
    )
    rt = _build_runtime(opts, detect_failures=policy)
    # On a sharded runtime the monkey torments one seeded-random shard
    # group; the report names it so reruns with the same seed replay it.
    monkey = ChaosMonkey(
        rt, seed=opts.seed, shard="random" if opts.shards > 1 else None
    )
    with _background_churn(rt, opts.clients, "chaos-op") as completed:
        time.sleep(opts.warmup)
        victim = monkey.rng.randrange(1, opts.replicas)
        monkey.kill_replica(victim)
        t_detect = monkey.wait_detected(victim)
        t_recover = monkey.wait_recovered(victim)
        time.sleep(opts.warmup)  # churn over the healed group
    converged = rt.converged()
    snap = rt.metrics_snapshot()
    _shutdown(rt)
    report = {
        "backend": opts.backend,
        "replicas": opts.replicas,
        "shards": opts.shards,
        "shard": monkey.group.name or "shard0",
        "seed": opts.seed,
        "victim": victim,
        "detect_s": round(t_detect, 4),
        "recover_s": round(t_recover, 4),
        "ops_completed": sum(completed),
        "converged": converged,
        "failures_detected": snap["counters"].get("failures_detected", 0),
        "auto_recoveries": snap["counters"].get("auto_recoveries", 0),
    }
    if opts.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"backend={opts.backend} replicas={opts.replicas} seed={opts.seed}"
        )
        where = f" ({monkey.group.name})" if opts.shards > 1 else ""
        print(
            f"SIGKILLed replica {victim}{where}: detected in "
            f"{t_detect * 1e3:.0f}ms, auto-recovered in {t_recover * 1e3:.0f}ms"
        )
        print(
            f"clients completed {sum(completed)} ops through the fault; "
            f"converged={converged}"
        )
    return 0 if converged else 1


def _profile_main(argv: list[str]) -> int:
    """``python -m repro.cli profile``: sample a churn workload, export."""
    import json
    import time

    from repro.obs.profile import (
        DEFAULT_HZ,
        role_summary,
        to_collapsed,
        to_speedscope,
    )

    parser = _workload_parser(
        "ftlsh profile",
        "run the continuous sampling profiler over a churn workload and "
        "export the folded stacks (roles: sequencer, replica-N, ...)",
    )
    parser.add_argument(
        "--hz", type=float, default=DEFAULT_HZ,
        help=f"sampling rate (default: {DEFAULT_HZ:g})",
    )
    parser.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds of churn to sample (default: 2)",
    )
    parser.add_argument(
        "--out",
        default="profile.speedscope.json",
        help="export path (default: profile.speedscope.json)",
    )
    parser.add_argument(
        "--format",
        choices=("speedscope", "collapsed"),
        default="speedscope",
        help="export format (default: speedscope)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="short smoke: sample briefly, fail unless samples landed on "
        "named runtime roles (CI gate)",
    )
    opts = parser.parse_args(argv)
    if opts.backend == "local":
        parser.error("profile needs a parallel backend "
                     "(--backend threaded|multiproc)")
    duration = 0.8 if opts.once else opts.duration

    rt = _build_runtime(opts)
    try:
        _run_churn(rt, opts.clients, min(opts.ops, 50))  # absorb startup
        rt.start_profiling(opts.hz)
        with _background_churn(rt, opts.clients, "prof-op", with_rd=True):
            time.sleep(duration)
        folded = rt.stop_profiling()
    finally:
        _shutdown(rt)

    total = sum(folded.values())
    print(
        f"backend={opts.backend} hz={opts.hz:g} duration={duration:g}s "
        f"stacks={len(folded)} samples={total}"
    )
    for role, n, share in role_summary(folded):
        print(f"  {share:6.1%}  {n:>7}  {role}")
    if opts.format == "speedscope":
        with open(opts.out, "w") as f:
            json.dump(to_speedscope(folded), f)
    else:
        with open(opts.out, "w") as f:
            f.write(to_collapsed(folded))
    print(f"wrote {opts.out} ({opts.format})")
    named = [
        role
        for role, _n, _s in role_summary(folded)
        if any(tag in role for tag in ("sequencer", "replica-"))
    ]
    if total == 0 or not named:
        print("SMOKE FAIL: no samples attributed to named runtime roles")
        return 1
    return 0


def _wal_main(argv: list[str]) -> int:
    """``python -m repro.cli wal status|verify``: inspect a durability dir.

    Operates on the segmented WAL layout (:mod:`repro.persist.segments`)
    shared by :class:`~repro.persist.runtime.SegmentedWALRuntime` and the
    replica groups' durable journal — purely offline, so it is safe to
    point at a directory whose owner crashed mid-write: torn tails, torn
    snapshots and damaged manifests are reported, never repaired.
    """
    import os

    parser = argparse.ArgumentParser(
        prog="ftlsh wal",
        description="inspect a segmented WAL / durable-journal directory",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    st_p = sub.add_parser("status", help="segment/snapshot layout and sizes")
    st_p.add_argument("dir", help="the WAL directory")
    vf_p = sub.add_parser(
        "verify",
        help="dry-run recovery: replay the directory, report what survives",
    )
    vf_p.add_argument("dir", help="the WAL directory")
    sm_p = sub.add_parser(
        "smoke",
        help="gating recovery smoke: populate a durable group, SIGKILL "
        "the owning process, recover from the journal, require a "
        "fingerprint match",
    )
    sm_p.add_argument(
        "--backend", choices=("threaded", "multiproc"), default="threaded"
    )
    sm_p.add_argument("--replicas", type=int, default=3)
    sm_p.add_argument("--ops", type=int, default=50)
    # internal: run as the victim process against this journal dir
    sm_p.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)

    if opts.action == "smoke":
        return _wal_smoke(opts)

    if not os.path.isdir(opts.dir):
        print(f"wal: {opts.dir} is not a directory")
        return 2

    if opts.action == "status":
        from repro.persist.segments import SegmentedLog

        log = SegmentedLog(opts.dir, fsync=False)
        try:
            st = log.status()
        finally:
            log.close()
        for key in (
            "dir", "segments", "segment_bytes", "snapshots",
            "snapshot_bytes", "snapshot_slot", "total_bytes",
        ):
            print(f"{key:>15}: {st[key]}")
        return 0
    return _wal_verify(opts.dir)[0]


def _wal_verify(dir: str) -> tuple[int, int | None]:
    """``cli wal verify``: replay offline as recovery would; returns the
    exit code and the fingerprint (None when the replay failed)."""
    from repro.core.statemachine import TSStateMachine
    from repro.persist.segments import replay_dir
    from repro.replication.journal import replay_commands

    res = replay_dir(dir)
    print(f"{'snapshot_slot':>15}: {res.snapshot_slot}")
    print(f"{'delta_records':>15}: {len(res.records)}")
    print(f"{'segments_read':>15}: {res.segments_read}")
    print(f"{'torn_records':>15}: {res.torn_records}")
    print(f"{'torn_bytes':>15}: {res.torn_bytes}")
    print(f"{'torn_snapshots':>15}: {res.torn_snapshots}")
    print(f"{'manifest_ok':>15}: {res.manifest_ok}")
    sm = (
        TSStateMachine.from_snapshot(res.snapshot)
        if res.snapshot is not None
        else TSStateMachine()
    )
    try:
        commands = replay_commands(res)
        for _slot, cmd in commands:
            sm.apply(cmd)
    except Exception as exc:  # noqa: BLE001 - report, don't die
        print(f"{'replay_error':>15}: {type(exc).__name__}: {exc}")
        return 1, None
    fingerprint = sm.fingerprint()
    print(f"{'replayed':>15}: {len(commands)}")
    print(f"{'fingerprint':>15}: {fingerprint}")
    if res.torn_records or res.torn_snapshots:
        print("verify: recoverable, with torn tail discarded")
    else:
        print("verify: clean")
    return 0, fingerprint


def _wal_smoke(opts) -> int:
    """``cli wal smoke``: the CI recovery gate, end to end.

    Parent spawns a victim process that builds a *durable* replica group,
    journals ``--ops`` commands, prints its fingerprint, and then idles;
    the parent SIGKILLs it — a real ``kill -9``, no flush, no shutdown —
    replays the directory offline as ``wal verify`` does, and rebuilds a
    group on it.  Both fingerprints must equal the victim's, and the
    group must accept new work.  Exercises exactly the full-group-restart
    path DESIGN.md promises: recovery to the last fsynced slot.
    """
    import os
    import signal
    import subprocess
    import tempfile
    import time

    if opts.child:  # victim role
        rt = _build_runtime(opts, durable_dir=opts.child)
        for i in range(opts.ops):
            rt.out(rt.main_ts, "smoke", i)
        rt.quiesce()
        print(f"FINGERPRINT {rt.fingerprints()[0]}", flush=True)
        print("READY", flush=True)
        time.sleep(600)  # hold the journal open until the parent shoots
        return 0

    with tempfile.TemporaryDirectory(prefix="wal-smoke-") as d:
        # the victim gets its own session so the kill can take out the
        # whole process group — on the multiproc backend the replica
        # processes die with their parent, like the machine they model
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "wal", "smoke",
                "--backend", opts.backend,
                "--replicas", str(opts.replicas),
                "--ops", str(opts.ops),
                "--child", d,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        expected = None
        try:
            assert child.stdout is not None
            for line in child.stdout:
                if line.startswith("FINGERPRINT "):
                    expected = int(line.split()[1])
                if line.strip() == "READY":
                    break
        finally:
            try:
                os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                if child.poll() is None:
                    os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        if expected is None:
            print("wal smoke: victim died before journaling anything")
            return 1
        print(f"victim journaled {opts.ops} commands, killed -9 "
              f"(rc={child.returncode})")
        # the offline replay must reach the same state as the group will
        rc, offline = _wal_verify(d)
        if rc or offline != expected:
            print(f"wal smoke: OFFLINE REPLAY MISMATCH (expected {expected})")
            return 1

        rt = _build_runtime(opts, durable_dir=d)
        try:
            rt.quiesce()
            got = set(rt.fingerprints())
            replayed = rt.group.journal_replayed
            # the recovered group is live, not just a museum of the past
            rt.out(rt.main_ts, "post", 1)
            alive = rt.in_(rt.main_ts, "post", 1) is not None
            journal = rt.journal_status()[0]
        finally:
            rt.shutdown()
        print(f"recovered: replayed={replayed} fingerprints={got}")
        # both acknowledged, so the fsync had to cover both: never behind
        print(f"journal: journal_slot={journal['journal_slot']} "
              f"durable_slot={journal['durable_slot']}")
        if got != {expected}:
            print(f"wal smoke: FINGERPRINT MISMATCH (expected {expected})")
            return 1
        if not alive:
            print("wal smoke: recovered group refused new work")
            return 1
        print(f"wal smoke: OK ({opts.backend}, {opts.replicas} replicas, "
              f"{opts.ops} ops recovered)")
        return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "metrics":
        return _metrics_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos_main(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    if argv and argv[0] == "wal":
        return _wal_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="ftlsh", description="interactive FT-Linda shell"
    )
    parser.add_argument("--program", help=".ftl program to load at startup")
    parser.add_argument(
        "--quiet", action="store_true", help="no prompt (for piped scripts)"
    )
    parser.add_argument(
        "--backend",
        choices=("local", "threaded", "multiproc"),
        default="local",
        help="runtime behind the shell (default: local); parallel backends "
        "enable .kill/.recover/.replicas with the failure detector on",
    )
    parser.add_argument(
        "--replicas", type=int, default=3, help="replica count (parallel backends)"
    )
    parser.add_argument(
        "--auto-recover",
        action="store_true",
        help="let the liveness supervisor restart detected-dead replicas",
    )
    opts = parser.parse_args(argv)
    if opts.backend == "local":
        rt = _build_runtime(opts)
    else:
        from repro.replication import LivenessPolicy

        rt = _build_runtime(opts, detect_failures=LivenessPolicy(auto_recover=opts.auto_recover))
    shell = FtlShell(rt=rt)
    try:
        if opts.program:
            shell.handle(f".load {opts.program}")
        shell.repl(sys.stdin, prompt=not opts.quiet)
    finally:
        _shutdown(rt)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

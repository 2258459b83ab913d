"""Telemetry-plane overhead — what the networked endpoint costs.

The HTTP endpoint's acceptance bar: the fully-enabled plane — the alert
engine evaluating at 1 Hz and an external scraper hitting ``/metrics``
~4×/s — must cost <5% of blocking out-throughput.  Nothing is added per
operation (the windowed view is read from the slices every instrument
already records into; everything else rides threads outside the
pipeline), so the budget is expected to be dominated by GIL pressure
from the scrape handler folding slices and rendering the Prometheus
text.

Measured as blocking out-throughput with concurrent clients on both
real backends, two configurations each:

- **off** — no endpoint, no alert engine;
- **on**  — ``serve_telemetry()`` with the default alert rules plus a
  client thread scraping ``GET /metrics`` every 250 ms for the whole
  measurement — still far more aggressive than any real Prometheus
  interval (typically 15 s), and the timed sections are seconds long so
  several scrapes land inside each.  Note the scraper necessarily runs
  *in-process* here, so on the threaded backend the measurement charges
  the urllib client work to the same GIL as the pipeline — a real
  external scraper costs strictly less than what this reports.

The off→on ratio per backend is the headline metric; the committed
full-size table records it against the <5% claim, and the quick-size
test gates only on gross regressions (blocking round trips are
latency-bound, so scheduler noise dominates small deltas).
"""

from __future__ import annotations

import os
import threading
import time
import urllib.request

from repro.bench import Table, save_table
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime

CLIENTS = 8
OPS = {"threaded": 1000, "multiproc": 150}  # blocking out/in pairs per client
QUICK_DIVISOR = 5
SCRAPE_INTERVAL = 0.25
#: The headline ratio is measured *paired*: off and on timed inside the
#: same runtime, back to back, so thread placement and allocator state
#: cancel out of the quotient; the median pair over REPEATS fresh
#: runtimes is the estimator (a best-of across separate runtimes lets
#: one lucky 'off' runtime masquerade as endpoint overhead).
REPEATS = 5


def _spawn_clients(clients: int, body) -> float:
    barrier = threading.Barrier(clients + 1)

    def worker(c: int) -> None:
        barrier.wait()
        body(c)

    threads = [
        threading.Thread(target=worker, args=(c,), name=f"bench-client-{c}")
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def _throughput(rt, per_client: int) -> float:
    for k in range(20):  # absorb replica startup before timing
        rt.out(rt.main_ts, "warmup", k)
    rt.quiesce()

    # out/in pairs so the space stays bounded: the introspection image
    # behind /snapshot and the alert engine is proportional to live
    # state, and an accumulate-only workload would grow it without
    # bound and charge that growth to the 'on' configuration
    def body(c: int) -> None:
        for k in range(per_client):
            rt.out(rt.main_ts, "bench", c, k)
            rt.in_(rt.main_ts, "bench", c, k)

    return CLIENTS * per_client * 2 / _spawn_clients(CLIENTS, body)


class _Scraper:
    """A client hammering /metrics on its own thread, like Prometheus."""

    def __init__(self, url: str, interval: float = SCRAPE_INTERVAL):
        self.url = url + "/metrics"
        self.interval = interval
        self.scrapes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="bench-scraper", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                with urllib.request.urlopen(self.url, timeout=5) as r:
                    r.read()
                self.scrapes += 1
            except OSError:
                pass  # endpoint racing shutdown; the run is ending

    def stop(self) -> int:
        self._stop.set()
        self._thread.join(timeout=5.0)
        return self.scrapes


def run_benchmark(quick: bool = False) -> dict[str, dict[str, float]]:
    """Measure both backends, return raw numbers; a full-size run also
    saves the report table (a quick one only prints it)."""
    import statistics

    div = QUICK_DIVISOR if quick else 1
    table = Table(
        f"Telemetry-endpoint overhead: blocking out/s, {CLIENTS} clients",
        ["backend", "telemetry", "out/s", "scrapes", "vs off"],
    )
    out: dict[str, dict[str, float]] = {}
    for name, make_rt in (
        ("threaded", lambda: ThreadedReplicaRuntime(3)),
        ("multiproc", lambda: MultiprocessRuntime(3)),
    ):
        per = OPS[name] // div
        ratios: list[float] = []
        best_off = best_on = 0.0
        scrapes = 0
        for _ in range(REPEATS):  # quick shrinks ops, not repeats
            rt = make_rt()
            try:
                off = _throughput(rt, per)
                server = rt.serve_telemetry(0)
                scraper = _Scraper(server.url)
                on = _throughput(rt, per)
                got = scraper.stop()
            finally:
                rt.shutdown()
            ratios.append(on / off)
            best_off = max(best_off, off)
            if on > best_on:
                best_on, scrapes = on, got
        ratio = statistics.median(ratios)
        table.add(name, "off", best_off, 0, "1.00x")
        table.add(name, "on", best_on, scrapes, f"{ratio:.2f}x")
        out[name] = {"off": best_off, "on": best_on, "ratio": ratio}
    table.note(
        "'on' = serve_telemetry() with the default alert rules evaluating "
        f"at 1 Hz plus an in-process client scraping GET /metrics every "
        f"{SCRAPE_INTERVAL * 1000:.0f} ms for the whole measurement "
        "(an external scraper costs strictly less); "
        "the instruments record identically in both configurations (the "
        "windowed view is read from them, not recorded); 'vs off' is the "
        "median of "
        f"{REPEATS} paired off/on measurements inside the same runtime "
        "(out/s columns are the best single measurements)"
    )
    table.note(
        f"blocking out/in pairs per client: threaded {OPS['threaded'] // div}, "
        f"multiproc {OPS['multiproc'] // div}; nproc={os.cpu_count()}"
    )
    if quick:
        print(table)
    else:
        save_table(table, "bench_telemetry")
    return out


def test_telemetry_overhead(benchmark):
    out = benchmark.pedantic(
        run_benchmark, kwargs={"quick": True}, rounds=1, iterations=1
    )
    for rates in out.values():
        # quick-size timed sections are short on a 1-CPU CI host, so a
        # scrape render can eat a visible GIL slice — this floor only
        # catches the endpoint *wedging* the pipeline; the committed
        # full-size table is what records the <5% overhead claim
        assert rates["ratio"] > 0.6, rates


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_DIVISOR}x fewer ops per cell (CI smoke; writes nothing)",
    )
    opts = parser.parse_args(argv)
    run_benchmark(quick=opts.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""What runs inside one fresh subprocess: a repeat, the prepare step, the ladder.

Each repeat of a workload gets its own interpreter, so ``setup_s`` covers
everything a user waits for — interpreter start, importing ``repro``,
constructing the runtime (spawn, journal replay), preloading, warm-up —
and ``peak_rss_mb`` belongs to that workload alone.  The harness passes
the wall-clock time at which it launched the process; everything else is
measured here.  The result goes to stdout as one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import time
from statistics import median
from typing import Any


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of the sorted samples *ordered* (0 < q <= 1)."""
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest reaped child, MiB (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_repeat(job: dict[str, Any]) -> dict[str, Any]:
    """One workload process: set up, timed window of whole rounds, checks.

    Untraced, it reports the end-to-end metrics: rate and latency
    percentiles per round, set-up time and peak RSS once.  Traced, rounds
    alternate between plain and span-recording, and it reports the
    workload's pipeline counters and the tracing overhead instead.
    """
    from benchmarks.suite import workloads
    from benchmarks.suite.trace import Tracer

    traced = job["traced"]
    wl = workloads.BY_NAME[job["workload"]](
        job["seed"], job["scale"], job.get("journal_dir")
    )
    tracer = Tracer(wl.name) if traced else None
    plain, spanned = [], []
    workloads.pin_to_one_cpu()
    try:
        wl.setup()
        setup_s = time.time() - job["t_launch"]
        deadline = time.perf_counter() + job["window_s"]
        while True:
            plain.append(wl.run_round(traced=False))
            if tracer is not None:
                t0 = time.perf_counter()
                rnd = wl.run_round(traced=True)
                parent = tracer.span("harness.round", t0, time.perf_counter())
                for cid, op, s0, s1, stmt in rnd.spans:
                    tracer.span(f"{wl.layer}.{op}", s0, s1, parent, f"client-{cid}", stmt)
                spanned.append(rnd)
            if time.perf_counter() >= deadline:
                break
        layer = workloads.pipeline_metrics(wl.rt) if traced else {}
        problems = wl.check()
    finally:
        wl.close()
    rounds = plain + spanned
    result: dict[str, Any] = {
        "attempted": wl.attempted(),
        "failed": wl.failed(),
        "rounds": len(rounds),
        "samples": sum(len(r.latencies) for r in rounds),
        "problems": problems,
        "errors": wl.errors(),
    }
    if traced:
        # each traced round against the plain round just before it: a
        # drift during the window then cancels instead of counting as overhead
        layer["harness.trace_overhead"] = median(
            _rate(t) / _rate(p) for t, p in zip(spanned, plain)
        )
        result["layer"] = layer
        tracer.dump(job["trace_out"], os.getpid())
    else:
        # per round, so that the harness can take the typical round: a stall
        # of the host then costs the rounds it hit, not the whole window
        ordered = [sorted(r.latencies) for r in plain]
        result["per_round"] = {
            "ops_per_s": [_rate(r) for r in plain],
            "op_p50_ms": [1e3 * percentile(lat, 0.50) for lat in ordered],
            "op_p99_ms": [1e3 * percentile(lat, 0.99) for lat in ordered],
        }
        result["per_repeat"] = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mib()}
    return result


def _rate(rnd: Any) -> float:
    """Statements a round completed over its wall time."""
    return rnd.statements / rnd.wall_s


def run_prepare(job: dict[str, Any]) -> dict[str, Any]:
    """durable_bag's untimed step: journal the resident tuples, shut down."""
    from benchmarks.suite.workloads import prepare_journal

    prepare_journal(job["journal_dir"], job["scale"])
    return {}


def run_ladder(job: dict[str, Any]) -> dict[str, Any]:
    from benchmarks.suite.ladder import run_ladder as ladder

    done, tracer = ladder(job["calls"], job["seed"], job["tmp"])
    tracer.dump(job["trace_out"], os.getpid())
    return {"layer": done.metrics, "n": done.n}


JOBS = {"repeat": run_repeat, "prepare": run_prepare, "ladder": run_ladder}


def main(job_json: str) -> int:
    job = json.loads(job_json)
    print(json.dumps(JOBS[job["job"]](job)))
    return 0

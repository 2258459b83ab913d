"""Orchestration: repeats in fresh subprocesses, typical rounds, the two CLIs.

``run.py`` (the driver's command) and ``python -m benchmarks.suite`` both
end up in :func:`main`.  This process never imports ``repro``; it launches
``run.py _worker <job>`` once per repeat, so every workload process starts
from a cold interpreter and the multiproc backend's ``spawn`` children
re-import a ``__main__`` that is guarded.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import fmean, median
from typing import Any

from benchmarks.suite import spec
from benchmarks.suite.trace import write_chrome

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN_PY = os.path.join(ROOT, "benchmarks", "suite", "run.py")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKER_TIMEOUT_S = 170  # under the 180 s a single run may take
#: A ladder metric is the median of this many calls per ``--seconds``.
CALLS_PER_SECOND = 70


def typical_round(values: list[float]) -> float:
    """The mean round, a tenth of the rounds left out at each end.

    The host runs at one of several speeds a quarter apart and changes
    between them every few seconds (README, "Noise").  The median round is
    the speed the host kept for most of the run, so two runs that saw the
    speeds in shares of 45:55 and 55:45 differ by the whole quarter; a mean
    differs by a tenth of it.  The trimming is for the round a stall hit.
    """
    ordered = sorted(values)
    cut = len(ordered) // 10
    return fmean(ordered[cut:len(ordered) - cut])


def launch(job: dict[str, Any]) -> dict[str, Any]:
    """Run one worker job in a fresh interpreter; its JSON result.

    The worker leads its own process group, so whatever ends the wait — a
    timeout, an interrupt — takes its replica processes down with it.
    """
    job = dict(job, t_launch=time.time())
    proc = subprocess.Popen(
        [sys.executable, RUN_PY, "_worker", json.dumps(job)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the usual case: the worker reaped its replicas and left
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {job['job']} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


class Run:
    """One invocation: a scratch directory, the results, the trace parts."""

    def __init__(self, seed: int, seconds: float, repeats: int, scale: float):
        self.seed = seed
        self.seconds = seconds
        self.repeats = repeats
        self.scale = scale
        self.results: list[dict[str, Any]] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.failed_checks: list[str] = []
        self.trace_parts: list[str] = []
        self.ladder: dict[str, Any] | None = None  # run once per invocation
        base = os.path.join(os.getcwd(), ".bench_tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="suite-", dir=base)

    def close(self) -> None:
        """Remove the scratch directory (journals included), also on failure."""
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass  # another run's scratch is still there

    # -- jobs ----------------------------------------------------------- #

    def _repeat_job(self, workload: str, r: int, traced: bool) -> dict[str, Any]:
        job: dict[str, Any] = {
            "job": "repeat", "workload": workload, "seed": self.seed * 1000 + r,
            "scale": self.scale, "traced": traced,
            "window_s": self.seconds / self.repeats,
        }
        if workload == "durable_bag":
            # every repeat recovers its own copy of the prepared journal
            prepared = os.path.join(self.tmp, "prepared")
            if not os.path.isdir(prepared):
                launch({"job": "prepare", "journal_dir": prepared, "scale": self.scale})
            job["journal_dir"] = os.path.join(self.tmp, f"journal-{traced}-{r}")
            shutil.copytree(prepared, job["journal_dir"])
        if traced:
            job["trace_out"] = self._trace_part()
        return job

    def _trace_part(self) -> str:
        """A file for one process's spans; merged by :meth:`write_trace`."""
        self.trace_parts.append(
            os.path.join(self.tmp, f"trace-{len(self.trace_parts)}.json"))
        return self.trace_parts[-1]

    def _note(self, workload: str, out: dict[str, Any]) -> None:
        c = self.counts.setdefault(workload, {"ops_attempted": 0, "ops_failed": 0})
        c["ops_attempted"] += out["attempted"]
        c["ops_failed"] += out["failed"]
        for line in out["errors"][:3]:  # a sample; ops_failed has the count
            print(f"# {workload}: failed statement: {line}", file=sys.stderr)
        for line in out["problems"]:
            self.failed_checks.append(f"{workload}: {line}")

    def end_to_end(self, workload: str) -> None:
        """The untraced pass.  Rate and latency percentiles are the typical
        round over every timed round of every repeat; set-up time and peak
        RSS, which a process has one of, the median across repeats.  min and
        max are the lowest and highest repeat."""
        outs = [launch(self._repeat_job(workload, r, False)) for r in range(self.repeats)]
        for out in outs:
            self._note(workload, out)
        n = sum(o["samples"] for o in outs)
        for m in spec.END_TO_END:
            if m.name in outs[0]["per_repeat"]:
                repeats = [o["per_repeat"][m.name] for o in outs]
                value = median(repeats)
            else:
                repeats = [typical_round(o["per_round"][m.name]) for o in outs]
                value = typical_round([v for o in outs for v in o["per_round"][m.name]])
            self._add(workload, m.name, value, m.unit, n, "end_to_end",
                      min(repeats), max(repeats))

    def per_layer(self, workload: str) -> None:
        """The traced pass: the workload's own counters, then the ladder,
        which does not depend on the workload and so runs once."""
        out = launch(self._repeat_job(workload, 0, True))
        self._note(workload, out)
        if self.ladder is None:
            calls = int(self.seconds * CALLS_PER_SECOND)
            self.ladder = launch({"job": "ladder", "seed": self.seed, "tmp": self.tmp,
                                  "calls": calls, "trace_out": self._trace_part()})
            self.ladder["calls"] = calls
        ladder = self.ladder
        values = {**ladder["layer"], **out["layer"]}
        for m in spec.LAYERS:
            n = out["samples"] if m.name in out["layer"] else ladder["n"].get(
                m.name, ladder["calls"])
            self._add(workload, m.name, values[m.name], m.unit, n, "per_layer")

    def _add(self, workload: str, metric: str, value: float, unit: str, n: int,
             kind: str, lo: float | None = None, hi: float | None = None) -> None:
        row = {"workload": workload, "metric": metric, "value": value, "unit": unit,
               "n": n, "kind": kind}
        line = f"{workload} {metric} {value:.6g} {unit} n={n}"
        if lo is not None:
            row.update(min=lo, max=hi)
            line += f" min={lo:.6g} max={hi:.6g}"
        self.results.append(row)
        print(line)

    def write_trace(self, path: str) -> None:
        events: list[dict] = []
        counts: dict[str, int] = {}
        for part in self.trace_parts:
            with open(part, encoding="utf-8") as f:
                loaded = json.load(f)
            events.extend(loaded["events"])
            for name, n in loaded["counts"].items():
                counts[name] = counts.get(name, 0) + n
        write_chrome(path, events, counts)


def ladder_lines(v: dict[str, float]) -> list[str]:
    """A blocking ``out`` through each depth: cumulative median and self time.

    A depth's self time is its median minus the median of the depth below,
    so the column telescopes to ``parallel.multiproc.out_us``; the two
    rungs past it add what sharding and the journal put on top.
    """
    thr3 = v["parallel.threaded.out_us"]
    mp3 = v["parallel.multiproc.out_us"]
    journal = v["persist.segments.append_us"] + 1e3 * v["persist.segments.fsync_ms"]
    depths = [
        ("core.matching", v["core.matching.add_us"]),
        ("core.ags", v["core.matching.add_us"] + v["core.ags.build_out_us"]),
        ("core.statemachine",
         v["core.ags.build_out_us"] + v["core.statemachine.apply_out_us"]),
        ("core.runtime", v["core.runtime.out_us"]),
        ("replication.group (1 replica)", thr3 - v["replication.group.fanout_us"]),
        ("parallel.threaded (3)", thr3),
        ("parallel.multiproc (3)", mp3),
        ("+shards=4", mp3 + v["replication.sharding.route_us"]),
        ("+durable_dir", mp3 + v["replication.sharding.route_us"] + journal),
    ]
    lines, below = [], 0.0
    for name, cumulative in depths:
        lines.append(f"# ladder {name:30s} {cumulative:9.2f} us  self {cumulative - below:9.2f} us")
        below = cumulative
    additive = thr3 + v["replication.transport.mp_hop_us"]
    lines.append(
        f"# ladder threaded(3) + mp_hop = {additive:.2f} us, "
        f"{additive / mp3:.2f} of parallel.multiproc.out_us measured directly"
    )
    return lines


def host_facts() -> dict[str, Any]:
    sha = None
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout, or no git: the sha stays unknown
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "switchinterval": sys.getswitchinterval(),
        "git_sha": sha,
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------- #
# agree
# --------------------------------------------------------------------------- #


def agree(path_a: str, path_b: str) -> list[str]:
    """Every end-to-end metric x workload on which two result sets differ by
    more than its bound in BENCHMARK.json (as a share of the better value)."""
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    if a["host"]["cpus"] != b["host"]["cpus"]:
        raise ValueError(
            f"refusing to compare: {path_a} ran on {a['host']['cpus']} cpus, "
            f"{path_b} on {b['host']['cpus']}"
        )
    with open(MANIFEST, encoding="utf-8") as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}

    def table(result: dict) -> dict[tuple[str, str], float]:
        return {
            (r["workload"], r["metric"]): r["value"]
            for r in result["results"] if r["kind"] == "end_to_end"
        }

    ta, tb = table(a), table(b)
    out = []
    for key in sorted(set(ta) | set(tb)):
        workload, metric = key
        if key not in ta or key not in tb:
            out.append(f"{workload} {metric}: in one result set only")
            continue
        va, vb = ta[key], tb[key]
        m = bounds[metric]
        better, worse = (max(va, vb), min(va, vb)) if m["better"] == "higher" else (
            min(va, vb), max(va, vb))
        gap = abs(worse - better) / abs(better) if better else float("inf")
        if gap > m["bound"]:
            out.append(
                f"{workload} {metric}: {va:.6g} vs {vb:.6g} {m['unit']} "
                f"differ by {gap:.1%} (bound {m['bound']:.0%})"
            )
    return out


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #


def main(argv: list[str] | None = None, contract: bool = False) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_worker"]:
        from benchmarks.suite import worker

        return worker.main(argv[1])
    if argv[:1] == ["agree"]:
        if len(argv) != 3:
            print("usage: agree A.json B.json", file=sys.stderr)
            return 2
        try:
            disagreements = agree(argv[1], argv[2])
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        for line in disagreements:
            print(line)
        print(f"{len(disagreements)} disagreement(s)")
        return 1 if disagreements else 0

    with open(MANIFEST, encoding="utf-8") as f:
        run_seconds = json.load(f)["run_seconds"]
    ap = argparse.ArgumentParser(prog="benchmarks.suite", description=__doc__)
    ap.add_argument("--workload", action="append", choices=spec.WORKLOAD_NAMES,
                    help="repeatable; default: all seven")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds,
                    help="timed seconds per workload, shared among the repeats")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="also (driver: only) run the traced pass; writes trace.json")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies resident sets and round sizes (smoke test: 0.02)")
    ap.add_argument("--out", help="write the results and host facts as JSON")
    args = ap.parse_args(argv)
    if contract and (not args.workload or len(args.workload) != 1):
        ap.error("the driver's command takes exactly one --workload")
    if args.repeats < 1 or args.seconds <= 0:
        ap.error("--repeats and --seconds must be positive")
    if importlib.util.find_spec("repro") is None:
        print("the repro package (src/repro) is not in this checkout", file=sys.stderr)
        return 2

    names = args.workload or spec.WORKLOAD_NAMES
    run = Run(args.seed, args.seconds, args.repeats, args.scale)
    try:
        for name in names:
            if not (contract and args.trace):
                run.end_to_end(name)
            if args.trace:
                run.per_layer(name)
        if args.trace:
            run.write_trace(os.path.join(os.getcwd(), "trace.json"))
            for line in ladder_lines(run.ladder["layer"]):
                print(line)
    finally:
        run.close()

    for line in run.failed_checks:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    for name, c in run.counts.items():
        print(f"{name} ops_attempted {c['ops_attempted']} count")
        print(f"{name} ops_failed {c['ops_failed']} count")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({
                "host": host_facts(),
                "args": {"seed": args.seed, "seconds": args.seconds,
                         "repeats": args.repeats, "scale": args.scale},
                "results": run.results, "counts": run.counts,
                "failed_checks": run.failed_checks,
            }, f, indent=1)
    if contract:
        kind = "per_layer" if args.trace else "end_to_end"
        c = run.counts[names[0]]
        print(json.dumps({
            "correct": not run.failed_checks,
            "attempted": c["ops_attempted"],
            "failed": c["ops_failed"],
            "metrics": {
                r["metric"]: {"value": r["value"], "unit": r["unit"]}
                for r in run.results if r["kind"] == kind
            },
        }))
    return 1 if run.failed_checks else 0

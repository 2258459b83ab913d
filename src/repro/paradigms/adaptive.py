"""Adaptive parallelism (Piranha-style) on the fault-tolerant bag.

The paper lists "ease of utilizing idle workstation cycles [18, 14]"
among the bag-of-tasks advantages — the Piranha model, where workers
*join* a computation when their workstation is idle and *retreat* when
its owner returns.  FT-Linda makes retreat trivially safe: a retreating
worker runs exactly the monitor's recycling statement on itself —

    < in(main, "worker", wid, host, ?prog) => move(prog, bag, "task", ?) >

— atomically deregistering and returning any in-progress subtask to the
bag.  A *retreat* is just a *crash* the worker performs politely on
itself, which is why the same statement serves both; the symmetry is the
point of the design.

:class:`AdaptiveBag` supports joining and retreating workers at any time;
``run_adaptive`` drives a join/retreat schedule and asserts nothing is
lost.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

from repro.core.ags import AGS, Branch, Guard, Op, ref
from repro.core.runtime import BaseRuntime, ProcessView
from repro.core.tuples import formal
from repro.paradigms.bag_of_tasks import STOP, WORKER_TAG

__all__ = ["AdaptiveBag", "run_adaptive"]


class AdaptiveBag:
    """A bag-of-tasks whose worker pool grows and shrinks at run time."""

    def __init__(self, runtime: BaseRuntime, compute: Callable[[Any], Any],
                 name: str = "adaptive"):
        self.runtime = runtime
        self.compute = compute
        self.name = name
        self.bag = runtime.create_space(f"{name}.bag")
        self.results = runtime.create_space(f"{name}.results")
        self._wid = 0
        self._lock = threading.Lock()
        self._retreat_flags: dict[int, threading.Event] = {}
        self._handles: dict[int, Any] = {}

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #

    def seed(self, payloads: Sequence[Any]) -> None:
        for p in payloads:
            self.runtime.out(self.bag, "task", p)

    def join(self) -> int:
        """A new worker joins; returns its id."""
        with self._lock:
            self._wid += 1
            wid = self._wid
        flag = threading.Event()
        self._retreat_flags[wid] = flag
        self._handles[wid] = self.runtime.eval_(self._worker, wid, flag)
        return wid

    def retreat(self, wid: int, timeout: float = 30.0) -> int:
        """Ask worker *wid* to retreat; returns tasks it completed."""
        self._retreat_flags[wid].set()
        return self._handles[wid].join(timeout=timeout)

    def shutdown(self, timeout: float = 30.0) -> dict[int, int]:
        """Stop every remaining worker via poison pills."""
        remaining = [
            wid for wid, h in self._handles.items() if not h.done
        ]
        for _ in remaining:
            self.runtime.out(self.bag, "task", STOP)
        return {
            wid: self._handles[wid].join(timeout=timeout) for wid in remaining
        }

    def collect(self, n: int, timeout: float = 30.0) -> list[tuple[Any, Any]]:
        out = []
        for _ in range(n):
            t = self.runtime.in_(
                self.results, "result", formal(), formal(), timeout=timeout
            )
            out.append((t[1], t[2]))
        return out

    # ------------------------------------------------------------------ #
    # the worker
    # ------------------------------------------------------------------ #

    def _worker(self, proc: ProcessView, wid: int, flag: threading.Event) -> int:
        main = proc.main_ts
        prog = proc.create_space(f"{self.name}.prog.{wid}")
        proc.out(main, WORKER_TAG, wid, wid, prog)
        take = AGS([
            Branch(
                Guard.inp(self.bag, "task", formal(object, "t")),
                [Op.out(prog, "task", ref("t"))],
            ),
            Branch(Guard.true(), []),
        ])
        done = 0
        while True:
            if flag.is_set():
                # retreat: EXACTLY the monitor's recycling statement, run
                # on ourselves — deregistration + subtask return, atomic
                proc.execute(AGS.single(
                    Guard.in_(main, WORKER_TAG, wid, wid, formal(object, "p")),
                    [Op.move(ref("p"), self.bag, "task", formal(object))],
                ))
                return done
            res = proc.execute(take)
            if res.fired != 0:
                time.sleep(0.002)  # bag momentarily empty; stay polite
                continue
            t = res["t"]
            if t == STOP:
                proc.execute(AGS.single(
                    Guard.in_(main, WORKER_TAG, wid, wid, formal(object, "p")),
                    [Op.in_(prog, "task", STOP)],
                ))
                return done
            result = self.compute(t)
            proc.execute(AGS.single(
                Guard.in_(prog, "task", t),
                [Op.out(self.results, "result", t, result)],
            ))
            done += 1


def run_adaptive(
    runtime: BaseRuntime,
    payloads: Sequence[Any],
    compute: Callable[[Any], Any],
    *,
    initial_workers: int = 2,
    join_after: Sequence[float] = (),
    retreat_first_after: float | None = None,
) -> dict[str, Any]:
    """Drive an adaptive run: start a pool, optionally grow and shrink it.

    Every payload must produce exactly one result no matter how the pool
    churns — the work-conservation property the retreat statement buys.
    """
    bag = AdaptiveBag(runtime, compute)
    bag.seed(payloads)
    wids = [bag.join() for _ in range(initial_workers)]
    retreated: dict[int, int] = {}
    for delay in join_after:
        time.sleep(delay)
        wids.append(bag.join())
    if retreat_first_after is not None:
        time.sleep(retreat_first_after)
        retreated[wids[0]] = bag.retreat(wids[0])
    results = bag.collect(len(payloads))
    completed_by = bag.shutdown()
    completed_by.update(retreated)
    return {
        "results": results,
        "completed_by": completed_by,
        "retreated": retreated,
    }

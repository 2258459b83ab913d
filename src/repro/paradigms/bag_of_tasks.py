"""Fault-tolerant bag-of-tasks — the paper's flagship paradigm (Sec. 4).

In the bag-of-tasks (replicated worker) paradigm, the tuple space is
seeded with subtask tuples; workers repeatedly withdraw a subtask, solve
it, and deposit a result.  Its advantages — "transparent scalability,
automatic load balancing, ease of utilizing idle workstation cycles, and
… easy extension to fault-tolerant operation" — are quoted straight from
the paper.

The classic version loses work: a worker that crashes after ``in``-ing a
subtask but before ``out``-ing the result takes the subtask with it.  The
FT-Linda version closes the window with two AGSs and a monitor:

1. **take**: ``< in(bag,"task",?t) => out(progʷ,"task",t) >`` — the
   subtask atomically moves to the worker's *in-progress* space, so it is
   never in limbo;
2. **finish**: ``< in(progʷ,"task",t) => out(results,"result",t,r) >`` —
   the in-progress record converts atomically into a result;
3. **monitor**: blocks on the distinguished *failure tuple*; for each
   worker registered on the dead host it executes
   ``< in(main,"worker",w,h,?prog) => move(prog, bag, "task", ?) >`` —
   atomically deregistering the worker and returning its in-progress
   subtasks to the bag for someone else to redo.

Tasks must be idempotent (redoing one is harmless), the paradigm's usual
requirement.

Both variants are driven by :func:`run_bag_of_tasks`; ``ft=False`` gives
the classic, work-losing version used as the baseline in experiment E6.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.ags import AGS, Guard, Op, ref
from repro.core.runtime import BaseRuntime, ProcessView
from repro.core.spaces import TSHandle
from repro.core.statemachine import FAILURE_TAG
from repro.core.tuples import formal

__all__ = ["BagOfTasks", "failure_monitor", "run_bag_of_tasks"]

#: Poison-pill payload telling a worker to exit.
STOP = "__bot_stop__"

#: First field of worker-registration tuples.
WORKER_TAG = "worker"


class BagOfTasks:
    """Shared state and statements of one bag-of-tasks computation.

    Parameters
    ----------
    runtime:
        The FT-Linda runtime (any backend).
    compute:
        ``compute(payload) -> result``; executed *outside* the AGSs, in
        the worker process, as the paradigm prescribes.
    ft:
        When True (FT-Linda mode) workers record in-progress tuples and a
        monitor recycles them on failure.  When False (classic Linda
        mode), workers use bare ``in``/``out`` — a crash between them
        loses the subtask.
    """

    def __init__(
        self,
        runtime: BaseRuntime,
        compute: Callable[[Any], Any],
        *,
        ft: bool = True,
        name: str = "bot",
    ):
        self.runtime = runtime
        self.compute = compute
        self.ft = ft
        self.name = name
        self.bag = runtime.create_space(f"{name}.bag")
        self.results = runtime.create_space(f"{name}.results")
        self._reg_ts = runtime.main_ts

    # ------------------------------------------------------------------ #
    # seeding and collecting
    # ------------------------------------------------------------------ #

    def seed(self, payloads: Sequence[Any]) -> None:
        """Deposit one subtask tuple per payload."""
        for p in payloads:
            self.runtime.out(self.bag, "task", p)

    def poison(self, n_workers: int) -> None:
        """Deposit stop pills so idle workers exit."""
        for _ in range(n_workers):
            self.runtime.out(self.bag, "task", STOP)

    def collect(self, n: int, timeout: float | None = None) -> list[tuple[Any, Any]]:
        """Withdraw *n* result tuples, blocking; returns (payload, result)."""
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

    def worker(
        self,
        proc: ProcessView,
        worker_id: int,
        host_id: int,
        should_crash: Callable[[int, int], bool] | None = None,
    ) -> int:
        """Worker process body: returns the number of subtasks completed.

        *should_crash(worker_id, k)* — when it returns True before solving
        the k-th taken subtask, the worker "crashes" (stops dead) inside
        the vulnerable window, leaving its in-progress tuple behind.  The
        caller is then responsible for the failure notification (the
        membership layer's job on a real cluster).
        """
        if self.ft:
            return self._ft_worker(proc, worker_id, host_id, should_crash)
        return self._classic_worker(proc, worker_id, host_id, should_crash)

    def _ft_worker(self, proc, worker_id, host_id, should_crash) -> int:
        prog = proc.create_space(f"{self.name}.prog.{worker_id}")
        proc.out(self._reg_ts, WORKER_TAG, worker_id, host_id, prog)
        take = AGS.single(
            Guard.in_(self.bag, "task", formal(object, "t")),
            [Op.out(prog, "task", ref("t"))],
        )
        done = 0
        while True:
            t = proc.execute(take)["t"]
            if t == STOP:
                # deregister and drop the pill from our in-progress space
                proc.execute(AGS.single(
                    Guard.in_(self._reg_ts, WORKER_TAG, worker_id, host_id,
                              formal(object, "p")),
                    [Op.in_(prog, "task", STOP)],
                ))
                return done
            if should_crash is not None and should_crash(worker_id, done):
                return done  # crash inside the window: prog tuple left behind
            result = self.compute(t)
            proc.execute(AGS.single(
                Guard.in_(prog, "task", t),
                [Op.out(self.results, "result", t, result)],
            ))
            done += 1

    def _classic_worker(self, proc, worker_id, host_id, should_crash) -> int:
        done = 0
        while True:
            t = proc.in_(self.bag, "task", formal())[1]
            if t == STOP:
                return done
            if should_crash is not None and should_crash(worker_id, done):
                return done  # subtask is simply GONE — classic Linda's flaw
            result = self.compute(t)
            proc.out(self.results, "result", t, result)
            done += 1

    # ------------------------------------------------------------------ #
    # the monitor (FT mode only)
    # ------------------------------------------------------------------ #

    def monitor(self, proc: ProcessView, n_failures: int) -> int:
        """Failure monitor for this bag (see :func:`failure_monitor`)."""
        return failure_monitor(proc, self._reg_ts, self.bag, n_failures)


def failure_monitor(
    proc: ProcessView, reg_ts: TSHandle, bag: TSHandle, n_failures: int
) -> int:
    """Recycle dead hosts' in-progress subtasks back into *bag*.

    Handles *n_failures* failure tuples and exits (tests and examples know
    how many crashes they inject; a production monitor loops forever).
    Returns the number of worker registrations recycled.

    The monitor itself is restartable: it only *reads* the failure tuple
    first, recycles every registered worker of that host in individually
    atomic steps, and withdraws the failure tuple last — so a monitor
    crash mid-recovery loses nothing (a successor redoes the remaining
    steps; recycling twice is harmless because each registration tuple can
    be consumed only once).
    """
    recycled = 0
    for _ in range(n_failures):
        h = proc.rd(reg_ts, FAILURE_TAG, formal(int))[1]
        while True:
            # atomically: deregister one worker of host h AND move its
            # in-progress subtasks back into the bag
            res = proc.execute(AGS([
                _recycle_branch(reg_ts, bag, h),
                _done_branch(),
            ]))
            if res.fired != 0:
                break
            recycled += 1
        proc.in_(reg_ts, FAILURE_TAG, h)
    return recycled


def _recycle_branch(reg_ts: TSHandle, bag: TSHandle, host: int):
    from repro.core.ags import Branch

    return Branch(
        Guard.inp(reg_ts, WORKER_TAG, formal(int, "w"), host, formal(object, "prog")),
        [Op.move(ref("prog"), bag, "task", formal(object))],
    )


def _done_branch():
    from repro.core.ags import Branch

    return Branch(Guard.true(), [])


def run_bag_of_tasks(
    runtime: BaseRuntime,
    payloads: Sequence[Any],
    n_workers: int,
    compute: Callable[[Any], Any],
    *,
    ft: bool = True,
    crash_workers: dict[int, int] | None = None,
    collect_timeout: float = 30.0,
) -> dict[str, Any]:
    """Run a complete bag-of-tasks computation on threads.

    Parameters
    ----------
    crash_workers:
        ``{worker_id: after_k_tasks}`` — those workers crash inside the
        vulnerable window after completing ``after_k_tasks`` subtasks.
        Each worker is modeled as its own host (the paper's workers run
        one per processor), so a worker crash triggers one failure tuple.
    collect_timeout:
        Wall-clock bound on waiting for results.  In FT mode all results
        arrive; in classic mode crashed workers' subtasks are lost and the
        run reports how many results never came.

    Returns a report dict: ``results``, ``lost`` (count), ``recycled``.
    """
    crash_workers = dict(crash_workers or {})
    bot = BagOfTasks(runtime, compute, ft=ft)
    bot.seed(payloads)

    def should_crash(wid: int, k: int) -> bool:
        return crash_workers.get(wid, -1) == k

    handles = []
    for w in range(n_workers):
        handles.append(
            runtime.eval_(bot.worker, w, w, should_crash if crash_workers else None)
        )

    mon_handle = None
    if ft and crash_workers:
        mon_handle = runtime.eval_(bot.monitor, len(crash_workers))

    # inject the failure notifications once the doomed workers have died
    import time

    for wid in crash_workers:
        while not handles[wid].done:
            time.sleep(0.002)
        if ft:
            # classic Linda has no failure notification at all — only the
            # FT runtime converts the silent crash into a failure tuple
            runtime.inject_failure(wid)

    # every crashing worker dies holding exactly one subtask; in FT mode
    # the monitor recycles it (all results arrive), in classic mode it is
    # lost for good
    expected = len(payloads) if ft else len(payloads) - len(crash_workers)
    results: list[tuple[Any, Any]] = []
    for _ in range(expected):
        t = runtime.in_(
            bot.results, "result", formal(), formal(), timeout=collect_timeout
        )
        results.append((t[1], t[2]))
    # confirm nothing beyond the expected count straggles in (classic mode:
    # the lost subtasks really are gone)
    lost = len(payloads) - len(results)
    bot.poison(n_workers)
    for wid, h in enumerate(handles):
        if wid in crash_workers:
            continue
        h.join(timeout=collect_timeout)
    recycled = mon_handle.join(timeout=collect_timeout) if mon_handle else 0
    return {"results": results, "lost": lost, "recycled": recycled}

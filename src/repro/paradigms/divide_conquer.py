"""Fault-tolerant divide and conquer (paper Sec. 4.1).

"The basic structure of divide and conquer is similar to the bag-of-tasks
… The difference comes in the actions of the worker.  Here, upon
withdrawing a subtask tuple, the worker first determines if the subtask is
small enough … If so, the task is performed and the result tuple
deposited" — otherwise it splits the subtask and deposits the pieces.

This implementation adds the bookkeeping that makes termination and
combination fault-tolerant too:

- a **pending counter** tuple tracks how many subtasks exist; splitting a
  task into *k* children adjusts it by ``k-1`` *in the same AGS* that
  retires the parent, so a crash can never corrupt the count;
- an **accumulator** tuple folds results with a *registered deterministic
  combine function*, again in the same AGS that retires the solved task —
  result delivery and task retirement are indivisible;
- in-progress tuples + the bag-of-tasks monitor give crash recovery: a
  dead worker's taken-but-unfinished subtasks return to the bag.

The computation is complete exactly when the pending counter hits zero,
which any process can await with a plain blocking ``rd``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro._errors import AGSError
from repro.core.ags import AGS, Const, Expr, Guard, Op, ref, register_function
from repro.core.runtime import BaseRuntime, ProcessView
from repro.core.tuples import formal
from repro.paradigms.bag_of_tasks import STOP, WORKER_TAG, failure_monitor

__all__ = ["run_divide_conquer", "ensure_function"]


def ensure_function(name: str, fn: Callable[..., Any]) -> str:
    """Register *fn* as a deterministic AGS function, idempotently."""
    try:
        register_function(name, fn)
    except AGSError:
        pass  # already registered (same name implies same function here)
    return name


def run_divide_conquer(
    runtime: BaseRuntime,
    root_task: Any,
    n_workers: int,
    *,
    is_small: Callable[[Any], bool],
    solve: Callable[[Any], Any],
    split: Callable[[Any], Sequence[Any]],
    combine_name: str,
    combine: Callable[[Any, Any], Any],
    identity: Any,
    crash_workers: dict[int, int] | None = None,
    name: str = "dc",
) -> dict[str, Any]:
    """Solve *root_task* by fault-tolerant divide and conquer.

    Parameters
    ----------
    is_small / solve / split:
        The problem decomposition, executed in worker processes.
    combine_name / combine / identity:
        An associative fold for results; *combine* is registered as a
        deterministic function so the accumulation happens *inside* the
        retirement AGS.
    crash_workers:
        ``{worker_id: after_k_subtasks}`` crash schedule, as in
        :func:`~repro.paradigms.bag_of_tasks.run_bag_of_tasks`.

    Returns ``{"result", "solved", "recycled"}``.
    """
    ensure_function(combine_name, combine)
    crash_workers = dict(crash_workers or {})
    main = runtime.main_ts
    bag = runtime.create_space(f"{name}.bag")
    runtime.out(main, name, "pending", 1)
    runtime.out(main, name, "acc", identity)
    runtime.out(bag, "task", root_task)

    def should_crash(wid: int, k: int) -> bool:
        return crash_workers.get(wid, -1) == k

    def worker(proc: ProcessView, wid: int) -> int:
        prog = proc.create_space(f"{name}.prog.{wid}")
        proc.out(main, WORKER_TAG, wid, wid, prog)
        take = AGS.single(
            Guard.in_(bag, "task", formal(object, "t")),
            [Op.out(prog, "task", ref("t"))],
        )
        handled = 0
        while True:
            t = proc.execute(take)["t"]
            if t == STOP:
                proc.execute(AGS.single(
                    Guard.in_(main, WORKER_TAG, wid, wid, formal(object, "p")),
                    [Op.in_(prog, "task", STOP)],
                ))
                return handled
            if crash_workers and should_crash(wid, handled):
                return handled  # dies holding an in-progress subtask
            if is_small(t):
                r = solve(t)
                # retire + accumulate + decrement, indivisibly
                proc.execute(AGS.single(
                    Guard.in_(prog, "task", t),
                    [
                        Op.in_(main, name, "acc", formal(object, "a")),
                        Op.out(main, name, "acc",
                               Expr(combine_name, (ref("a"), Const(r)))),
                        Op.in_(main, name, "pending", formal(int, "p")),
                        Op.out(main, name, "pending", ref("p") - 1),
                    ],
                ))
            else:
                children = list(split(t))
                body = [Op.out(bag, "task", c) for c in children]
                body += [
                    Op.in_(main, name, "pending", formal(int, "p")),
                    Op.out(main, name, "pending", ref("p") + (len(children) - 1)),
                ]
                proc.execute(AGS.single(Guard.in_(prog, "task", t), body))
            handled += 1

    handles = [runtime.eval_(worker, w) for w in range(n_workers)]

    recycled = 0
    if crash_workers:
        mon = runtime.eval_(failure_monitor, main, bag, len(crash_workers))
        for wid in crash_workers:
            while not handles[wid].done:
                time.sleep(0.002)
            runtime.inject_failure(wid)
    # completion: the pending counter reaches zero
    runtime.rd(main, name, "pending", 0)
    if crash_workers:
        recycled = mon.join(timeout=30)
    for _ in range(n_workers):
        runtime.out(bag, "task", STOP)
    solved = 0
    for wid, h in enumerate(handles):
        if wid in crash_workers:
            continue
        solved += h.join(timeout=30)
    result = runtime.in_(main, name, "acc", formal())[2]
    runtime.in_(main, name, "pending", 0)
    return {"result": result, "solved": solved, "recycled": recycled}

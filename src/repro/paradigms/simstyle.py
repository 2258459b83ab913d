"""Sec. 4 paradigms as simulation-side generator processes.

The thread-based paradigm implementations (:mod:`repro.paradigms`) run on
the synchronous :class:`~repro.core.runtime.BaseRuntime` API.  Client
processes on the *simulated* cluster are generators instead, so this
module provides the same paradigm roles in generator form — the exact
statements, yielded:

- :func:`ft_worker` — take-AGS, compute, finish-AGS, with an optional
  freeze point modeling a crash window;
- :func:`failure_monitor` — blocks on the distinguished failure tuple and
  recycles the dead host's registered workers;
- :func:`collector` — withdraws result tuples;
- :func:`seed_bag` — creates and fills the bag space.

They are used by the distributed-paradigm tests and by the E6b benchmark,
where the failure tuple comes from the real membership protocol (crash →
silence → suspicion → ordered HostFailed) rather than injection.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.ags import AGS, Branch, Guard, Op, ref
from repro.core.statemachine import FAILURE_TAG
from repro.core.tuples import formal
from repro.sim.process import hold

__all__ = ["collector", "failure_monitor", "ft_worker", "seed_bag"]

#: Poison-pill payload telling a sim worker to exit.
STOP = "stop"


def seed_bag(view, payloads: Sequence[Any]):
    """Create the bag space, fill it, and publish its handle as ``bag-handle``."""
    bag = yield view.create_space("bag")
    for p in payloads:
        yield view.out(bag, "task", p)
    yield view.out(view.main_ts, "bag-handle", bag)
    return bag


def ft_worker(
    view,
    bag,
    wid: int,
    *,
    compute: Callable[[Any], Any] | None = None,
    freeze_after: int | None = None,
):
    """The paper's FT worker: take atomically, compute, finish atomically.

    ``freeze_after=k`` freezes the worker (forever) right after taking its
    (k+1)-th task — modeling the crash window; the test/bench then crashes
    the host and the monitor recycles the frozen task.
    Returns the number of tasks completed.
    """
    prog = yield view.create_space(f"prog.{wid}")
    yield view.out(view.main_ts, "worker", wid, view.host_id, prog)
    take = AGS.single(
        Guard.in_(bag, "task", formal(object, "t")),
        [Op.out(prog, "task", ref("t"))],
    )
    fn = compute if compute is not None else (lambda t: t * t)
    done = 0
    while True:
        res = yield view.execute(take)
        t = res["t"]
        if t == STOP:
            yield view.execute(AGS.single(
                Guard.in_(view.main_ts, "worker", wid, view.host_id,
                          formal(object, "p")),
                [Op.in_(prog, "task", STOP)],
            ))
            return done
        if freeze_after is not None and done >= freeze_after:
            yield hold(10_000_000_000.0)  # the crash window, frozen open
        yield hold(2_000.0)  # 2 ms of simulated compute per task
        yield view.execute(AGS.single(
            Guard.in_(prog, "task", t),
            [Op.out(view.main_ts, "result", t, fn(t))],
        ))
        done += 1


def failure_monitor(view, bag, n_failures: int):
    """Recycle failed hosts' in-progress tasks; exits after *n_failures*.

    Restartable by construction: the failure tuple is only *read* until
    every registered worker of the dead host has been recycled, each in
    one atomic statement.
    """
    recycled = 0
    for _ in range(n_failures):
        t = yield view.rd(view.main_ts, FAILURE_TAG, formal(int))
        h = t[1]
        while True:
            res = yield view.execute(AGS([
                Branch(
                    Guard.inp(view.main_ts, "worker", formal(int, "w"), h,
                              formal(object, "prog")),
                    [Op.move(ref("prog"), bag, "task", formal(object))],
                ),
                Branch(Guard.true(), []),
            ]))
            if res.fired != 0:
                break
            recycled += 1
        yield view.in_(view.main_ts, FAILURE_TAG, h)
    return recycled


def collector(view, n: int):
    """Withdraw *n* result tuples; returns [(payload, result), …]."""
    got = []
    for _ in range(n):
        t = yield view.in_(view.main_ts, "result", formal(), formal())
        got.append((t[1], t[2]))
    return got


def poison(view, bag, n_workers: int):
    """Deposit stop pills for *n_workers*."""
    for _ in range(n_workers):
        yield view.out(bag, "task", STOP)

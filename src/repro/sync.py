"""The replicated path's one blocking vocabulary: locks, FIFOs, threads, time.

Every lock, condition, FIFO, thread start, sleep and clock read in
``replication/``, ``core/runtime.py``, ``persist/runtime.py``,
``obs/profile.py`` and ``chaos.py`` comes from this module, and CI's
*Structure budget* step fails on any other.  Callers import the module
and read ``sync.X`` when they call it, never ``from repro.sync import X``:
a test that swaps an attribute here (a virtual clock, a seeded scheduler)
then swaps it for every caller at once.

The names a statement uses are the C primitives themselves, so the path
pays an attribute lookup and no Python-level call: :data:`now` *is*
``time.monotonic`` and :data:`Lock` *is* ``threading.Lock``.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

__all__ = ["Cond", "Fifo", "Latch", "Lock", "backoff", "now", "sleep", "spawn"]

Lock = threading.Lock
#: An unbounded FIFO between threads (a replica's command lane).
Fifo = queue.SimpleQueue
#: The clock every duration, deadline and timestamp on the path reads.
#: ``CLOCK_MONOTONIC`` is system-wide on Linux, so a stamp taken in one
#: process subtracts cleanly in another.
now = time.monotonic
sleep = time.sleep


def Cond(lock: Any) -> threading.Condition:  # noqa: N802 - a constructor
    """A predicate wait on *lock* (``None``: its own ``RLock``), built once per
    owner.  It looks ``threading.Condition`` up when called, so a test that
    patches ``threading`` sees every one."""
    return threading.Condition(lock)


class Latch:
    """A one-shot wake on one :data:`Lock` (an ``Event`` is a Python
    ``Condition``), held from birth until :meth:`set`.  One waiter, and one
    setter: whoever pops the registration.  So a second set is a bug:
    ``RuntimeError``.  Swapping ``sync.Lock`` swaps what a latch is built on."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = Lock()
        self._lock.acquire()

    def set(self) -> None:
        self._lock.release()

    def wait(self, timeout: float | None = None) -> bool:
        """True once set; like ``Event.wait``, 0 or less does not block."""
        got = self._lock.acquire(True, -1 if timeout is None else max(timeout, 0))
        if got:
            self._lock.release()  # every later wait returns True too
        return got


def spawn(target: Callable[..., Any], *args: Any, name: str) -> threading.Thread:
    """Start a daemon thread running ``target(*args)`` and return it."""
    t = threading.Thread(target=target, args=args, name=name, daemon=True)
    t.start()
    return t


def backoff(attempt: int, first: float, cap: float) -> float:
    """The wait before retry *attempt* (from 0) of a capped doubling ladder:
    *first*, twice that, ... never more than *cap*.  The exponent stops at
    1023, a float's largest, so an unbounded retry stays on *cap*."""
    return min(first * 2.0 ** min(attempt, 1023), cap)

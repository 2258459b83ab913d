"""Reusable barrier synchronization on tuple space.

A classic Linda coordination structure, here built from a single AGS so
that the arrival count can never be lost to a crash between the ``in`` and
the ``out`` of the counter (the distributed-variable failure mode of
Sec. 2.2 applies verbatim to barrier counters).

Sense-reversing design: a *generation* tuple ``(name,"gen",g)`` and a
counter ``(name,"count",k)``.  Arrivals atomically increment the counter;
the last arriver (it knows, because the AGS binds the old count) atomically
resets the counter and advances the generation; everyone else blocks
reading the next generation.  The barrier is immediately reusable.
"""

from __future__ import annotations

from typing import Any

from repro.core.ags import AGS, Guard, Op, ref
from repro.core.spaces import TSHandle
from repro.core.tuples import formal

__all__ = ["Barrier"]


class Barrier:
    """A reusable n-party barrier in tuple space *ts*.

    One party (usually the coordinator) calls :meth:`setup` once; every
    participant then calls :meth:`arrive` per phase.
    """

    def __init__(self, api: Any, ts: TSHandle, n: int, name: str = "barrier"):
        if n < 1:
            raise ValueError("a barrier needs at least one party")
        self.api = api
        self.ts = ts
        self.n = n
        self.name = name

    def setup(self) -> None:
        """Create the counter and generation tuples (call exactly once)."""
        self.api.out(self.ts, self.name, "count", 0)
        self.api.out(self.ts, self.name, "gen", 0)

    def arrive(self, api: Any | None = None) -> int:
        """Block until all *n* parties arrive; returns the new generation.

        Pass a per-process *api* (a :class:`~repro.core.runtime.ProcessView`)
        when workers share one Barrier object.
        """
        api = api if api is not None else self.api
        # increment the count and read the generation in ONE atomic step —
        # reading it separately races with a fast last-arriver advancing
        # the generation first (a body ``rd`` binds without withdrawing)
        res = api.execute(AGS.single(
            Guard.in_(self.ts, self.name, "count", formal(int, "k")),
            [
                Op.rd(self.ts, self.name, "gen", formal(int, "g")),
                Op.out(self.ts, self.name, "count", ref("k") + 1),
            ],
        ))
        k, g = res["k"], res["g"]
        if k + 1 == self.n:
            # last arriver: reset count and open the next generation, atomically
            api.execute(AGS.single(
                Guard.in_(self.ts, self.name, "count", self.n),
                [
                    Op.out(self.ts, self.name, "count", 0),
                    Op.in_(self.ts, self.name, "gen", formal(int, "g")),
                    Op.out(self.ts, self.name, "gen", ref("g") + 1),
                ],
            ))
            return g + 1
        # wait for the generation to advance
        api.rd(self.ts, self.name, "gen", g + 1)
        return g + 1

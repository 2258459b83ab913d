"""Ordered streams on tuple space — the classic in-stream/out-stream idiom.

Linda programs build ordered, multi-producer/multi-consumer streams from
an index pair: a ``head`` counter (next element to consume), a ``tail``
counter (next slot to produce into), and one tuple per element.  Classic
Linda implements the counters with the in-then-out update, inheriting all
of Sec. 2.2's crash windows: a producer dying between ``in(tail)`` and
``out(tail+1)`` wedges the stream forever.

The FT-Linda version makes each transition one AGS:

- **append**: ``< in(tail,?t) => out(elem,t,v); out(tail,t+1) >`` — the
  element and the counter move together;
- **pop** (multi-consumer): read the head index, wait for that element
  to exist, then atomically ``< in(head,h) => in(elem,h,?v); out(head,h+1) >``
  — the guard's exact-match on ``h`` makes it a CAS: if another consumer
  got there first we re-read and retry.  The wait is bounded for the same
  reason: once another consumer has taken slot ``h`` nobody will ever
  fill it again, so a consumer waiting there must look at the head anew.

On a stable tuple space the stream (contents *and* cursors) survives any
crash, and every element is consumed exactly once.
"""

from __future__ import annotations

from typing import Any

from repro._errors import TimeoutError_
from repro.core.ags import AGS, Guard, Op, ref
from repro.core.spaces import TSHandle
from repro.core.tuples import formal

__all__ = ["TupleStream"]

#: How long a consumer waits on one slot before re-reading the head.
_SLOT_WAIT_S = 0.05


class TupleStream:
    """A named, ordered, exactly-once stream in tuple space *ts*."""

    def __init__(self, ts: TSHandle, name: str):
        self.ts = ts
        self.name = name

    def create(self, api: Any) -> None:
        """Initialize the cursors (call once)."""
        api.out(self.ts, self.name, "head", 0)
        api.out(self.ts, self.name, "tail", 0)

    # ------------------------------------------------------------------ #
    # producing
    # ------------------------------------------------------------------ #

    def append(self, api: Any, value: Any) -> int:
        """Atomically append *value*; returns its index."""
        res = api.execute(AGS.single(
            Guard.in_(self.ts, self.name, "tail", formal(int, "t")),
            [
                Op.out(self.ts, self.name, "elem", ref("t"), value),
                Op.out(self.ts, self.name, "tail", ref("t") + 1),
            ],
        ))
        return res["t"]

    # ------------------------------------------------------------------ #
    # consuming
    # ------------------------------------------------------------------ #

    def pop(self, api: Any) -> Any:
        """Withdraw the next element, blocking; multi-consumer safe."""
        while True:
            h = api.rd(self.ts, self.name, "head", formal(int))[2]
            # wait until slot h exists (a producer will make it) — but not
            # for ever: a consumer that claimed slot h since we read the
            # head left a slot nobody will fill again
            try:
                api.rd(self.ts, self.name, "elem", h, formal(), timeout=_SLOT_WAIT_S)
            except TimeoutError_:
                continue
            # CAS on the head: succeeds only if we are still the consumer
            # entitled to slot h
            res = api.execute(AGS([
                _claim_branch(self.ts, self.name, h),
                _lost_race_branch(),
            ]))
            if res.fired == 0:
                return res["v"]
            # somebody else advanced the head; retry with the new index

    def try_pop(self, api: Any) -> Any | None:
        """Non-blocking pop with strong probe semantics."""
        h_t = api.rdp(self.ts, self.name, "head", formal(int))
        if h_t is None:
            return None
        h = h_t[2]
        res = api.execute(AGS([
            _claim_if_present_branch(self.ts, self.name, h),
            _lost_race_branch(),
        ]))
        if res.fired == 0:
            return res["v"]
        return None

    def peek_range(self, api: Any) -> tuple[int, int]:
        """(head, tail): indices of the next pop and the next append."""
        h = api.rd(self.ts, self.name, "head", formal(int))[2]
        t = api.rd(self.ts, self.name, "tail", formal(int))[2]
        return h, t

    def length(self, api: Any) -> int:
        h, t = self.peek_range(api)
        return t - h


def _claim_branch(ts: TSHandle, name: str, h: int):
    from repro.core.ags import Branch

    return Branch(
        Guard.in_(ts, name, "head", h),
        [
            Op.in_(ts, name, "elem", h, formal(object, "v")),
            Op.out(ts, name, "head", h + 1),
        ],
    )


def _claim_if_present_branch(ts: TSHandle, name: str, h: int):
    """Like _claim_branch but aborts cleanly when slot h is empty."""
    from repro.core.ags import Branch

    return Branch(
        Guard.inp(ts, name, "elem", h, formal(object, "v")),
        [
            Op.in_(ts, name, "head", h),
            Op.out(ts, name, "head", h + 1),
        ],
    )


def _lost_race_branch():
    from repro.core.ags import Branch

    return Branch(Guard.true(), [])

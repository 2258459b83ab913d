"""The distributed variable — the paper's motivating example (Sec. 2.2).

A distributed variable is a value stored as a tuple so any process can
read or modify it:

=============  =========================================
Initialization ``out(count, value)``
Inspection     ``rd(count, ?value)``
Updating       ``in(count, ?old)`` … ``out(count, new)``
=============  =========================================

The paper's point: in classic Linda the *update* row is two separate
operations.  A crash between the ``in`` and the ``out`` loses the variable
forever (every later ``in``/``rd`` blocks); a concurrent reader can also
observe the variable missing.  FT-Linda's AGS closes the window:
``< in(count,?old) => out(count, f(old)) >`` is all-or-nothing.

:class:`DistributedVariable` packages both forms — the safe AGS update and
the deliberately unsafe classic one (:meth:`DistributedVariable.unsafe_in`
/ :meth:`unsafe_out`) that benchmarks E10 uses to demonstrate the failure
mode.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.ags import AGS, Guard, Op, Operand, as_operand, ref
from repro.core.spaces import TSHandle
from repro.core.tuples import Formal, formal

__all__ = ["DistributedVariable"]


class DistributedVariable:
    """A named, typed shared variable in a tuple space.

    Parameters
    ----------
    api:
        Anything exposing the runtime operation API: a
        :class:`~repro.core.runtime.BaseRuntime` or a
        :class:`~repro.core.runtime.ProcessView`.
    ts:
        The tuple space holding the variable (stable ⇒ the variable
        survives crashes: a *recoverable* distributed variable).
    name:
        First tuple field, e.g. ``("count", 7)`` for ``name="count"``.
    vtype:
        Exact type of the value; used in every match pattern.
    """

    def __init__(self, api: Any, ts: TSHandle, name: str, vtype: type = int):
        self.api = api
        self.ts = ts
        self.name = name
        self.vtype = vtype

    # -- lifecycle --------------------------------------------------------- #

    def init(self, value: Any) -> None:
        """Initialization: ``out(name, value)``."""
        self.api.out(self.ts, self.name, value)

    def destroy(self) -> Any:
        """Withdraw the variable; returns its final value."""
        return self.api.in_(self.ts, self.name, formal(self.vtype))[1]

    # -- inspection ---------------------------------------------------------- #

    def value(self) -> Any:
        """Inspection: ``rd(name, ?value)`` (blocks while mid-unsafe-update)."""
        return self.api.rd(self.ts, self.name, formal(self.vtype))[1]

    def try_value(self) -> Any | None:
        """Non-blocking inspection with strong ``rdp`` semantics."""
        t = self.api.rdp(self.ts, self.name, formal(self.vtype))
        return None if t is None else t[1]

    def exists(self) -> bool:
        return self.try_value() is not None

    # -- safe (atomic) updates ------------------------------------------------ #

    def update_ags(self, make_new: Callable[[Operand], Any]) -> AGS:
        """Build the atomic-update statement without executing it.

        *make_new* receives the bound old value as an operand (``ref``) and
        returns the operand for the new value — e.g.
        ``lambda old: old + 1``.  Because operands compose only registered
        deterministic functions, the resulting statement is replica-safe.
        """
        old = ref("_dv_old")
        new = as_operand(make_new(old))
        return AGS.single(
            Guard.in_(self.ts, self.name, Formal(self.vtype, "_dv_old")),
            [Op.out(self.ts, self.name, new)],
        )

    def update(self, make_new: Callable[[Operand], Any]) -> Any:
        """Atomically replace the value; returns the *old* value.

        This is the paper's ``< in(count,?old) => out(count,new) >``.
        """
        res = self.api.execute(self.update_ags(make_new))
        return res["_dv_old"]

    def add(self, delta: Any) -> Any:
        """Atomic ``+= delta``; returns the old value."""
        return self.update(lambda old: old + delta)

    def set(self, value: Any) -> Any:
        """Atomic overwrite; returns the old value."""
        return self.update(lambda _old: as_operand(value))

    def compare_and_set(self, expected: Any, value: Any) -> bool:
        """Atomic CAS using guard matching on the expected value."""
        res = self.api.execute(
            AGS([
                _cas_branch(self.ts, self.name, expected, value),
                _default_branch(),
            ])
        )
        return res.fired == 0

    # -- unsafe (classic Linda) updates ---------------------------------------- #

    def unsafe_in(self) -> Any:
        """First half of a classic two-op update: withdraw the variable.

        Between this call and :meth:`unsafe_out` the variable does not
        exist.  A crash here loses it — the failure window the paper's
        Sec. 2.2 describes.  Provided for the baseline experiments.
        """
        return self.api.in_(self.ts, self.name, formal(self.vtype))[1]

    def unsafe_out(self, value: Any) -> None:
        """Second half of a classic two-op update."""
        self.api.out(self.ts, self.name, value)


def _cas_branch(ts: TSHandle, name: str, expected: Any, value: Any):
    from repro.core.ags import Branch

    return Branch(
        Guard.in_(ts, name, expected),
        [Op.out(ts, name, value)],
    )


def _default_branch():
    from repro.core.ags import Branch

    return Branch(Guard.true(), [])

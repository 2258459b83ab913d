"""Checkpoint and recovery on stable tuple space.

The paper's stable storage is motivated exactly this way (Sec. 2.2):
"checkpoint and recovery is a technique based on saving key values in
stable storage so that an application process can recover to some
intermediate state following a failure" — and private stable spaces exist
so a process can checkpoint *its own* state without interference.

Two tools:

- :class:`Checkpoint` — a single atomically-replaced (step, state) record.
  ``save`` is one AGS, so there is never a moment with zero or two
  checkpoints, no matter when the saver crashes;
- :func:`checkpoint_space` — snapshot a whole (e.g. volatile scratch)
  space into a stable one in one atomic statement, built from the
  paper's ``move``/``copy`` primitives.

:func:`run_with_recovery` demonstrates the full loop: a worker computes
``n_steps`` iterations checkpointing as it goes, crashes at a chosen
step, and a successor resumes from the last checkpoint — recomputing only
the steps after it.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.ags import AGS, Branch, Guard, Op
from repro.core.runtime import BaseRuntime
from repro.core.spaces import Resilience, Scope, TSHandle
from repro.core.tuples import formal

__all__ = ["Checkpoint", "checkpoint_space", "run_with_recovery"]


class Checkpoint:
    """An atomically-replaced (step, state) record in a stable space."""

    def __init__(self, ts: TSHandle, name: str):
        if not ts.stable:
            raise ValueError(
                "checkpoints belong in a STABLE space; a volatile one "
                "vanishes with exactly the crash it should survive"
            )
        self.ts = ts
        self.name = name

    def save(self, api: Any, step: int, state: Any) -> None:
        """Replace the checkpoint (or create it) — all-or-nothing."""
        api.execute(AGS([
            Branch(
                Guard.in_(self.ts, self.name, formal(int), formal(object)),
                [Op.out(self.ts, self.name, step, state)],
            ),
            Branch(
                Guard.true(),
                [Op.out(self.ts, self.name, step, state)],
            ),
        ]))

    def load(self, api: Any) -> tuple[int, Any] | None:
        """The last saved (step, state), or None if never saved."""
        t = api.rdp(self.ts, self.name, formal(int), formal(object))
        return None if t is None else (t[1], t[2])

    def clear(self, api: Any) -> bool:
        """Remove the checkpoint; True if one existed."""
        return api.inp(self.ts, self.name, formal(int), formal(object)) is not None


def checkpoint_space(
    api: Any,
    scratch: TSHandle,
    stable: TSHandle,
    *pattern: Any,
    tag: str = "ckpt",
) -> None:
    """Atomically replace *stable*'s snapshot with *scratch*'s contents.

    One AGS: drop the old snapshot (``in`` the generation marker + ``move``
    the old tuples out of existence is not expressible without a trash
    space, so we use one), then ``copy`` the scratch contents in.  The
    whole transition is invisible to concurrent readers: they see the old
    snapshot or the new one, never a mixture.
    """
    trash = api.create_space(f"{tag}.trash", Resilience.STABLE, Scope.SHARED)
    api.execute(AGS.atomic(
        Op.move(stable, trash, *pattern),
        Op.copy(scratch, stable, *pattern),
    ))
    api.destroy_space(trash)


def run_with_recovery(
    runtime: BaseRuntime,
    name: str,
    step_fn: Callable[[int, Any], Any],
    initial_state: Any,
    n_steps: int,
    *,
    crash_at: int | None = None,
) -> dict[str, Any]:
    """Compute ``state = step_fn(i, state)`` for i in [0, n_steps).

    The worker checkpoints after every step.  With ``crash_at=k`` it dies
    right after completing step k (before anything else); a successor
    process then resumes from the checkpoint.  Returns the final state
    plus the recovery bookkeeping, so tests can assert that only the
    remaining steps were recomputed.
    """
    ckpt = Checkpoint(runtime.main_ts, name)
    executed: list[int] = []

    def worker(proc, crash: int | None) -> Any:
        loaded = ckpt.load(proc)
        step, state = (0, initial_state) if loaded is None else (
            loaded[0] + 1, loaded[1]
        )
        while step < n_steps:
            state = step_fn(step, state)
            executed.append(step)
            ckpt.save(proc, step, state)
            if crash is not None and step == crash:
                return None  # crash: stop dead, checkpoint intact
            step += 1
        return state

    h = runtime.eval_(worker, crash_at)
    result = h.join(timeout=60)
    recovered_from = None
    if crash_at is not None and result is None:
        loaded = ckpt.load(runtime)
        recovered_from = None if loaded is None else loaded[0]
        h2 = runtime.eval_(worker, None)
        result = h2.join(timeout=60)
    return {
        "result": result,
        "steps_executed": list(executed),
        "recovered_from": recovered_from,
    }

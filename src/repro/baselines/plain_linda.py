"""Classic Linda: the baseline FT-Linda is measured against.

Three deliberate regressions relative to FT-Linda, each matching a
deficiency Sec. 2 of the paper identifies:

1. **single-op atomicity** — :meth:`PlainLindaRuntime.execute` rejects any
   statement bigger than one operation, so multi-op updates must be coded
   as separate statements with a failure window between them;
2. **no failure notification** — there are no failure tuples; a crashed
   worker's disappearance is silent (``inject_failure`` refuses);
3. optionally **weak probe semantics** — distributed Linda kernels without
   totally ordered operations cannot promise that a failed ``inp``/``rdp``
   means no matching tuple existed ("of all other distributed Linda
   implementations … only [4] offers similar [strong] semantics", Sec. 6).
   ``weak_probe_miss_rate`` injects exactly that false-negative behavior,
   seeded for reproducibility.
"""

from __future__ import annotations

import random
import threading
from typing import Any

from repro._errors import AGSError
from repro.core.ags import AGS, AGSResult, GuardKind
from repro.core.runtime import LocalRuntime
from repro.core.spaces import TSHandle
from repro.core.tuples import LindaTuple

__all__ = ["PlainLindaRuntime"]


class PlainLindaRuntime(LocalRuntime):
    """Classic Linda semantics on the local backend."""

    def __init__(self, *, weak_probe_miss_rate: float = 0.0, seed: int = 0):
        super().__init__()
        self.weak_probe_miss_rate = weak_probe_miss_rate
        self._weak_rng = random.Random(seed)
        self._weak_lock = threading.Lock()
        self.false_negatives = 0

    # ------------------------------------------------------------------ #
    # single-op atomicity
    # ------------------------------------------------------------------ #

    def _submit(
        self,
        ags: AGS,
        process_id: int,
        *,
        timeout: float | None = None,
        actuals: tuple = (),
    ) -> AGSResult:
        self._reject_multi_op(ags)
        return super()._submit(ags, process_id, timeout=timeout, actuals=actuals)

    @staticmethod
    def _reject_multi_op(ags: AGS) -> None:
        if len(ags.branches) > 1:
            raise AGSError(
                "plain Linda has no disjunction: one operation per statement"
            )
        branch = ags.branches[0]
        n_ops = len(branch.body) + (1 if branch.guard.kind is GuardKind.OP else 0)
        if n_ops > 1:
            raise AGSError(
                "plain Linda offers single-op atomicity only; "
                f"this statement contains {n_ops} operations"
            )

    # ------------------------------------------------------------------ #
    # weak probes
    # ------------------------------------------------------------------ #

    def inp(self, ts: TSHandle, *fields: Any, process_id: int = 0) -> LindaTuple | None:
        if self._weak_miss():
            return None  # false negative: a matching tuple may well exist
        return super().inp(ts, *fields, process_id=process_id)

    def rdp(self, ts: TSHandle, *fields: Any, process_id: int = 0) -> LindaTuple | None:
        if self._weak_miss():
            return None
        return super().rdp(ts, *fields, process_id=process_id)

    def _weak_miss(self) -> bool:
        if self.weak_probe_miss_rate <= 0.0:
            return False
        with self._weak_lock:
            miss = self._weak_rng.random() < self.weak_probe_miss_rate
        if miss:
            self.false_negatives += 1
        return miss

    # ------------------------------------------------------------------ #
    # no failure notification
    # ------------------------------------------------------------------ #

    def inject_failure(self, host_id: int) -> None:  # noqa: D102
        raise AGSError(
            "plain Linda provides no failure notification: crashed workers "
            "vanish silently (this is the deficiency FT-Linda fixes)"
        )

"""Paths that sleep on the wall clock, run on the ``clock`` fixture instead.

Every sleep and clock read on the replicated path goes through
``repro.sync``, so swapping ``sync.now``/``sync.sleep`` for a virtual
clock runs a backoff ladder or a deadline in no wall time at all: the
tests assert the exact delays slept, that the timeout fires at the first
check past the deadline, and that a ladder past 1,024 rungs stays on its
cap.  Each would sleep for over 0.1 s of real time without the swap, so
finishing faster proves nothing slept.
"""

import time
from types import SimpleNamespace

import pytest

from repro import AGS, Guard, TimeoutError_, formal, sync
from repro.chaos import ChaosMonkey
from repro.core.spaces import MAIN_TS
from repro.core.statemachine import ExecuteAGS
from repro.parallel import ThreadedReplicaRuntime
from repro.replication.group import CLIENT_ORIGIN


def _wall(fn):
    """Run *fn*; the real seconds it took (``time`` itself is not swapped)."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_cross_shard_retry_doubles_to_its_cap_and_times_out_at_the_deadline(clock):
    with ThreadedReplicaRuntime(1, shards=2) as rt:
        t0 = clock.t

        def never():
            # a wildcard first field spans both shards: the cross-shard rung
            with pytest.raises(TimeoutError_, match="within 0.1s"):
                rt.in_(rt.main_ts, formal(str), 77, timeout=0.1)

        assert _wall(never) < 0.1
    assert clock.slept == [0.002, 0.004, 0.008, 0.016, 0.032, 0.05]
    assert sum(clock.slept[:-1]) < 0.1 <= sum(clock.slept)
    assert clock.t - t0 == pytest.approx(sum(clock.slept))


def test_an_unbounded_ladder_stays_on_its_cap(clock):
    assert sync.backoff(5000, 0.002, 0.05) == 0.05
    with ThreadedReplicaRuntime(1, shards=2) as rt:
        # a minute of virtual waiting is over 1,024 rungs, where 2**attempt
        # no longer fits a float; the retry keeps polling at the cap
        with pytest.raises(TimeoutError_, match="within 60.0s"):
            rt.in_(rt.main_ts, formal(str), 77, timeout=60.0)
    assert len(clock.slept) > 1100 and set(clock.slept[5:]) == {0.05}


def test_call_retries_back_off_by_doubling_then_raise(clock):
    with ThreadedReplicaRuntime(1) as rt:
        group = rt.group
        cmd = ExecuteAGS(
            group.next_request_id(), CLIENT_ORIGIN, 0,
            AGS.single(Guard.in_(MAIN_TS, "never", formal(int, "v")), []),
        )

        def never():
            # each attempt's guard timeout is real; the waits between are not
            with pytest.raises(TimeoutError_, match="guard not satisfied"):
                group.call(cmd, 0.001, retries=3)

        assert _wall(never) < 0.1
    assert clock.slept == [0.05, 0.1, 0.2]


def test_chaos_waits_poll_until_the_mask_flips_or_the_deadline(clock, monkeypatch):
    group = SimpleNamespace(alive=[True, True])
    monkey = ChaosMonkey(SimpleNamespace(group=group))
    with pytest.raises(TimeoutError, match="replica 1 not declared dead within 0.0123s"):
        monkey.wait_detected(1, timeout=0.0123)
    assert clock.slept == [0.005] * 3  # the first check past 0.0123 s raises

    def sleep(seconds):
        clock.sleep(seconds)
        if len(clock.slept) == 5:
            group.alive[1] = False  # declared dead during the second sleep

    monkeypatch.setattr(sync, "sleep", sleep)
    assert monkey.wait_detected(1) == pytest.approx(0.01)
    assert clock.slept[3:] == [0.005, 0.005]
    with pytest.raises(TimeoutError, match="replica 1 not recovered within 0.0s"):
        monkey.wait_recovered(1, timeout=0.0)
    assert len(clock.slept) == 6

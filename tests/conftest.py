"""Fixtures shared across the suite."""

import pytest

from repro import sync


class VirtualClock:
    """Time that moves only when told: ``now()`` reads :attr:`t`, and
    ``sleep(s)`` records *s* in :attr:`slept` and advances :attr:`t` by it."""

    def __init__(self, t=100.0):
        self.t = t
        self.slept = []

    def __call__(self):
        return self.t

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.t += seconds


@pytest.fixture
def clock(monkeypatch):
    """A :class:`VirtualClock` behind ``repro.sync.now`` and ``sync.sleep``:
    every component on the replicated path reads it, and no sleep waits."""
    virtual = VirtualClock()
    monkeypatch.setattr(sync, "now", virtual)
    monkeypatch.setattr(sync, "sleep", virtual.sleep)
    return virtual

"""Property-based tests: WAL recovery equals the pre-crash state.

The WAL argument is the same determinism argument as replication: replay
is re-execution.  Hypothesis drives random command streams (including
statements that park, probes, disjunctions and failure notifications)
through a logged runtime and checks that recovery from any crash point
reproduces the exact state machine — tuples, counters, parked statements
and all.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.statemachine import ExecuteAGS, HostFailed
from repro.persist import SegmentedWALRuntime
from tests.test_prop_statemachine import ags_statement


@st.composite
def command_stream(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    cmds = []
    for rid in range(1, n + 1):
        if draw(st.integers(0, 9)) == 0:
            cmds.append(HostFailed(rid, -1, draw(st.integers(1, 3))))
        else:
            cmds.append(ExecuteAGS(rid, -1, 0, draw(ags_statement())))
    return cmds


@given(command_stream(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_recovery_reproduces_any_stream(tmp_path_factory, cmds, compact_midway):
    path = str(tmp_path_factory.mktemp("wal") / "stream")
    rt = SegmentedWALRuntime(path, fsync=False)
    half = len(cmds) // 2
    for i, cmd in enumerate(cmds):
        with rt._lock:
            rt._apply(cmd)
        if compact_midway and i == half:
            rt.compact()
    before = rt.state_machine.fingerprint()
    blocked_before = len(rt.state_machine.blocked)
    rt.crash()
    back = SegmentedWALRuntime.recover(path)
    assert back.state_machine.fingerprint() == before
    assert len(back.state_machine.blocked) == blocked_before
    back.close()

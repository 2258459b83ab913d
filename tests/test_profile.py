"""Continuous profiling and stage attribution.

Covers `repro.obs.profile` (deterministically, via the injectable frame
and thread sources), `repro.obs.stages` (budget math on synthetic
metrics), and the profiler's integration with both parallel backends
(role-named folded stacks, cross-process merge, crash tolerance, the
structural zero-cost claim for the off path).
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.obs.profile import (
    DEFAULT_HZ,
    SamplingProfiler,
    merge_folded,
    register_thread,
    registered_roles,
    role_summary,
    thread_role,
    to_collapsed,
    to_speedscope,
)
from repro.obs.stages import (
    BUDGET_STAGES,
    STAGE_SAMPLE_EVERY,
    render_budget,
    stage_budget,
)
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime


# --------------------------------------------------------------------------- #
# deterministic frame/thread fixtures
# --------------------------------------------------------------------------- #


def _frame(mod: str, func: str, back=None):
    """A minimal stand-in for an interpreter frame."""
    return SimpleNamespace(
        f_code=SimpleNamespace(co_name=func),
        f_globals={"__name__": mod},
        f_back=back,
    )


def _chain(*labels: tuple[str, str]):
    """Build a frame chain outermost-first; return the leaf frame."""
    frame = None
    for mod, func in labels:
        frame = _frame(mod, func, back=frame)
    return frame


def _make_sampler(frames_by_ident, roles=None, hz: float = 1000.0):
    """A SamplingProfiler over a fixed, injected view of the world."""
    for ident, role in (roles or {}).items():
        register_thread(role, ident=ident)
    threads = [
        SimpleNamespace(ident=i, name=f"fake-{i}") for i in frames_by_ident
    ]
    return SamplingProfiler(
        hz=hz, frames=lambda: dict(frames_by_ident), threads=lambda: list(threads)
    )


class TestFoldingDeterministic:
    def test_stack_folded_under_role_outermost_first(self):
        leaf = _chain(("mod.outer", "run"), ("mod.inner", "step"))
        sampler = _make_sampler({101: leaf}, roles={101: "sequencer"})
        sampler.sample_once()
        folded = sampler.folded()
        assert folded == {"sequencer;mod.outer:run;mod.inner:step": 1}

    def test_unregistered_thread_falls_back_to_thread_name(self):
        leaf = _chain(("m", "f"))
        sampler = _make_sampler({7: leaf})
        sampler.sample_once()
        assert list(sampler.folded()) == ["fake-7;m:f"]

    def test_repeated_samples_accumulate(self):
        leaf = _chain(("m", "f"))
        sampler = _make_sampler({5: leaf}, roles={5: "replica-0"})
        for _ in range(4):
            sampler.sample_once()
        assert sampler.folded() == {"replica-0;m:f": 4}
        assert sampler.samples == 4

    def test_skip_ident_excludes_the_sampler_itself(self):
        frames = {1: _chain(("a", "f")), 2: _chain(("b", "g"))}
        sampler = _make_sampler(frames, roles={1: "r1", 2: "r2"})
        assert sampler.sample_once(skip_ident=2) == 1
        assert list(sampler.folded()) == ["r1;a:f"]

    def test_role_reregistration_overwrites(self):
        register_thread("old-role", ident=424242)
        register_thread("new-role", ident=424242)
        assert thread_role(424242) == "new-role"


class TestSamplerLifecycle:
    def test_start_stop_idempotent(self):
        sampler = _make_sampler({1: _chain(("m", "f"))}, roles={1: "x"})
        assert not sampler.running
        sampler.start()
        first_thread = sampler._thread
        sampler.start()  # second start is a no-op
        assert sampler._thread is first_thread
        deadline = time.monotonic() + 5.0
        while sampler.samples == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        folded = sampler.stop()
        assert not sampler.running
        assert folded and folded == sampler.stop()  # stop again: same answer

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_ingest_merges_remote_stacks(self):
        sampler = _make_sampler({}, roles={})
        sampler.ingest({"replica-1;m:f": 3})
        sampler.ingest({"replica-1;m:f": 2, "replica-2;m:g": 1})
        assert sampler.folded() == {"replica-1;m:f": 5, "replica-2;m:g": 1}


class TestMergeAndExporters:
    def test_merge_folded_sums_counts(self):
        merged = merge_folded({"a;x": 1, "b;y": 2}, {"a;x": 3}, {"c;z": 4})
        assert merged == {"a;x": 4, "b;y": 2, "c;z": 4}

    def test_role_summary_orders_hottest_first(self):
        rows = role_summary({"seq;a": 6, "seq;b": 4, "rep;c": 10})
        assert [(r[0], r[1]) for r in rows] == [("rep", 10), ("seq", 10)] or [
            (r[0], r[1]) for r in rows
        ] == [("seq", 10), ("rep", 10)]
        assert sum(r[2] for r in rows) == pytest.approx(1.0)

    def test_to_collapsed_round_trips_counts(self):
        text = to_collapsed({"role;m:f": 2, "role;m:g": 1})
        lines = dict(
            (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
            for line in text.strip().splitlines()
        )
        assert lines == {"role;m:f": 2, "role;m:g": 1}

    def test_to_speedscope_is_schema_shaped(self):
        doc = to_speedscope({"seq;m:f;m:g": 3, "rep;m:h": 1})
        prof = doc["profiles"][0]
        assert prof["type"] == "sampled"
        assert prof["endValue"] == 4
        assert len(prof["samples"]) == len(prof["weights"]) == 2
        frames = [f["name"] for f in doc["shared"]["frames"]]
        # every index in every sample resolves to a frame
        for sample in prof["samples"]:
            for idx in sample:
                assert 0 <= idx < len(frames)
        assert "seq" in frames and "rep" in frames


# --------------------------------------------------------------------------- #
# backend integration
# --------------------------------------------------------------------------- #


def _churn(rt, n: int = 30) -> None:
    for k in range(n):
        rt.out(rt.main_ts, "prof-test", k)
        rt.in_(rt.main_ts, "prof-test", k)


class TestBackendProfiling:
    def test_threaded_roles_attributed(self):
        rt = ThreadedReplicaRuntime(n_replicas=2)
        try:
            rt.start_profiling(500.0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                _churn(rt, 10)
                roles = {s.split(";", 1)[0] for s in rt.stop_profiling()}
                rt.start_profiling(500.0)
                if {"sequencer", "replica-0", "replica-1"} <= roles:
                    break
            folded = rt.stop_profiling()
        finally:
            rt.shutdown()
        roles = {s.split(";", 1)[0] for s in folded} | roles
        assert "sequencer" in roles
        assert "replica-0" in roles and "replica-1" in roles

    def test_multiproc_cross_process_merge(self):
        rt = MultiprocessRuntime(n_replicas=2)
        try:
            rt.start_profiling(500.0)
            deadline = time.monotonic() + 20.0
            roles: set[str] = set()
            while time.monotonic() < deadline:
                _churn(rt, 10)
                time.sleep(0.05)
                roles |= {s.split(";", 1)[0] for s in rt.stop_profiling()}
                if {"replica-0", "replica-1", "sequencer"} <= roles:
                    break
                rt.start_profiling(500.0)
        finally:
            rt.shutdown()
        # replica roles can only come from the child processes' samplers,
        # so seeing them proves the folded stacks crossed the transport
        assert "replica-0" in roles and "replica-1" in roles
        assert "sequencer" in roles

    def test_multiproc_crash_during_sampling_keeps_survivors(self):
        rt = MultiprocessRuntime(n_replicas=3)
        try:
            rt.start_profiling(500.0)
            _churn(rt, 10)
            rt.crash_replica(2)
            _churn(rt, 10)
            time.sleep(0.05)
            folded = rt.stop_profiling()  # must not raise or wedge
            roles = {s.split(";", 1)[0] for s in folded}
            assert "replica-0" in roles or "replica-1" in roles
        finally:
            rt.shutdown()

    def test_off_path_is_structurally_zero(self):
        """No profiling => no sampler thread, no profiler object, and the
        only residue of the feature is the role registry dict."""
        rt = ThreadedReplicaRuntime(n_replicas=2)
        try:
            _churn(rt, 10)
            names = {t.name for t in threading.enumerate()}
            assert "profile-sampler" not in names
            for g in rt.shard_groups:
                assert not g._remote_profiling
            assert rt._profiler is None
            # the registrations themselves are plain dict entries
            assert any(
                role.endswith("sequencer") for role in registered_roles().values()
            )
        finally:
            rt.shutdown()

    def test_start_stop_profiling_idempotent_on_runtime(self):
        rt = ThreadedReplicaRuntime(n_replicas=2)
        try:
            rt.start_profiling(500.0)
            rt.start_profiling(500.0)  # no-op, not a second sampler
            samplers = [
                t for t in threading.enumerate() if t.name == "profile-sampler"
            ]
            assert len(samplers) == 1
            rt.stop_profiling()
            assert rt.stop_profiling() == {}  # second stop: empty, no error
        finally:
            rt.shutdown()


# --------------------------------------------------------------------------- #
# stage attribution
# --------------------------------------------------------------------------- #


def _hist(n, mean, p95=None):
    return {"count": n, "mean": mean, "p95": mean if p95 is None else p95}


class TestStageBudget:
    def test_budget_rows_cover_the_pipeline(self):
        metrics = {
            "histograms": {
                "submit_to_order": _hist(10, 100e-6),
                "stage_broadcast": _hist(10, 20e-6),
                "stage_replica_queue": _hist(10, 50e-6),
                "stage_apply": _hist(10, 30e-6),
                "stage_reply": _hist(10, 40e-6),
                "journal_fsync": _hist(4, 500e-6),
                "ags_e2e": _hist(10, 300e-6),
            }
        }
        rows = stage_budget(metrics)
        stages_seen = [r["stage"] for r in rows]
        for label, _metric in BUDGET_STAGES:
            assert label in stages_seen
        assert stages_seen[-1] == "end-to-end"
        e2e = rows[-1]
        assert e2e["mean_s"] == pytest.approx(300e-6)
        # the fsync runs beside the pipeline: shown, never summed
        unattributed = [r for r in rows if r["stage"] == "unattributed"][0]
        assert unattributed["mean_s"] == pytest.approx(60e-6)
        del metrics["histograms"]["journal_fsync"]
        assert "journal fsync" not in [r["stage"] for r in stage_budget(metrics)]

    def test_budget_empty_without_stage_samples(self):
        assert render_budget({"histograms": {}}) == ""
        assert render_budget({}) == ""

    def test_render_budget_panel_shape(self):
        metrics = {
            "histograms": {
                "submit_to_order": _hist(5, 10e-6),
                "stage_broadcast": _hist(5, 5e-6),
                "ags_e2e": _hist(5, 40e-6),
            }
        }
        panel = render_budget(metrics)
        assert "WHERE DOES A MILLISECOND GO" in panel
        assert "broadcast" in panel

    def test_stage_histograms_recorded_end_to_end(self):
        """Always on, sampled: the first batch is stamped, then one in
        STAGE_SAMPLE_EVERY — never every batch."""
        rt = ThreadedReplicaRuntime(n_replicas=2)
        try:
            _churn(rt, 20)
            rt.quiesce()
            snap = rt.metrics_snapshot()
            hists = snap["histograms"]
            for name in (
                "stage_broadcast",
                "stage_replica_queue",
                "stage_apply",
                "stage_reply",
            ):
                assert hists[name]["count"] > 0, name
            batches = snap["counters"]["batches_shipped"]
            assert hists["stage_broadcast"]["count"] == (
                1 + (batches - 1) // STAGE_SAMPLE_EVERY
            )
            assert render_budget(snap)
        finally:
            rt.shutdown()

    def test_queue_depth_gauges_in_snapshot(self):
        rt = ThreadedReplicaRuntime(n_replicas=2)
        try:
            _churn(rt, 10)
            gauges = rt.metrics_snapshot()["gauges"]
            for name in (
                "sequencer_inbox_depth",
                "read_lane_depth",
                "replica_inbox_max_depth",
            ):
                assert name in gauges
        finally:
            rt.shutdown()

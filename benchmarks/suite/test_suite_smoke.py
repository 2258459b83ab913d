"""Smoke test of the benchmark suite.  Tier-1's ``testpaths`` does not
collect this file; run it explicitly::

    python -m pytest benchmarks/suite -q

It runs every workload (untraced and traced) and the ladder at 1/50 size,
then checks the vocabulary and ``agree`` — not the numbers.
"""

from __future__ import annotations

import copy
import json
import re
from collections import Counter

import pytest

from benchmarks.suite import harness, spec
from benchmarks.suite.run import main


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("suite")
    out = tmp / "result.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)  # scratch directories and trace.json land in the cwd
        code = main(
            ["--scale", "0.02", "--seconds", "0.3", "--repeats", "1", "--trace",
             "--out", str(out)],
            contract=False,
        )
        trace = json.loads((tmp / "trace.json").read_text())
        leftovers = [p.name for p in tmp.iterdir()]
    assert code == 0
    return json.loads(out.read_text()), out, trace, leftovers


def test_manifest_matches_spec():
    with open(harness.MANIFEST, encoding="utf-8") as f:
        manifest = json.load(f)
    assert manifest == spec.manifest(
        manifest["command"], manifest["paths"], manifest["run_seconds"]
    )
    assert manifest["paths"] == ["benchmarks/suite"]


def test_every_declared_metric_once_per_workload(result):
    data, _out, _trace, _left = result
    declared = [m.name for m in spec.END_TO_END] + [m.name for m in spec.LAYERS]
    assert len(set(declared)) == len(declared)
    for name in declared + spec.WORKLOAD_NAMES:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    for workload in spec.WORKLOAD_NAMES:
        seen = Counter(r["metric"] for r in data["results"] if r["workload"] == workload)
        assert seen == Counter(declared), workload
        assert data["counts"][workload]["ops_attempted"] > 0
    assert data["failed_checks"] == []
    assert {"cpus", "python", "switchinterval", "git_sha"} <= set(data["host"])


def test_trace_is_loadable_and_scratch_is_removed(result):
    _data, _out, trace, leftovers = result
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert any(e["name"] == "harness.round" for e in spans)
    assert any(e["name"].startswith("ladder.") for e in spans)
    assert all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in spans)
    assert trace["otherData"]["counts"]
    assert sorted(leftovers) == ["result.json", "trace.json"]  # no journals left


def test_agree_accepts_itself_and_rejects_a_slowdown(result, tmp_path):
    data, out, _trace, _left = result
    assert harness.agree(str(out), str(out)) == []
    bound = next(m.bound for m in spec.END_TO_END if m.name == "ops_per_s")

    def scaled(factor: float) -> str:
        other = copy.deepcopy(data)
        for r in other["results"]:
            if r["metric"] == "ops_per_s":
                r["value"] *= factor
        path = tmp_path / f"scaled-{factor}.json"
        path.write_text(json.dumps(other))
        return str(path)

    assert harness.agree(str(out), scaled(1 - bound / 2)) == []
    worse = scaled(1 - 1.5 * bound)  # 0.625 at the 0.25 bound
    lines = harness.agree(str(out), worse)
    assert len(lines) == len(spec.WORKLOAD_NAMES)
    assert all("ops_per_s" in line for line in lines)
    assert main(["agree", str(out), worse], contract=False) == 1

    other_host = copy.deepcopy(data)
    other_host["host"]["cpus"] = (data["host"]["cpus"] or 0) + 1
    elsewhere = tmp_path / "elsewhere.json"
    elsewhere.write_text(json.dumps(other_host))
    with pytest.raises(ValueError):
        harness.agree(str(out), str(elsewhere))

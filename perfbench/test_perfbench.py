"""Tests of the benchmark itself (smoke sizes, a few seconds each).

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402
from repro.api import CampaignConfig, ResultsStore, RunResult  # noqa: E402
from repro.faults.campaign import Campaign  # noqa: E402
from repro.metrics.base import OutputMetric  # noqa: E402
from repro.obs import log  # noqa: E402

log.configure(quiet=True)


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_metrics_the_code_emits():
    doc = _bench_json()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == list(PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] \
        == list(workloads.WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace,
                                                    tmp_path):
    record = run.run_benchmark(workload, seed=3, seconds=1, trace=trace,
                               smoke=True, out_dir=str(tmp_path))
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == dict(expected)
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name


def test_counts_repeat_exactly_between_runs(tmp_path):
    counts = []
    for i in range(2):
        record = run.run_benchmark("overhead-study", seed=5, seconds=1,
                                   trace=1, smoke=True,
                                   out_dir=str(tmp_path / str(i)))
        counts.append({k: v["value"]
                       for k, v in record["result"]["metrics"].items()
                       if v["unit"] == "count"})
        counts[-1]["digest"] = record["digest"]
    assert counts[0] == counts[1]
    assert counts[0]["sim.ldst.load_calls"] > 0


def test_planted_oracle_mismatch_counts_as_failed_operation(
        monkeypatch, tmp_path):
    real_run_one = Campaign.run_one

    def lying_oracle(self, run_index, metrics=None, **kwargs):
        result = real_run_one(self, run_index, metrics=metrics, **kwargs)
        if metrics is None:  # only the benchmark's oracle calls omit it
            return RunResult(result.run_index, result.outcome,
                             result.error + 1.0, result.detail)
        return result

    monkeypatch.setattr(Campaign, "run_one", lying_oracle)
    bench = workloads.Bench(
        workloads.WORKLOADS["sdc-study"], seed=1, seconds=1,
        sizes=workloads.SMOKE, workdir=str(tmp_path))
    workloads.SetupJob(bench).round()
    for _, unit in workloads.CampaignJob(bench, primary=False).units(0):
        unit()
    n_campaigns = len(workloads.STUDY_APPS) \
        * len(workloads.CAMPAIGN_CONFIGS)
    assert bench.failed == n_campaigns
    assert all("differs from run_one" in f for f in bench.failures)


def test_result_file_ingests_as_a_bench_snapshot(tmp_path):
    run.run_benchmark("dse", seed=2, seconds=1, trace=0, smoke=True,
                      out_dir=str(tmp_path))
    (path,) = [p for p in os.listdir(tmp_path) if p.startswith("BENCH_")]
    with ResultsStore(str(tmp_path / "results.db")) as store:
        cells = store.ingest(str(tmp_path / path))
        assert [c["kind"] for c in cells] == ["bench"]
        (snapshot,) = store.bench_snapshots()
    assert snapshot["name"] == "perfbench-dse-seed2-trace0"
    assert snapshot["snapshot"]["result"]["metrics"]["optimize_resume_s"]


def test_scaled_time_keeps_a_planted_slowdown(monkeypatch, tmp_path):
    """Plant CPU work and a walk over a 64 MiB buffer into the metrics
    layer.  Campaigns that alternate planted and not planted one by one
    share the host's speed, so their host times give the planted gain.
    In phases of planted and of plain campaigns, the scaled time must
    show about the same gain: the reference kernel does not take the
    program's change for a slower host."""
    monkeypatch.setattr(reference, "WINDOW_S", 0.5)  # phases stay apart
    buffer = np.arange(8 << 20)
    walk = np.random.default_rng(0).integers(0, buffer.size, 20000)
    real_compare = OutputMetric.compare
    planted = [False]

    def slow_compare(self, *args, **kwargs):
        if planted[0]:
            int(buffer[walk].sum()) + sum(range(20000))
        return real_compare(self, *args, **kwargs)

    monkeypatch.setattr(OutputMetric, "compare", slow_compare)
    bench = workloads.Bench(
        workloads.WORKLOADS["sdc-study"], seed=1, seconds=1,
        sizes=workloads.SMOKE, workdir=str(tmp_path))
    workloads.SetupJob(bench).round()
    manager = bench.manager("P-BICG")

    def campaign():
        return Campaign(
            manager.app, manager.selection("access-weighted"),
            config=CampaignConfig(runs=32, seed=1), batch=64, jobs=1,
            **workloads.protection_of(manager, "baseline", "none")).run()

    def run_for(seconds, alternate):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            if alternate:
                planted[0] = not planted[0]
            _, interval = bench.operation("campaign", "P-BICG", campaign)
            intervals[planted[0]].append(interval)

    with bench.meter:
        intervals = {False: [], True: []}
        run_for(3.0, alternate=True)
        alternated = intervals
        intervals = {False: [], True: []}
        for phase in range(8):
            planted[0] = bool(phase % 2)
            run_for(1.25, alternate=False)
    assert bench.failed == 0, bench.failures

    def gain(runs, scaled):
        slow, fast = (statistics.median(bench.times(runs[p], scaled))
                      for p in (True, False))
        return slow / fast - 1.0

    planted_gain = gain(alternated, scaled=False)
    scaled_gain = gain(intervals, scaled=True)
    assert planted_gain > 0.5
    assert 0.8 < scaled_gain / planted_gain < 1.35, (planted_gain,
                                                      scaled_gain)

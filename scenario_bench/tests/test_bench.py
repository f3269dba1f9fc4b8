"""The benchmark's own tests (smoke-size; run with
``python3 -m pytest scenario_bench/tests``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
from outcome import check_outputs, digest, registry_of
from spans import SpanRecorder, traced
from workloads import make_workload, world_settings

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = json.loads((BENCH / "layers.json").read_text())["seeds"]["default"]
SMOKE_SCALE = "0.05"


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "scenario_bench" / "run.py"),
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in CONFIG["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED),
                  "--seconds", "1", "--trace", trace,
                  "--scale", SMOKE_SCALE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = CONFIG["per_layer" if trace == "1" else "end_to_end"]
    assert ({name: metric["unit"]
             for name, metric in result["metrics"].items()}
            == {metric["name"]: metric["unit"] for metric in wanted})
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _smoke_run(name="eu_day"):
    from repro.api import build_world, run

    world = build_world(**world_settings(name, 0.02))
    workload = make_workload(name, SEED, world, scale=0.02)
    outcome = run(workload.spec, workers=workload.workers)
    return outcome.result, registry_of(outcome).snapshot()


def test_tampered_result_trips_the_output_check():
    result, snapshot = _smoke_run()
    assert check_outputs(result, snapshot) == []
    before = digest(result, snapshot)

    result.rum.beacons.pop()
    problems = check_outputs(result, snapshot)
    assert any("beacons" in problem for problem in problems)
    assert digest(result, snapshot) != before

    result, snapshot = _smoke_run()
    snapshot["counters"]["rollout.sessions"] += 1
    assert any("rollout.sessions" in problem
               for problem in check_outputs(result, snapshot))

    result, snapshot = _smoke_run()
    result.failed_sessions_per_day[0] = 1
    assert any("failed" in problem
               for problem in check_outputs(result, snapshot))


def test_disagreeing_digests_and_broken_bypass_facts_are_reported():
    records = [{"digest": "a"}, {"digest": "a"}, {"digest": "b"}]
    assert bench_run._agree(records, "digest") == [
        "digest differs between runs 0 and 2"]
    facts = [{"workload": "cp_rollout", "metric": "discovery.calls",
              "expect": "zero"},
             {"workload": "eu_day", "metric": "discovery.calls",
              "expect": "positive"}]
    assert bench_run._bypass_problems("cp_rollout",
                                      {"discovery.calls": 0}, facts) == []
    assert bench_run._bypass_problems("cp_rollout",
                                      {"discovery.calls": 3}, facts)
    assert bench_run._bypass_problems("eu_day",
                                      {"discovery.calls": 0}, facts)


def test_spans_measure_self_time_and_do_not_double_count_reentry():
    recorder = SpanRecorder()

    def inner(depth):
        return outer(depth - 1) if depth else 1

    inner = recorder.wrap("inner", inner)
    outer = recorder.wrap("outer", lambda depth: inner(depth))
    assert recorder.wrap("run", outer)(2) == 1
    totals = recorder.totals()
    assert totals["outer"]["calls"] == 3
    assert totals["inner"]["calls"] == 3
    durations = recorder.durations("outer")
    # Re-entered layers count their outermost span only.
    assert totals["outer"]["s"] == pytest.approx(durations[0])
    wall = recorder.durations("run")[0]
    summed_self = sum(layer["self_s"] for layer in totals.values())
    assert summed_self == pytest.approx(wall)


def test_traced_restores_every_original():
    from repro.dnsproto.message import Message
    from repro.simulation import rollout, session

    decode = Message.__dict__["decode"]
    simulate = session.simulate_session
    with traced(SpanRecorder()):
        assert session.simulate_session is not simulate
        assert rollout.simulate_session is session.simulate_session
        assert isinstance(Message.__dict__["decode"], classmethod)
    assert Message.__dict__["decode"] is decode
    assert session.simulate_session is simulate
    assert rollout.simulate_session is simulate


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "scenario_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "eu_day", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Perf-harness smoke tests: BENCH_*.json schema and observability.

Runs the kernel microbenchmarks at a tiny size and asserts the
``bench/v3`` document shape: schema tag, bench rows with positive
timings, paired speedup fields, the host fingerprint, the per-phase
breakdown, and a registry/trace section populated by the run.
"""

import json

import pytest

from repro.bench.perf_report import (
    SCHEMA,
    PerfReport,
    build_payload,
    run_kernel_micro,
    write_report,
)


@pytest.fixture(scope="module")
def payload():
    report = PerfReport()
    run_kernel_micro(report, n_a=20, n_b=40)
    return build_payload(report)


class TestBenchSchema:
    def test_schema_tag_and_sections(self, payload):
        assert payload["schema"] == SCHEMA == "bench/v3"
        assert set(payload) == {"schema", "benches", "speedups",
                                "host", "phases", "metrics", "traces"}

    def test_host_fingerprint_recorded(self, payload):
        host = payload["host"]
        assert {"cpus", "cpus_available", "platform",
                "python"} <= set(host)
        assert host["cpus"] >= 1

    def test_phase_breakdown_covers_every_bench(self, payload):
        # One leaf phase per bench, keyed "<scale>;<bench name>", with
        # the bench's elementary-call count as its work counter.
        leaves = {key: row for key, row in payload["phases"].items()
                  if ";" in key}
        assert set(leaves) == {
            name.replace("/", ";") for name in payload["benches"]}
        for key, row in leaves.items():
            assert row["calls"] == 1, key
            bench = payload["benches"][key.replace(";", "/", 1)]
            assert row["work"]["calls"] == bench["calls"], key

    def test_bench_rows_have_required_keys(self, payload):
        assert payload["benches"], "no benches recorded"
        for name, row in payload["benches"].items():
            assert {"wall_s", "calls", "scale"} <= set(row), name
            assert row["wall_s"] > 0, name
            assert row["calls"] > 0, name
            assert name.startswith(f"{row['scale']}/"), name

    def test_paired_benches_produce_speedups(self, payload):
        assert set(payload["speedups"]) == {
            "micro/haversine_matrix", "micro/peering_penalty",
            "micro/candidates", "micro/dns_hop"}
        for base, speedup in payload["speedups"].items():
            assert speedup > 0, base

    def test_registry_populated_by_run(self, payload):
        metrics = payload["metrics"]
        n_benches = len(payload["benches"])
        assert metrics["counters"]["bench.runs"] == n_benches
        wall = metrics["histograms"]["bench.wall_s"]
        assert wall["count"] == n_benches
        assert wall["mean"] > 0

    def test_traces_cover_every_bench(self, payload):
        assert len(payload["traces"]) == len(payload["benches"])
        for trace in payload["traces"]:
            assert trace["name"] == "bench"
            assert trace["attrs"]["wall_s"] > 0
            assert trace["attrs"]["calls"] > 0

    def test_write_report_round_trips(self, tmp_path):
        report = PerfReport()
        report.bench("noop", "micro", lambda: 1)
        out = tmp_path / "bench.json"
        written = write_report(report, str(out))
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(written))

"""Scenario benchmark: run one workload, check it, print its metrics.

    python3 scenario_bench/run.py --workload eu_day --seed 2014 \
        --seconds 30 --trace 0

Run from the root of a source checkout.  The load is a closed batch:
the simulator draws its own session arrivals in simulated time from
the seed, and this one process drives it (the sharded workload adds a
pool of two worker processes).

``--trace 0`` runs the workload once untimed (it warms caches and
fixes the peak-memory figure), then again and again for the rest of
``--seconds``, timing two world builds before each run.  Every timing
is rescaled to a reference host speed by ``probe.py`` (a shared host's
speed swings by up to 1.5x within a minute); the raw timings stay in
the run record.  The
median over the runs is printed, with the peak memory and the
simulated outcomes, for every end-to-end metric named in
``BENCHMARK.json``.  Runs of one seed must agree on the output digest
and on every simulated outcome.

``--trace 1`` runs the workload once untraced, then once with spans
around every layer (``spans.py``, written to ``.scenario_bench_out/``),
and prints the per-layer metrics.  The sharded workload is traced
through its in-process ``workers=1`` twin, since spans cannot cross
the process pool; the twin's digest must equal the ``workers=2``
digest and the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (simulated sessions), ``failed`` (failed
sessions) and ``metrics``; the line before it is the run record (host
fingerprint, every run's timings and digest), also written to
``.scenario_bench_out/``.  The exit code is 1 when an output check, a
digest comparison or a bypass fact fails, and 2 on bad arguments or
when the checkout holds no source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".scenario_bench_out"

#: Timed runs at least, after the untimed first one.
MIN_RUNS = 2
#: World builds timed between two runs.
SETUPS_BETWEEN_RUNS = 2


def _config() -> Dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    with open(HERE / "layers.json") as handle:
        layers = json.load(handle)
    return {"bench": bench, "layers": layers}


def _agree(records: List[Dict], what: str) -> List[str]:
    first = records[0][what]
    return [f"{what} differs between runs 0 and {index}"
            for index, record in enumerate(records[1:], 1)
            if record[what] != first]


def untraced(args, config) -> Dict:
    """Run the workload for ``args.seconds``; medians of the runs."""
    from measure import peak_rss_mb, run_once, time_setup
    from probe import SpeedProbe
    from workloads import make_workload, world_settings

    settings = world_settings(args.workload, args.scale)
    began = time.monotonic()
    _, world = time_setup(settings)
    workload = make_workload(args.workload, args.seed, world, args.scale)
    world = None
    # The first run warms caches and fixes the peak memory figure
    # before the probe allocates its table; it is checked, not timed.
    records = [run_once(workload)]
    rss_mb = peak_rss_mb()
    raw = {"sessions_per_s": [], "setup_s": [], "cpu_ms_per_session": []}
    samples = {name: [] for name in raw}
    problems: List[str] = []
    with SpeedProbe(OUT_DIR / "probe") as probe:
        while True:
            setups = [time_setup(settings)[0]
                      for _ in range(SETUPS_BETWEEN_RUNS)]
            probe.pool_slowdown()
            record = run_once(workload)
            records.append(record)
            # One slowdown per round, read while the run goes: a world
            # build is too short to sample, and its numpy threads would
            # crowd the probe.
            slowdown = (probe.pool_slowdown() if record["workers"]
                        else probe.slowdown(record["began"],
                                            record["began"]
                                            + record["wall_s"]))
            if slowdown is None:
                problems.append("no probe samples from the pool workers")
                slowdown = 1.0
            rate = record["sessions"] / record["wall_s"]
            cpu_ms = 1000.0 * record["cpu_s"] / record["sessions"]
            raw["setup_s"] += setups
            raw["sessions_per_s"].append(rate)
            raw["cpu_ms_per_session"].append(cpu_ms)
            samples["setup_s"] += [seconds / slowdown for seconds in setups]
            samples["sessions_per_s"].append(rate * slowdown)
            samples["cpu_ms_per_session"].append(cpu_ms / slowdown)
            elapsed = time.monotonic() - began
            timed = len(records) - 1
            if (timed >= MIN_RUNS
                    and elapsed * (timed + 1) / timed > args.seconds):
                break
    problems += [problem for record in records
                 for problem in record["problems"]]
    problems += _agree(records, "digest") + _agree(records, "sim")
    first = records[0]
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    metrics.update({
        "peak_rss_mb": rss_mb,
        "served_session_share": 1.0 - first["failed"] / first["sessions"],
        **first["sim"],
    })
    return {"records": records, "problems": problems, "metrics": metrics,
            "samples": {"reported": samples, "raw": raw}}


def _bypass_problems(workload: str, metrics: Dict, facts) -> List[str]:
    problems = []
    for fact in facts:
        if fact["workload"] != workload:
            continue
        value = metrics[fact["metric"]]
        holds = value == 0 if fact["expect"] == "zero" else value > 0
        if not holds:
            problems.append(f"bypass fact failed: {fact['metric']} = "
                            f"{value} on {workload}, expected "
                            f"{fact['expect']}")
    return problems


def traced_run(args, config) -> Dict:
    """Untraced baseline(s), then one traced run: per-layer metrics."""
    from measure import run_once, time_setup
    from spans import SpanRecorder
    from workloads import make_workload, world_settings

    _, world = time_setup(world_settings(args.workload, args.scale))
    workload = make_workload(args.workload, args.seed, world, args.scale)
    world = None
    base = run_once(workload)
    records = [base]
    sharded = base["workers"] is not None
    twin = base
    if sharded:
        twin = run_once(workload, workers=1)
        records.append(twin)
    recorder = SpanRecorder()
    traced = run_once(workload, workers=twin["workers"],
                      recorder=recorder)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz"
    recorder.save(str(spans_path))
    records.append(traced)
    problems = [problem for record in records
                for problem in record["problems"]]
    problems += _agree(records, "digest")
    metrics = dict(traced["layers"])
    metrics["tracing.overhead"] = traced["wall_s"] / twin["wall_s"]
    metrics["tracing.spans"] = traced["spans"]
    if sharded:
        shards = base["shard_sessions"]
        metrics["parallel.busy_share"] = base["child_cpu_s"] / (
            base["workers"] * base["wall_s"])
        metrics["parallel.shard_imbalance"] = max(shards) / (
            sum(shards) / len(shards))
    else:
        metrics["parallel.busy_share"] = 0.0
        metrics["parallel.shard_imbalance"] = 0.0
        metrics["parallel.merge_s"] = 0.0
    problems += _bypass_problems(args.workload, metrics,
                                 config["layers"]["bypass"])
    return {"records": records, "problems": problems, "metrics": metrics,
            "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's session count "
                             "(smoke tests use a small fraction)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"error: no source tree at {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    config = _config()
    names = [w["name"] for w in config["bench"]["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{names}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.scale <= 0:
        print("error: --seconds and --scale must be positive",
              file=sys.stderr)
        return 2

    # One BLAS thread per process, set before numpy loads: unit
    # construction's matrix products would otherwise race a helper
    # thread for the other CPU, and the pooled workload's two workers
    # would oversubscribe both.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.bench.perf_report import host_fingerprint

    OUT_DIR.mkdir(exist_ok=True)
    wanted = config["bench"]["per_layer" if args.trace else "end_to_end"]
    measured = (traced_run if args.trace else untraced)(args, config)
    problems = measured["problems"]
    missing = [m["name"] for m in wanted
               if m["name"] not in measured["metrics"]]
    problems += [f"metric not measured: {name}" for name in missing]
    records = measured["records"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "scale": args.scale,
        "host": dict(host_fingerprint(), nproc=os.cpu_count()),
        "workers": records[0]["workers"],
        "problems": problems,
        "runs": [{key: r[key] for key in (
            "workers", "wall_s", "sessions", "failed", "cpu_s",
            "child_cpu_s", "digest")} for r in records],
    }
    for key in ("samples", "spans_file"):
        if key in measured:
            record[key] = measured[key]
    out_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(r["sessions"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {m["name"]: {"value": measured["metrics"][m["name"]],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())

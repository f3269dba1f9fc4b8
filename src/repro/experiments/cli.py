"""Command-line entry point: ``eum-experiment``.

Usage::

    eum-experiment list
    eum-experiment run fig13 --scale small
    eum-experiment run all --scale tiny
    eum-experiment run degradation --sessions 40 --format json --out d.json
    eum-experiment report --scale paper   # EXPERIMENTS.md body

``--sessions`` / ``--seed`` reach the experiments whose ``run`` takes
them (``degradation``, ``load_tradeoff``, ``unit_scaling``,
``resolver_matrix``); giving one to any other experiment is a usage
error.  Exit status is 1 if any executed experiment's shape checks
fail, 2 on usage errors -- including a scenario the scale cannot run
(:class:`repro.api.ScenarioSpecError`).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import Dict, List, Optional

from repro.experiments.base import ExperimentResult, render_result
from repro.experiments.registry import (
    all_experiments,
    experiment_ids,
    get_experiment,
)
from repro.experiments.scales import scale_names


def result_document(result: ExperimentResult) -> Dict:
    """The ``--format json`` document of one experiment result."""
    return {
        "experiment_id": result.experiment_id,
        "scale": result.scale,
        "rows": result.rows,
        "summary": result.summary,
        "checks": [{"name": c.name, "passed": c.passed,
                    "detail": c.detail} for c in result.checks],
        "passed": result.passed,
    }


def _run_ids(ids: List[str], scale: str, out=None, fmt: str = "text",
             **overrides) -> List[ExperimentResult]:
    # Resolve stdout at call time so output capture (tests) works.
    out = out if out is not None else sys.stdout
    results = []
    for experiment_id in ids:
        module = get_experiment(experiment_id)
        started = time.time()
        result = module.run(scale, **overrides)
        elapsed = time.time() - started
        if fmt == "text":
            print(render_result(result), file=out)
            print(f"(took {elapsed:.1f}s)\n", file=out)
        results.append(result)
    if fmt == "json":
        docs = [result_document(result) for result in results]
        out.write(json.dumps(docs[0] if len(docs) == 1 else docs,
                             indent=2, sort_keys=True) + "\n")
    return results


def _unsupported_flag(ids: List[str], overrides: Dict) -> Optional[str]:
    """The first ``--flag`` some experiment in ``ids`` does not take."""
    for experiment_id in ids:
        taken = inspect.signature(get_experiment(experiment_id).run)
        for name in overrides:
            if name not in taken.parameters:
                return (f"experiment {experiment_id} does not take "
                        f"--{name}")
    return None


def render_markdown(results: List[ExperimentResult], scale: str) -> str:
    """Render results as the EXPERIMENTS.md body."""
    lines = [f"## Results (scale={scale})", ""]
    passed = sum(1 for r in results if r.passed)
    lines.append(f"**{passed}/{len(results)} experiments pass their "
                 "shape checks.**")
    lines.append("")
    for result in results:
        lines.append(f"### {result.experiment_id} — {result.title}")
        lines.append("")
        lines.append(f"*Paper:* {result.paper_claim}")
        lines.append("")
        if result.rows and len(result.rows) <= 30:
            columns = list(result.rows[0].keys())
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("|" + "---|" * len(columns))
            for row in result.rows:
                cells = []
                for column in columns:
                    value = row.get(column, "")
                    if isinstance(value, float):
                        cells.append(f"{value:,.2f}")
                    else:
                        cells.append(str(value))
                lines.append("| " + " | ".join(cells) + " |")
            lines.append("")
        if result.summary:
            lines.append("| measured | value |")
            lines.append("|---|---|")
            for key, value in result.summary.items():
                if isinstance(value, float):
                    rendered = f"{value:,.2f}"
                else:
                    rendered = str(value)
                lines.append(f"| {key} | {rendered} |")
            lines.append("")
        for check in result.checks:
            marker = "x" if check.passed else " "
            lines.append(f"- [{marker}] {check.name}: {check.detail}")
        lines.append("")
    return "\n".join(lines)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eum-experiment",
        description="Reproduce the figures of 'End-User Mapping' "
                    "(SIGCOMM 2015)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments")

    run_parser = sub.add_parser("run", help="run one experiment or 'all'")
    run_parser.add_argument("experiment",
                            help="experiment id (e.g. fig13) or 'all'")
    run_parser.add_argument("--scale", default="tiny",
                            choices=scale_names())
    run_parser.add_argument("--sessions", type=int, default=None,
                            help="sessions per day override")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="roll-out seed override")
    run_parser.add_argument("--format", choices=("text", "json"),
                            default="text")
    run_parser.add_argument("--out", default=None,
                            help="write to this path instead of stdout")

    report_parser = sub.add_parser(
        "report", help="run everything and print a summary table")
    report_parser.add_argument("--scale", default="small",
                               choices=scale_names())
    report_parser.add_argument("--format", default="text",
                               choices=["text", "markdown"],
                               help="markdown emits the EXPERIMENTS.md "
                                    "body")

    args = parser.parse_args(argv)

    if args.command == "list":
        for module in all_experiments():
            print(f"{module.EXPERIMENT_ID}  {module.TITLE}")
        return 0

    if args.command == "run":
        ids = (experiment_ids() if args.experiment == "all"
               else [args.experiment])
        overrides = {name: getattr(args, name)
                     for name in ("sessions", "seed")
                     if getattr(args, name) is not None}
        problem = _unsupported_flag(ids, overrides)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
        from repro.api import ScenarioSpecError

        try:
            if args.out is None:
                results = _run_ids(ids, args.scale, fmt=args.format,
                                   **overrides)
            else:
                with open(args.out, "w") as handle:
                    results = _run_ids(ids, args.scale, out=handle,
                                       fmt=args.format, **overrides)
                print(f"wrote {args.out}", file=sys.stderr)
        except ScenarioSpecError as exc:
            print(f"error: {args.experiment} at scale {args.scale}: "
                  f"{exc}", file=sys.stderr)
            return 2
        return 0 if all(r.passed for r in results) else 1

    if args.command == "report":
        if args.format == "markdown":
            results = []
            for experiment_id in experiment_ids():
                results.append(
                    get_experiment(experiment_id).run(args.scale))
            print(render_markdown(results, args.scale))
            return 0 if all(r.passed for r in results) else 1
        results = _run_ids(experiment_ids(), args.scale)
        print("=== summary ===")
        failed = 0
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            failed += 0 if result.passed else 1
            print(f"{status}  {result.experiment_id}  {result.title}")
        print(f"{len(results) - failed}/{len(results)} experiments pass "
              f"their shape checks at scale={args.scale}")
        return 0 if failed == 0 else 1

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    print("note: 'python -m repro.experiments.cli' is deprecated; "
          "use 'python -m repro experiment'", file=sys.stderr)
    sys.exit(main())

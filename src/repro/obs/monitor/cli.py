"""``python -m repro monitor`` -- monitored roll-out report.

Runs the seeded Section 4 roll-out scenario of a scale through
:func:`repro.api.run` with the monitor on and emits the
:class:`~repro.obs.monitor.driver.RolloutMonitor`'s deterministic
``{series, cohorts, alerts}`` report.

Usage::

    PYTHONPATH=src python -m repro monitor --seed 7 --format json
    PYTHONPATH=src python -m repro monitor --format text
    PYTHONPATH=src python -m repro monitor --sessions-per-day 40 \
        --out monitor_report.json

Two runs with the same arguments produce byte-identical output; the
golden-report suite (``tests/test_obs_monitor_cli.py``) pins the
discrete projection and regenerates with ``REGEN_GOLDEN=1``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional


def scenario_spec(scale: str, seed: int,
                  sessions_per_day: Optional[int] = None):
    """The monitored roll-out of a scale as a
    :class:`~repro.api.ScenarioSpec` (raises
    :class:`~repro.api.ScenarioSpecError` when the scale's timeline
    leaves the monitor no days to baseline on)."""
    from repro.api import ScenarioSpec
    from repro.experiments.scales import get_scale

    scale_spec = get_scale(scale)
    overrides = {"seed": seed}
    if sessions_per_day is not None:
        overrides["sessions_per_day"] = sessions_per_day
    return ScenarioSpec(
        world=scale_spec.world,
        rollout=dataclasses.replace(scale_spec.rollout, **overrides),
        monitor=True)


def render_text(report: dict) -> str:
    """Operator-facing summary of one monitor report."""
    lines: List[str] = []
    scenario = report["scenario"]
    lines.append(
        "rollout monitor  scale={scale} seed={seed} "
        "sessions_per_day={sessions_per_day} days={days}".format(
            days=report["days_observed"], **scenario))
    windows = report["windows"]
    lines.append("windows    " + "  ".join(
        f"{label}=[{lo},{hi})" for label, (lo, hi)
        in sorted(windows.items())))
    lines.append(f"series     {len(report['series'])} captured, "
                 f"{len(report['derived'])} derived")

    effects = report["cohorts"].get("effects_vs_before", {})
    after = effects.get("after", {})
    for cohort in sorted(after):
        for metric in sorted(after[cohort]):
            row = after[cohort][metric]
            ratio = row["ratio"]
            ratio_s = f"{ratio:.2f}x" if ratio is not None else "n/a"
            lines.append(
                f"effect     {cohort:<18} {metric:<24} "
                f"{row['baseline_mean']:10.1f} -> "
                f"{row['treatment_mean']:10.1f}  ({ratio_s}, "
                f"d={row['cohens_d']:.2f})")

    alerts = report["alerts"]
    lines.append(f"alerts     {len(alerts['log'])} events, "
                 f"{len(alerts['firing'])} firing at end")
    for event in alerts["log"]:
        lines.append(
            f"  day {event['step']:>3}  {event['kind']:<8} "
            f"{event['severity']:<8} {event['rule']:<28} "
            f"{event['detail']}")
    for name in alerts["firing"]:
        lines.append(f"  still firing: {name}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments.scales import scale_names

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.monitor", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", default="tiny", choices=scale_names())
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sessions-per-day", type=int, default=None,
                        help="override the scale's roll-out volume")
    parser.add_argument("--format", choices=("json", "text"),
                        default="json")
    parser.add_argument("--out", default=None,
                        help="write to this path instead of stdout")
    args = parser.parse_args(argv)
    if args.sessions_per_day is not None and args.sessions_per_day < 1:
        parser.error("need at least one session per day")

    from repro.api import ScenarioSpecError, run

    try:
        spec = scenario_spec(args.scale, args.seed,
                             args.sessions_per_day)
    except ScenarioSpecError:
        # The only spec error a scale can raise here: its timeline
        # opens on the roll-out, leaving the alert rules no baseline.
        print(f"error: scale {args.scale} has no days before the "
              f"roll-out for the monitor to baseline on",
              file=sys.stderr)
        return 2

    print(f"running monitored roll-out (scale={args.scale}, "
          f"seed={args.seed})...", file=sys.stderr)
    report = run(spec).report({
        "scale": args.scale,
        "seed": args.seed,
        "sessions_per_day": spec.rollout.sessions_per_day,
    })

    if args.format == "text":
        text = render_text(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0

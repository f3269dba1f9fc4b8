#!/usr/bin/env python
"""Replay the paper's Section 4 roll-out on a miniature timeline.

Runs the end-user-mapping roll-out for public resolvers over a
two-month window and prints the before/after table of the paper's four
performance metrics for the high- and low-expectation country groups
(the numbers behind Figures 13-20).

Run:  python examples/public_resolver_rollout.py
"""

import datetime

from repro.api import ScenarioSpec, run
from repro.simulation import RolloutConfig, WorldConfig

METRICS = (
    ("mapping_distance_miles", "mapping distance (mi)"),
    ("rtt_ms", "round-trip time (ms)"),
    ("ttfb_ms", "time to first byte (ms)"),
    ("download_ms", "content download (ms)"),
)


def mean(values):
    return sum(values) / len(values) if values else float("nan")


def main():
    config = RolloutConfig(
        start_date=datetime.date(2014, 3, 1),
        end_date=datetime.date(2014, 4, 30),
        rollout_start=datetime.date(2014, 3, 28),
        rollout_end=datetime.date(2014, 4, 15),
        sessions_per_day=150,
    )
    print(f"Replaying {config.n_days} days; ECS roll-out "
          f"{config.rollout_start} .. {config.rollout_end}...")
    result = run(ScenarioSpec(world=WorldConfig.tiny(), rollout=config,
                              monitor=False)).result
    print(f"  {len(result.rum)} RUM beacons collected")
    print(f"  high-expectation countries: "
          f"{', '.join(result.high_expectation_countries) or '(none)'}\n")

    header = (f"{'metric':<26} {'group':<6} {'before':>10} {'after':>10} "
              f"{'factor':>8}")
    print(header)
    print("-" * len(header))
    for metric, label in METRICS:
        for high, group in ((True, "high"), (False, "low")):
            before = mean(result.rum.metric_values(
                metric, high_expectation=high, via_public=True,
                day_range=result.before_window))
            after = mean(result.rum.metric_values(
                metric, high_expectation=high, via_public=True,
                day_range=result.after_window))
            factor = before / after if after else float("nan")
            print(f"{label:<26} {group:<6} {before:>10.1f} "
                  f"{after:>10.1f} {factor:>7.2f}x")
    print("\nPaper (high-expectation group): mapping distance ~8x, "
          "RTT ~2x, TTFB ~1.4x, download ~2x.")


if __name__ == "__main__":
    main()

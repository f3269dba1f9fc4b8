"""Roll-out monitoring plane: time series, cohorts, alerts.

``repro.obs.monitor`` layers *change-over-time* observability on the
PR 2 metrics registry, reproducing the monitoring posture of the
paper's phased roll-out (Section 4): windowed per-day series
(:mod:`~repro.obs.monitor.series`), A/B cohort comparison with effect
sizes (:mod:`~repro.obs.monitor.cohorts`), declarative alerting with
hysteresis (:mod:`~repro.obs.monitor.alerts`), and the
:class:`~repro.obs.monitor.driver.RolloutMonitor` observer that wires
all three into a roll-out run (:func:`repro.api.run`).

Run the seeded scenario from the command line::

    PYTHONPATH=src python -m repro monitor --seed 7 --format json
"""

from __future__ import annotations

from repro.obs.monitor.alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    RegressionRule,
    StuckRule,
    ThresholdRule,
)
from repro.obs.monitor.cohorts import CohortComparator, Effect, WindowStats
from repro.obs.monitor.driver import (
    COHORT_METRICS,
    RolloutMonitor,
    default_rollout_rules,
    rollout_windows,
)
from repro.obs.monitor.series import TimeSeries, TimeSeriesStore

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "COHORT_METRICS",
    "CohortComparator",
    "Effect",
    "RegressionRule",
    "RolloutMonitor",
    "StuckRule",
    "ThresholdRule",
    "TimeSeries",
    "TimeSeriesStore",
    "WindowStats",
    "default_rollout_rules",
    "rollout_windows",
]

"""Experiment contract and rendering."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Protocol


@dataclass(frozen=True, slots=True)
class Check:
    """One shape check against a paper claim."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        marker = "PASS" if self.passed else "FAIL"
        return f"[{marker}] {self.name}: {self.detail}"


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    title: str
    scale: str
    paper_claim: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name=name, passed=bool(passed),
                                 detail=detail))


class Experiment(Protocol):
    """Every figNN module exposes these."""

    EXPERIMENT_ID: str
    TITLE: str
    PAPER_CLAIM: str

    @staticmethod
    def run(scale: str) -> ExperimentResult: ...


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_table(rows: List[Dict[str, Any]], max_rows: int = 40) -> str:
    """Plain ASCII table of an experiment's rows."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    shown = rows if len(rows) <= max_rows else (
        rows[: max_rows // 2] + [{c: "..." for c in columns}]
        + rows[-max_rows // 2:])
    cells = [[_format_cell(row.get(col, "")) for col in columns]
             for row in shown]
    widths = [max(len(col), *(len(row[i]) for row in cells))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(widths[i])
                       for i, col in enumerate(columns))
    divider = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(row[i].rjust(widths[i]) for i in range(len(columns)))
        for row in cells)
    return f"{header}\n{divider}\n{body}"


def render_result(result: ExperimentResult) -> str:
    """Human-readable rendering of one experiment (tables + checks)."""
    lines = [
        f"== {result.experiment_id}: {result.title} "
        f"(scale={result.scale}) ==",
        f"paper claim: {result.paper_claim}",
        "",
        render_table(result.rows),
        "",
    ]
    if result.summary:
        lines.append("summary:")
        for key, value in result.summary.items():
            lines.append(f"  {key} = {_format_cell(value)}")
        lines.append("")
    for check in result.checks:
        lines.append(str(check))
    lines.append(f"overall: {'PASS' if result.passed else 'FAIL'}")
    return "\n".join(lines)


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio for summaries (0 when denominator is 0)."""
    return numerator / denominator if denominator else 0.0


def shard_digests(spec, *per_day: str) -> Dict[int, str]:
    """sha256 of ``spec``'s merged observable state through the sharded
    engine at 1 and 4 workers, keyed by worker count.

    The state is the merged registry snapshot, the beacon count, and
    ``sessions_per_day`` plus the further per-day tallies of the
    :class:`~repro.simulation.rollout.RolloutResult` named in
    ``per_day``.  Equal digests pin an experiment's scenario into the
    worker-count determinism contract.
    """
    from repro.api import run

    digests = {}
    for workers in (1, 4):
        outcome = run(spec, workers=workers)
        payload: Dict[str, Any] = {
            "snapshot": outcome.registry.snapshot(),
            "beacons": len(outcome.result.rum),
        }
        for name in ("sessions_per_day",) + per_day:
            payload[name] = {
                str(day): count for day, count
                in sorted(getattr(outcome.result, name).items())}
        text = json.dumps(payload, sort_keys=True)
        digests[workers] = hashlib.sha256(text.encode()).hexdigest()
    return digests


RunFn = Callable[[str], ExperimentResult]

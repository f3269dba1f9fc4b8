"""The ``repro.api`` scenario facade and the unified CLI.

Pins the API-redesign contracts:

* :class:`repro.api.ScenarioSpec` + :func:`repro.api.run` compose
  world, roll-out, faults, and monitoring into one entrypoint;
* ``python -m repro <subcommand>`` dispatches to every legacy CLI, and
  the legacy ``python -m repro.<module>`` spellings keep working with a
  stderr pointer while their stdout stays byte-identical;
* importing :mod:`repro.api` never loads the sharded engine or its
  process pool;
* :func:`repro.api.run` is the only roll-out entry point: one function
  builds a scenario's world, and the day loop has a fixed set of
  callers.
"""

import ast
import datetime
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.__main__ as repro_main
from repro.api import ScenarioSpec, ScenarioSpecError, run
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

SHORT = RolloutConfig(
    start_date=datetime.date(2014, 3, 1),
    end_date=datetime.date(2014, 3, 21),
    rollout_start=datetime.date(2014, 3, 8),
    rollout_end=datetime.date(2014, 3, 15),
    sessions_per_day=20,
    seed=11,
)


class TestScenarioSpec:
    def test_describe_is_deterministic_and_minimal(self):
        spec = ScenarioSpec(world=WorldConfig.tiny(), rollout=SHORT)
        assert spec.describe() == {
            "seed": 11,
            "world_seed": WorldConfig.tiny().seed,
            "sessions_per_day": 20,
        }
        assert spec.describe() == spec.describe()

    def test_describe_counts_faults(self):
        faults = FaultSchedule((FaultEvent(
            start_day=1, duration_days=2, target="ns:0",
            kind=FaultKind.AUTH_OUTAGE),))
        spec = ScenarioSpec(world=WorldConfig.tiny(), rollout=SHORT,
                            faults=faults)
        assert spec.describe()["faults"] == 1

    def test_run_without_monitor(self):
        outcome = run(ScenarioSpec(world=WorldConfig.tiny(),
                                   rollout=SHORT, monitor=False))
        assert outcome.monitor is None and outcome.injector is None
        assert len(outcome.result.rum) > 0
        with pytest.raises(ValueError):
            outcome.report()


    def test_monitor_needs_days_before_the_rollout(self):
        """A timeline that opens on the roll-out leaves the monitor's
        rules no baseline: the spec refuses it when built, not after
        every day (or every shard) has run."""
        one_day = RolloutConfig(
            start_date=datetime.date(2014, 3, 1),
            end_date=datetime.date(2014, 3, 1),
            rollout_start=datetime.date(2014, 3, 1),
            rollout_end=datetime.date(2014, 3, 1),
            sessions_per_day=5)
        with pytest.raises(ScenarioSpecError, match="baseline"):
            ScenarioSpec(world=WorldConfig.tiny(), rollout=one_day)
        spec = ScenarioSpec(world=WorldConfig.tiny(), rollout=one_day,
                            monitor=False)
        assert not spec.monitor
        ScenarioSpec(world=WorldConfig.tiny(), rollout=one_day,
                     monitor_rules=[])


class TestSingleEntryPoint:
    """One spec-to-world function and one roll-out entry point.  A
    third runner growing back (a private world build or a second day
    loop caller) fails here."""

    @staticmethod
    def _callers(name):
        """(module, innermost enclosing function) of every call to
        ``name`` in ``src/repro``."""
        callers = set()
        root = REPO_ROOT / "src"
        for path in sorted((root / "repro").rglob("*.py")):
            module = ".".join(path.relative_to(root).with_suffix("")
                              .parts)

            def visit(node, function):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    function = node.name
                if isinstance(node, ast.Call):
                    func = node.func
                    called = (func.id if isinstance(func, ast.Name)
                              else getattr(func, "attr", None))
                    if called == name:
                        callers.add((module, function))
                for child in ast.iter_child_nodes(node):
                    visit(child, function)

            visit(ast.parse(path.read_text()), None)
        return callers

    def test_worlds_are_built_only_by_the_api(self):
        assert self._callers("_build_world") == {
            ("repro.api", "build_world"),
            ("repro.api", "_world_for"),
        }

    def test_the_day_loop_has_three_callers(self):
        """The serial engine, the shard worker, and the one experiment
        whose per-day probe reads the live world."""
        assert self._callers("run_days") == {
            ("repro.api", "run"),
            ("repro.parallel.engine", "_shard_worker"),
            ("repro.experiments.load_tradeoff", "_run_arm"),
        }


class TestUnifiedCli:
    def test_no_args_prints_usage_and_fails(self, capsys):
        assert repro_main.main([]) == 2
        out = capsys.readouterr().out
        assert "usage: python -m repro" in out
        for name in ("sim", "experiment", "dump", "monitor",
                     "degradation"):
            assert name in out

    def test_help_is_success(self, capsys):
        assert repro_main.main(["--help"]) == 0
        assert "subcommands" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert repro_main.main(["bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_dispatches_dump(self, tmp_path, capsys):
        out = tmp_path / "dump.json"
        rc = repro_main.main(["dump", "--sessions", "2", "--traces",
                              "0", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["scenario"]["sessions"] == 2

    def test_dispatches_experiment_list(self, capsys):
        rc = repro_main.main(["experiment", "list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "degradation" in out and "fig12" in out


def _spawn(module_args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", *module_args],
        capture_output=True, text=True, timeout=timeout,
        cwd=REPO_ROOT, env={"PYTHONPATH": "src", "PATH": "/usr/bin"})


class TestLegacyEntrypoints:
    def test_bare_module_prints_usage(self):
        proc = _spawn(["repro"])
        assert proc.returncode == 2
        assert "usage: python -m repro" in proc.stdout

    def test_legacy_dump_points_to_new_spelling(self):
        """Old spelling still works, stderr points forward, stdout is
        byte-identical to the canonical spelling."""
        args = ["--sessions", "2", "--traces", "0", "--seed", "5"]
        legacy = _spawn(["repro.obs.dump", *args])
        unified = _spawn(["repro", "dump", *args])
        assert legacy.returncode == 0 and unified.returncode == 0
        assert "deprecated" in legacy.stderr
        assert "python -m repro dump" in legacy.stderr
        assert "deprecated" not in unified.stderr
        assert legacy.stdout == unified.stdout


class TestImportGraph:
    def test_serial_api_does_not_load_the_process_pool(self):
        """The serial engine runs the one-shard plan, so it imports
        ``repro.parallel.plan`` -- but neither the sharded engine nor
        the process pool behind it."""
        code = ("import sys, repro.api; print(sorted(m for m in "
                "('repro.parallel.engine', 'concurrent.futures.process') "
                "if m in sys.modules))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            text=True, timeout=120, cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

"""The ``python -m repro`` exit-code contract.

Every subcommand follows one convention (documented in
``repro.__main__``): 0 for success, 1 for a failed gate, 2 for usage
errors.  CI and shell scripts branch on these numbers, so the contract
is pinned here for the dispatcher itself and for each subcommand's
cheap paths (``--help`` and flag errors run no simulation; the
expensive success/failure paths are covered per-subsystem --
``tests/test_chaos_soak.py`` pins soak's 0-and-1,
``tests/test_experiments.py`` degradation's).
"""

import contextlib
import io

import pytest

from repro.__main__ import _SUBCOMMANDS, main


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse raises on --help / errors
            code = int(exit_.code or 0)
    return code, out.getvalue(), err.getvalue()


class TestDispatcher:
    def test_bare_invocation_is_a_usage_error(self):
        code, out, _ = _run([])
        assert code == 2
        assert "usage:" in out

    def test_help_exits_zero_and_lists_everything(self):
        code, out, _ = _run(["--help"])
        assert code == 0
        for name in _SUBCOMMANDS:
            assert name in out

    def test_unknown_subcommand_exits_two(self):
        code, _, err = _run(["frobnicate"])
        assert code == 2
        assert "unknown subcommand" in err

    def test_soak_is_registered(self):
        assert _SUBCOMMANDS["soak"][0] == "repro.faults.chaos"


class TestSubcommandConventions:
    @pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
    def test_help_exits_zero(self, name):
        code, out, _ = _run([name, "--help"])
        assert code == 0, f"{name} --help exited {code}"
        assert out, f"{name} --help printed nothing"

    @pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
    def test_bad_flag_exits_two(self, name):
        code, _, _ = _run([name, "--no-such-flag"])
        assert code == 2, f"{name} bad flag exited {code}"


class TestWorkersValidation:
    """``--workers`` / ``--shards`` follow the usage-error contract:
    anything but a strictly positive integer exits 2 before any
    simulation starts (these are pure argparse paths)."""

    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "abc", ""])
    def test_sim_rollout_rejects_bad_workers(self, value):
        code, _, err = _run(["sim", "rollout", "--workers", value])
        assert code == 2
        assert "positive integer" in err

    @pytest.mark.parametrize("value", ["0", "-1", "2.5"])
    def test_sim_rollout_rejects_bad_shards(self, value):
        code, _, err = _run(["sim", "rollout", "--shards", value])
        assert code == 2
        assert "positive integer" in err

    @pytest.mark.parametrize("value", ["0", "-4", "0.5", "four"])
    def test_soak_rejects_bad_workers(self, value):
        code, _, err = _run(["soak", "--workers", value])
        assert code == 2
        assert "positive integer" in err

    def test_sim_rollout_rejects_shards_without_workers(self):
        # The serial engine has no shard plan, so --shards alone would
        # be silently ignored.
        code, out, err = _run(["sim", "rollout", "--days", "3",
                               "--sessions", "2", "--shards", "3"])
        assert code == 2
        assert out == ""
        assert err.strip() == "error: --shards needs --workers"

    def test_workers_flag_is_advertised(self):
        code, out, _ = _run(["sim", "rollout", "--help"])
        assert code == 0
        assert "--workers" in out
        code, out, _ = _run(["soak", "--help"])
        assert code == 0
        assert "--workers" in out


class TestRolloutValidation:
    """Degenerate ``sim rollout`` timelines and volumes are usage
    errors (exit 2) caught before any world is built."""

    @pytest.mark.parametrize("argv", [
        ["--sessions", "0"], ["--sessions", "-5"],
        ["--days", "0"], ["--days", "1"],
    ], ids=["sessions-0", "sessions-neg", "days-0", "days-1"])
    def test_degenerate_rollout_exits_two(self, argv):
        code, _, err = _run(["sim", "rollout", *argv])
        assert code == 2
        assert "Traceback" not in err
        assert argv[0] in err


class TestMonitorValidation:
    def test_scale_without_a_baseline_window_exits_two(self):
        # The large scale's one-day timeline starts the roll-out on
        # day 0, leaving the alert rules nothing to baseline on.
        code, _, err = _run(["monitor", "--scale", "large"])
        assert code == 2
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            "error: scale large has no days before the roll-out for "
            "the monitor to baseline on")


class TestMonitorUsage:
    def test_help_names_the_dispatcher_spelling(self):
        code, out, _ = _run(["monitor", "--help"])
        assert code == 0
        assert out.startswith("usage: python -m repro monitor ")


class TestScenarioSpecErrors:
    def test_experiment_at_a_scale_without_a_baseline_exits_two(self):
        # Degradation runs monitored scenarios; the large scale's
        # one-day timeline leaves the monitor nothing to baseline on,
        # which the spec refuses before anything runs.
        code, _, err = _run(["degradation", "--scale", "large",
                             "--sessions", "5"])
        assert code == 2
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.startswith("error: degradation at scale large: ")
        assert "baseline" in last


class TestExperimentOut:
    """``--out`` is written only after every experiment has run."""

    def test_out_holds_what_stdout_would(self, tmp_path):
        path = tmp_path / "fig05.json"
        argv = ["experiment", "run", "fig05", "--scale", "tiny",
                "--format", "json"]
        code, printed, _ = _run(argv)
        assert code == 0
        code, out, err = _run(argv + ["--out", str(path)])
        assert code == 0
        assert out == ""
        assert err.strip() == f"wrote {path}"
        assert path.read_text() == printed

    def test_failing_run_leaves_an_existing_out_file_untouched(
            self, tmp_path):
        previous = tmp_path / "previous.json"
        previous.write_text('{"kept": true}\n')
        code, _, err = _run(["degradation", "--scale", "large",
                             "--sessions", "5", "--out",
                             str(previous)])
        assert code == 2
        assert "wrote" not in err
        assert previous.read_text() == '{"kept": true}\n'


class TestExperimentRunFlags:
    """``experiment run`` owns the experiment flags; the four
    experiments with a top-level name are aliases of it."""

    @pytest.mark.parametrize("flag", ["--sessions", "--seed"])
    def test_flag_an_experiment_does_not_take_exits_two(self, flag):
        code, _, err = _run(["experiment", "run", "fig05", flag, "3"])
        assert code == 2
        assert err.strip() == f"error: experiment fig05 does not take {flag}"

    @pytest.mark.parametrize("name", ["degradation", "load_tradeoff",
                                      "unit_scaling", "resolver_matrix"])
    def test_alias_is_experiment_run(self, name):
        code, out, _ = _run([name, "--help"])
        assert code == 0
        assert out.startswith("usage: eum-experiment run")
        assert "--sessions" in out and "--format" in out


class TestTrafficValidation:
    """``--traffic`` parses and grammar-validates before any world is
    built, so every malformed schedule is a usage error (exit 2), not
    a mid-run stack trace."""

    @pytest.mark.parametrize("value", [
        "not json",
        '{"kind": "flash_crowd"}',          # object, not a list
        '[{"kind": "flash_crowd"}]',        # missing required fields
        '[{"start_day": 0, "duration_days": 2, "target": "cluster:0",'
        ' "kind": "flash_crowd", "magnitude": 3.0}]',  # bad grammar
        '[{"start_day": 0, "duration_days": 2, "target":'
        ' "continent:NA", "kind": "flash_crowd", "magnitude": 0.5}]',
        '[{"start_day": 0, "duration_days": 2, "target":'
        ' "continent:NA", "kind": "flash_crowd", "magnitude": 3.0,'
        ' "ramp": "linear"}]',              # unknown field
    ], ids=["not-json", "not-a-list", "missing-fields", "bad-target",
            "bad-magnitude", "unknown-field"])
    def test_sim_rollout_rejects_malformed_traffic(self, value):
        code, _, err = _run(["sim", "rollout", "--traffic", value])
        assert code == 2
        assert "traffic schedule" in err

    def test_unreadable_traffic_file_exits_two(self):
        code, _, err = _run(["sim", "rollout", "--traffic",
                             "@/no/such/traffic.json"])
        assert code == 2
        assert "cannot read traffic schedule" in err

    def test_overlapping_same_target_shapes_exit_two(self):
        shapes = ('[{"start_day": 0, "duration_days": 4, "target":'
                  ' "continent:NA", "kind": "flash_crowd",'
                  ' "magnitude": 2.0},'
                  ' {"start_day": 2, "duration_days": 4, "target":'
                  ' "continent:NA", "kind": "flash_crowd",'
                  ' "magnitude": 3.0}]')
        code, _, err = _run(["sim", "rollout", "--traffic", shapes])
        assert code == 2
        assert "overlapping" in err

    def test_surge_flags_are_advertised(self):
        code, out, _ = _run(["sim", "rollout", "--help"])
        assert code == 0
        assert "--traffic" in out
        assert "--load-feedback" in out
        code, out, _ = _run(["soak", "--help"])
        assert code == 0
        assert "--surge" in out


class TestUnitSchemeValidation:
    """``--unit-scheme`` joins the usage-error contract: an unknown
    scheme, a malformed ``:k`` suffix, or a scheme without the split
    control plane all exit 2 before any world is built."""

    @pytest.mark.parametrize("value", ["nope", "ldns:4", ""])
    def test_unknown_scheme_exits_two(self, value):
        code, _, err = _run(["sim", "rollout", "--control-plane",
                             "--unit-scheme", value])
        assert code == 2
        assert "bad unit scheme" in err

    @pytest.mark.parametrize("value", ["routing_aware:x",
                                       "routing_aware:0",
                                       "routing_aware:-5"])
    def test_bad_unit_count_exits_two(self, value):
        code, _, err = _run(["sim", "rollout", "--control-plane",
                             "--unit-scheme", value])
        assert code == 2
        assert "bad unit scheme" in err

    def test_scheme_without_control_plane_exits_two(self):
        code, _, err = _run(["sim", "rollout",
                             "--unit-scheme", "geo_as"])
        assert code == 2
        assert "requires --control-plane" in err

    def test_unit_scheme_flag_is_advertised(self):
        code, out, _ = _run(["sim", "rollout", "--help"])
        assert code == 0
        assert "--unit-scheme" in out
        assert "--control-plane" in out


class TestResolverFaultsValidation:
    """``--resolver-faults`` joins the usage-error contract: malformed
    JSON, bad target grammar, unreadable ``@file`` paths, and
    non-resolver-plane kinds all exit 2 before any world is built."""

    @pytest.mark.parametrize("value", [
        "not json",
        '{"kind": "pop_outage"}',           # object, not a list
        '[{"kind": "pop_outage"}]',         # missing required fields
        '[{"start_day": 0, "duration_days": 2, "target": "ns:0",'
        ' "kind": "pop_outage"}]',          # wrong target head
        '[{"start_day": 0, "duration_days": 2, "target":'
        ' "public:GloboDNS:dallas:extra", "kind": "pop_outage"}]',
        '[{"start_day": 0, "duration_days": 2, "target": "public:",'
        ' "kind": "anycast_flap"}]',        # empty suffix
    ], ids=["not-json", "not-a-list", "missing-fields", "bad-head",
            "three-level-target", "empty-suffix"])
    def test_sim_rollout_rejects_malformed_schedules(self, value):
        code, _, err = _run(["sim", "rollout",
                             "--resolver-faults", value])
        assert code == 2
        assert "resolver faults" in err

    def test_non_resolver_plane_kinds_exit_two(self):
        schedule = ('[{"start_day": 0, "duration_days": 2, "target":'
                    ' "ns:0", "kind": "auth_outage"}]')
        code, _, err = _run(["sim", "rollout",
                             "--resolver-faults", schedule])
        assert code == 2
        assert "non-resolver-plane" in err

    def test_unreadable_faults_file_exits_two(self):
        code, _, err = _run(["sim", "rollout", "--resolver-faults",
                             "@/no/such/faults.json"])
        assert code == 2
        assert "cannot read resolver faults" in err

    def test_conflicting_outage_and_blackout_exit_two(self):
        schedule = ('[{"start_day": 0, "duration_days": 4, "target":'
                    ' "public:GloboDNS", "kind": "pop_outage"},'
                    ' {"start_day": 2, "duration_days": 4, "target":'
                    ' "public:GloboDNS", "kind": "ldns_blackout"}]')
        code, _, err = _run(["sim", "rollout",
                             "--resolver-faults", schedule])
        assert code == 2
        assert "bad resolver faults" in err

    def test_resolver_faults_flag_is_advertised(self):
        code, out, _ = _run(["sim", "rollout", "--help"])
        assert code == 0
        assert "--resolver-faults" in out
        code, out, _ = _run(["soak", "--help"])
        assert code == 0
        assert "--resolver" in out


class TestProfileValidation:
    """``python -m repro profile`` and every ``--profile`` flag join
    the usage-error contract: unknown scenarios, malformed profiler
    configs, and bad formats all exit 2 before any world is built."""

    def test_profile_is_registered(self):
        assert _SUBCOMMANDS["profile"][0] == "repro.obs.profile"

    def test_unknown_scenario_exits_two(self):
        code, _, err = _run(["profile", "galactic"])
        assert code == 2
        assert "unknown scenario" in err

    @pytest.mark.parametrize("value", [
        "not json",
        "[1, 2]",                       # array, not an object
        '{"hotspotz": 3}',              # unknown field
        '{"hotspots": "many"}',         # non-integer value
        '{"max_depth": 0}',             # out of range
        '{"hotspots": 0}',
    ], ids=["not-json", "not-an-object", "unknown-field",
            "non-integer", "bad-max-depth", "bad-hotspots"])
    def test_profile_cli_rejects_malformed_config(self, value):
        code, _, err = _run(["profile", "tiny", "--profile", value])
        assert code == 2
        assert "bad profile config" in err

    @pytest.mark.parametrize("value", ["not json", '{"hotspotz": 1}',
                                       '{"max_depth": -2}'])
    def test_sim_rollout_rejects_malformed_profile(self, value):
        code, _, err = _run(["sim", "rollout", "--profile", value])
        assert code == 2
        assert "bad profile config" in err

    @pytest.mark.parametrize("value", ["not json", '{"hotspots": 0}'])
    def test_dump_rejects_malformed_profile(self, value):
        code, _, err = _run(["dump", "--profile", value])
        assert code == 2
        assert "bad profile config" in err

    def test_bad_format_exits_two(self):
        code, _, err = _run(["profile", "tiny", "--format", "svg"])
        assert code == 2
        assert "invalid choice" in err

    @pytest.mark.parametrize("value", ["0", "-2", "abc"])
    def test_bad_workers_exit_two(self, value):
        code, _, err = _run(["profile", "tiny", "--workers", value])
        assert code == 2
        assert "positive integer" in err

    def test_profile_flags_are_advertised(self):
        code, out, _ = _run(["profile", "--help"])
        assert code == 0
        for flag in ("--workers", "--shards", "--sessions",
                     "--profile", "--format", "--out"):
            assert flag in out, flag
        assert "collapsed" in out
        code, out, _ = _run(["sim", "rollout", "--help"])
        assert code == 0
        assert "--profile" in out
        code, out, _ = _run(["dump", "--help"])
        assert code == 0
        assert "--profile" in out

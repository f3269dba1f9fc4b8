"""One front door for every CLI: ``python -m repro <subcommand>``.

Subcommands share the ``--seed`` / ``--format`` / ``--out`` flag
conventions; everything after the subcommand name is handed to the
subcommand's own parser unchanged, so existing invocations translate
mechanically::

    python -m repro.obs.monitor --seed 7      (deprecated spelling)
    python -m repro monitor --seed 7          (canonical spelling)

The old ``python -m repro.<module>`` entrypoints keep working and
print a pointer to the new spelling on stderr (stdout stays
byte-identical for consumers that parse it).

Exit-code contract (pinned by ``tests/test_cli_exit_codes.py``):

* ``0`` -- the subcommand ran and its checks (if any) passed; also
  ``python -m repro --help``.
* ``1`` -- the subcommand ran but a gate failed: a degradation
  acceptance miss, a soak invariant violation, a nondeterministic
  replay.
* ``2`` -- usage errors: bare ``python -m repro``, an unknown
  subcommand, bad flags (argparse's own convention), or a scenario
  the chosen scale cannot run (``monitor`` and ``experiment run`` map
  :class:`repro.api.ScenarioSpecError` to one ``error:`` line).

``degradation``, ``load_tradeoff``, ``unit_scaling`` and
``resolver_matrix`` are aliases of ``experiment run <id>``.
"""

from __future__ import annotations

import sys
from typing import List, Optional

#: Experiments that keep a top-level name: ``python -m repro <id> ...``
#: is ``python -m repro experiment run <id> ...``.
_EXPERIMENT_ALIASES = ("degradation", "load_tradeoff", "unit_scaling",
                       "resolver_matrix")

_SUBCOMMANDS = {
    "sim": ("repro.simulation.cli",
            "world building, roll-out, DNS-load scenarios"),
    "experiment": ("repro.experiments.cli",
                   "paper-figure experiments (list/run/report)"),
    "dump": ("repro.obs.dump",
             "metrics + trace dump of one seeded scenario"),
    "monitor": ("repro.obs.monitor.cli",
                "monitored roll-out: series, cohorts, alerts"),
    "degradation": ("repro.experiments.cli",
                    "fault-kind degradation experiment (TTFB/RTT CDFs)"),
    "soak": ("repro.faults.chaos",
             "seeded chaos soak: N random fault scenarios + invariants"),
    "load_tradeoff": ("repro.experiments.cli",
                      "flash crowd: distance-only vs load-aware "
                      "mapping"),
    "unit_scaling": ("repro.experiments.cli",
                     "unit count vs accuracy vs query rate across "
                     "unit-construction schemes"),
    "resolver_matrix": ("repro.experiments.cli",
                        "ECS policy matrix + PoP-outage catchment "
                        "shifts on the anycast resolver plane"),
    "profile": ("repro.obs.profile",
                "engine self-profile: phase tree, flamegraph stacks, "
                "hotspots"),
}


def _usage() -> str:
    lines = ["usage: python -m repro <subcommand> [options]", "",
             "subcommands:"]
    for name in sorted(_SUBCOMMANDS):
        _, blurb = _SUBCOMMANDS[name]
        lines.append(f"  {name:<12} {blurb}")
    lines.append("")
    lines.append("run a subcommand with --help for its options; "
                 "--seed/--format/--out are shared conventions")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0 if argv else 2
    name = argv[0]
    entry = _SUBCOMMANDS.get(name)
    if entry is None:
        print(f"unknown subcommand {name!r}\n\n{_usage()}",
              file=sys.stderr)
        return 2
    module_name, _ = entry
    import importlib

    module = importlib.import_module(module_name)
    if name in _EXPERIMENT_ALIASES:
        return module.main(["run"] + argv)
    return module.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main())

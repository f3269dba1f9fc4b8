"""Command-line entry point: ``eum-sim`` — drive custom scenarios.

Complements ``eum-experiment`` (which regenerates the paper's figures):
this tool runs ad-hoc simulations against a fresh world.

Usage::

    eum-sim world-info --scale tiny
    eum-sim rollout --scale tiny --days 45 --sessions 150
    eum-sim dnsload --scale tiny --lookups 30000 --days 1 --ecs
    eum-sim status --scale tiny --sessions 500
"""

from __future__ import annotations

import argparse
import datetime
import sys
from typing import List

from repro.core.reporting import build_status_report
from repro.experiments.scales import get_scale, scale_names
from repro.simulation.dnsload import DnsLoadConfig, drive_dns_load
from repro.api import ScenarioSpec, build_world, run
from repro.simulation.rollout import RolloutConfig


def positive_int(text: str) -> int:
    """argparse type for worker/shard/session counts: a strictly
    positive integer, rejected with exit code 2 (the usage-error
    contract) otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def traffic_schedule(text: str):
    """argparse type for ``--traffic``: inline JSON or an ``@file``
    path, parsed and grammar-validated up front so malformed shapes
    are a usage error (exit code 2), never a mid-run crash."""
    from repro.topology.traffic import TrafficSchedule

    try:
        if text.startswith("@"):
            with open(text[1:]) as handle:
                text = handle.read()
        return TrafficSchedule.from_json(text)
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read traffic schedule: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad traffic schedule: {exc}") from None


def resolver_faults(text: str):
    """argparse type for ``--resolver-faults``: a fault-schedule JSON
    document (inline or ``@file``) restricted to resolver-plane kinds
    (``pop_outage``, ``anycast_flap``, ``ecs_whitelist_revoke``).
    Parsed and grammar-validated up front so a malformed schedule --
    or a data/control-plane kind smuggled through the resolver flag --
    is a usage error (exit code 2), never a mid-run crash."""
    import json

    from repro.faults import FaultKind, FaultSchedule

    try:
        if text.startswith("@"):
            with open(text[1:]) as handle:
                text = handle.read()
        schedule = FaultSchedule.from_dict(json.loads(text)).validate()
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read resolver faults: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad resolver faults: {exc}") from None
    stray = sorted({event.kind for event in schedule.events
                    if event.kind not in FaultKind.RESOLVER_PLANE})
    if stray:
        raise argparse.ArgumentTypeError(
            f"bad resolver faults: non-resolver-plane kinds {stray} "
            f"(use the scenario API for mixed schedules)")
    return schedule


def profile_config(text: str):
    """argparse type for ``--profile``: an optional JSON config object
    (bare ``--profile`` means defaults), validated up front so a
    malformed payload is a usage error (exit code 2)."""
    from repro.obs.profile import ProfileConfig

    try:
        return ProfileConfig.from_json(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad profile config: {exc}") from None


def unit_scheme_spec(text: str) -> str:
    """argparse type for ``--unit-scheme``: a registered
    :mod:`repro.core.units` scheme name (optionally
    ``routing_aware:<k>``), validated before any world is built so an
    unknown scheme is a usage error (exit code 2)."""
    from repro.core.units import parse_unit_scheme

    try:
        parse_unit_scheme(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad unit scheme: {exc}") from None
    return text


def _build(scale: str):
    spec = get_scale(scale)
    print(f"building world (scale={scale})...", file=sys.stderr)
    return build_world(spec.world)


def _cmd_world_info(args) -> int:
    world = _build(args.scale)
    internet = world.internet
    print(f"client /24 blocks     {len(internet.blocks)}")
    print(f"autonomous systems    {len(internet.ases)}")
    print(f"LDNS deployments      {len(internet.resolvers)} "
          f"({len(internet.public_resolver_ids())} public)")
    print(f"public demand share   {internet.public_demand_share():.1%}")
    print(f"BGP announcements     {len(internet.bgp)}")
    print(f"CDN locations         {len(world.deployments)}")
    print(f"content providers     {len(world.catalog)}")
    print(f"authoritative servers {len(world.nameservers)}")
    return 0


def _cmd_rollout(args) -> int:
    start = datetime.date(2014, 3, 1)
    end = start + datetime.timedelta(days=args.days - 1)
    third = datetime.timedelta(days=max(args.days // 3, 1))
    config = RolloutConfig(
        start_date=start,
        end_date=end,
        rollout_start=start + third,
        rollout_end=start + 2 * third,
        sessions_per_day=args.sessions,
        seed=args.seed,
    )
    load_feedback = None
    if args.load_feedback:
        from repro.core.loadfeedback import LoadFeedbackConfig

        load_feedback = LoadFeedbackConfig()
    control_plane = None
    if args.control_plane:
        from repro.core.mapmaker import MapMakerConfig

        control_plane = MapMakerConfig()
    from repro.faults import FaultSchedule
    from repro.topology.traffic import TrafficSchedule

    spec = ScenarioSpec(world=get_scale(args.scale).world,
                        rollout=config, monitor=False,
                        traffic=args.traffic or TrafficSchedule(),
                        load_feedback=load_feedback,
                        control_plane=control_plane,
                        unit_scheme=args.unit_scheme,
                        profile=args.profile,
                        faults=args.resolver_faults or FaultSchedule())
    if args.workers is not None:
        # --workers only sizes the pool: --workers 1 and --workers 8
        # print identical reports.
        print(f"running {args.shards} shards on {args.workers} "
              f"worker(s)...", file=sys.stderr)
        outcome = run(spec, workers=args.workers, shards=args.shards)
    else:
        outcome = run(spec)
    result = outcome.result
    print(f"{len(result.rum)} RUM beacons over {config.n_days} days")
    if args.resolver_faults is not None:
        shifted = sum(result.catchment_shifted_per_day.values())
        print(f"{shifted} sessions re-homed off their build-time "
              f"catchment")
    for metric in ("mapping_distance_miles", "rtt_ms", "ttfb_ms",
                   "download_ms"):
        before = result.rum.metric_values(
            metric, via_public=True, day_range=result.before_window)
        after = result.rum.metric_values(
            metric, via_public=True, day_range=result.after_window)
        mean_b = sum(before) / len(before) if before else float("nan")
        mean_a = sum(after) / len(after) if after else float("nan")
        print(f"  {metric:<26} {mean_b:10.1f} -> {mean_a:10.1f} "
              f"({mean_b / mean_a if mean_a else 0:5.2f}x)")
    if outcome.profiler is not None:
        from repro.obs.profile import hotspot_rows, render_hotspot_table

        print()
        print("engine hotspots (self wall-clock):")
        rows = hotspot_rows(outcome.profiler.root,
                            limit=args.profile.hotspots)
        for line in render_hotspot_table(rows):
            print(f"  {line}")
    return 0


def _cmd_dnsload(args) -> int:
    world = _build(args.scale)
    if args.ecs:
        flipped = world.enable_ecs(world.public_ldns_ids())
        print(f"enabled ECS at {flipped} public resolver deployments",
              file=sys.stderr)
    else:
        world.disable_all_ecs()
    config = DnsLoadConfig(lookups_per_day=args.lookups,
                           n_days=args.days, seed=args.seed)
    result = drive_dns_load(world, config)
    window = args.days * 86400.0
    log = world.query_log
    print(f"lookups               {result.lookups}")
    print(f"LDNS cache hit rate   {result.hit_rate:.1%}")
    print(f"authoritative qps     {log.rate_in(0, window):.4f}")
    print(f"  from public LDNS    "
          f"{log.rate_in(0, window, public_only=True):.4f}")
    print(f"ECS queries           {log.ecs_queries}")
    return 0


def _cmd_status(args) -> int:
    import random

    from repro.simulation.session import simulate_session

    world = _build(args.scale)
    world.enable_ecs(world.public_ldns_ids())
    rng = random.Random(args.seed)
    print(f"running {args.sessions} sessions...", file=sys.stderr)
    for index in range(args.sessions):
        block = world.internet.pick_block(rng)
        simulate_session(world, block, now=index * 2.0, rng=rng)
    for line in build_status_report(world).lines():
        print(line)
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eum-sim",
        description="Ad-hoc scenarios against the end-user-mapping "
                    "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scale", default="tiny", choices=scale_names())
        p.add_argument("--seed", type=int, default=7)

    add_common(sub.add_parser("world-info",
                              help="print world composition"))

    rollout = sub.add_parser("rollout", help="run a custom roll-out")
    add_common(rollout)
    rollout.add_argument("--days", type=int, default=45,
                         help="timeline length (at least 3: a day "
                              "before, during and after the roll-out)")
    rollout.add_argument("--sessions", type=positive_int, default=150,
                         help="sessions per day")
    rollout.add_argument("--workers", type=positive_int, default=None,
                         help="run sharded across N worker processes "
                              "(output is byte-identical for any N)")
    rollout.add_argument("--shards", type=positive_int, default=8,
                         help="shard count of the deterministic plan "
                              "(default 8); needs --workers")
    rollout.add_argument("--traffic", type=traffic_schedule,
                         default=None, metavar="JSON|@FILE",
                         help="surge-traffic schedule (JSON list of "
                              "shapes, or @path to a file)")
    rollout.add_argument("--load-feedback", action="store_true",
                         help="turn on the load-feedback mapping loop "
                              "(cluster utilization penalizes and "
                              "demotes hot clusters)")
    rollout.add_argument("--control-plane", action="store_true",
                         help="run the split control plane (published "
                              "maps read through the degradation "
                              "ladder) with default knobs")
    rollout.add_argument("--unit-scheme", type=unit_scheme_spec,
                         default=None, metavar="SCHEME[:K]",
                         help="compile the published map over this "
                              "unit-construction scheme (ldns, geo_as, "
                              "routing_aware[:k], ...); requires "
                              "--control-plane")
    rollout.add_argument("--resolver-faults", type=resolver_faults,
                         default=None, metavar="JSON|@FILE",
                         help="resolver-plane fault schedule "
                              "(pop_outage / anycast_flap / "
                              "ecs_whitelist_revoke events; activates "
                              "the anycast PoP fleet model)")
    rollout.add_argument("--profile", type=profile_config, nargs="?",
                         const="{}", default=None, metavar="JSON",
                         help="profile the engine itself and print the "
                              "hotspot table (optional JSON config, "
                              "e.g. '{\"hotspots\": 5}')")

    dnsload = sub.add_parser("dnsload", help="drive DNS-only load")
    add_common(dnsload)
    dnsload.add_argument("--lookups", type=int, default=30_000,
                         help="lookups per day")
    dnsload.add_argument("--days", type=int, default=1)
    dnsload.add_argument("--ecs", action="store_true",
                         help="enable ECS at public resolvers first")

    status = sub.add_parser(
        "status", help="run sessions then print the ops status report")
    add_common(status)
    status.add_argument("--sessions", type=int, default=300)

    args = parser.parse_args(argv)
    if args.command == "rollout" and args.unit_scheme is not None \
            and not args.control_plane:
        # Units only exist in the published map: asking for a scheme
        # without the control plane is a usage error (exit code 2).
        rollout.error("--unit-scheme requires --control-plane")
    if args.command == "rollout" and args.days < 3:
        rollout.error(f"--days must be at least 3, got {args.days}")
    handlers = {
        "world-info": _cmd_world_info,
        "rollout": _cmd_rollout,
        "dnsload": _cmd_dnsload,
        "status": _cmd_status,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    print("note: 'python -m repro.simulation.cli' is deprecated; "
          "use 'python -m repro sim'", file=sys.stderr)
    sys.exit(main())

"""The benchmark's three scenarios, each made from one seed.

The seed drives every random draw of the run: session arrival times,
client-block and provider picks, and the shard streams.  The world
itself is the project's default tiny world: its mapping distances
differ by up to half between world seeds, far beyond any bound a
run-to-run comparison could hold.  The outage and surge targets are
still derived from the built world, never written down, so they
follow the world if its configuration changes.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.api import ScenarioSpec
from repro.core.mapmaker import MapMakerConfig
from repro.experiments.load_tradeoff import FEEDBACK
from repro.experiments.resolver_matrix import _busiest_pop
from repro.experiments.scales import get_scale
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.net.geometry import great_circle_miles
from repro.simulation.rollout import RolloutConfig
from repro.topology.resolvers import ResolverPolicySet
from repro.topology.traffic import TrafficSchedule, TrafficShape

#: Sessions per simulated day at full size.  ``eu_day`` is one day;
#: the other two run fourteen.
SESSIONS_PER_DAY = {"eu_day": 6000, "cp_rollout": 300,
                    "surge_outage_w2": 300}

#: Pool size of the sharded workload (the host has two CPUs).
SURGE_WORKERS = 2

#: The load_tradeoff experiment's capacity rule -- 0.3 requests/s per
#: server for every 60 sessions a day -- so the x5 flash crowd
#: overloads the clusters nearest the surge.
CAPACITY_RPS_PER_SESSION = 0.3 / 60
SURGE_MAGNITUDE = 5.0


@dataclass(frozen=True)
class Workload:
    """One scenario and the ``workers`` :func:`repro.api.run` gets
    (None runs the serial engine)."""

    name: str
    spec: ScenarioSpec
    workers: Optional[int]


def _sessions(name: str, scale: float) -> int:
    return max(1, round(SESSIONS_PER_DAY[name] * scale))


def _two_weeks(sessions_per_day: int, seed: int) -> RolloutConfig:
    return RolloutConfig(
        start_date=datetime.date(2014, 3, 1),
        end_date=datetime.date(2014, 3, 14),
        rollout_start=datetime.date(2014, 3, 3),
        rollout_end=datetime.date(2014, 3, 8),
        sessions_per_day=sessions_per_day,
        monthly_growth=0.0,
        seed=seed)


def world_settings(name: str, scale: float = 1.0) -> Dict:
    """The :func:`repro.api.build_world` arguments of a workload: its
    world, control-plane, unit and resolver settings."""
    tiny = get_scale("tiny").world
    if name == "eu_day":
        return {"config": get_scale("large").world}
    if name == "cp_rollout":
        return {"config": tiny, "control_plane": MapMakerConfig(),
                "unit_scheme": "routing_aware"}
    if name == "surge_outage_w2":
        capacity = CAPACITY_RPS_PER_SESSION * _sessions(name, scale)
        return {"config": replace(tiny, server_capacity_rps=capacity),
                "resolver_policies": ResolverPolicySet()}
    raise KeyError(f"unknown workload {name!r}; choose from "
                   f"{sorted(SESSIONS_PER_DAY)}")


def surge_targets(world) -> Dict[str, str]:
    """Fault and surge targets derived from a built world: the public
    PoP homing the most client blocks, the continent with the most
    demand, and the cluster nearest that continent's busiest block."""
    _, provider, city = _busiest_pop(world)
    demand: Dict[str, float] = {}
    for block in world.internet.blocks:
        demand[block.continent] = (demand.get(block.continent, 0.0)
                                   + block.demand)
    continent = max(sorted(demand), key=demand.__getitem__)
    hot = max((block for block in world.internet.blocks
               if block.continent == continent),
              key=lambda block: block.demand)
    clusters = sorted(world.deployments.clusters.values(),
                      key=lambda cluster: cluster.cluster_id)
    nearest = min(clusters,
                  key=lambda cluster: great_circle_miles(cluster.geo,
                                                         hot.geo))
    return {"pop": f"public:{provider}:{city}",
            "continent": f"continent:{continent}",
            "cluster": nearest.cluster_id}


def make_workload(name: str, seed: int, world,
                  scale: float = 1.0) -> Workload:
    """The workload ``name`` for ``seed``; ``world`` is a world built
    from :func:`world_settings`, read for seed-derived targets."""
    settings = world_settings(name, scale)
    sessions = _sessions(name, scale)
    if name == "eu_day":
        # The large scale's single day: roll-out window already closed,
        # so every public resolver sends ECS.
        rollout = replace(get_scale("large").rollout, seed=seed,
                          sessions_per_day=sessions)
        spec = ScenarioSpec(world=settings["config"], rollout=rollout,
                            monitor=False)
        return Workload(name, spec, workers=None)
    if name == "cp_rollout":
        crash = FaultEvent(start_day=6, duration_days=3,
                           target="mapmaker:primary",
                           kind=FaultKind.MAPMAKER_CRASH)
        spec = ScenarioSpec(
            world=settings["config"],
            rollout=_two_weeks(sessions, seed),
            faults=FaultSchedule((crash,)).validate(),
            control_plane=settings["control_plane"],
            unit_scheme=settings["unit_scheme"],
            monitor=True)
        return Workload(name, spec, workers=None)
    targets = surge_targets(world)
    faults = FaultSchedule((
        FaultEvent(start_day=4, duration_days=4, target=targets["pop"],
                   kind=FaultKind.POP_OUTAGE),
        FaultEvent(start_day=7, duration_days=3,
                   target=targets["cluster"],
                   kind=FaultKind.CLUSTER_OUTAGE),
    )).validate()
    traffic = TrafficSchedule((TrafficShape(
        start_day=6, duration_days=5, target=targets["continent"],
        kind="flash_crowd", magnitude=SURGE_MAGNITUDE),))
    spec = ScenarioSpec(
        world=settings["config"],
        rollout=_two_weeks(sessions, seed),
        faults=faults,
        traffic=traffic,
        load_feedback=FEEDBACK,
        resolver_policies=settings["resolver_policies"],
        monitor=True)
    return Workload(name, spec, workers=SURGE_WORKERS)

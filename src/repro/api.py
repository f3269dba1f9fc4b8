"""The scenario facade: one spec, one entrypoint.

Three config surfaces accreted over the project's life --
:class:`~repro.simulation.world.WorldConfig` (what the ecosystem looks
like), :class:`~repro.simulation.rollout.RolloutConfig` (the timeline
driven over it), and now :class:`~repro.faults.FaultSchedule` (what
breaks along the way).  :class:`ScenarioSpec` composes all three plus
the monitoring options, and :func:`run` executes the whole scenario:

    from repro.api import ScenarioSpec, run

    spec = ScenarioSpec(world=WorldConfig.tiny())
    outcome = run(spec)
    outcome.result        # RolloutResult
    outcome.world         # the live world the run drove
    outcome.report()      # the monitor's deterministic report

:func:`run` is the only way a roll-out starts.  Every scenario world
is built from its spec by one function, :func:`_world_for`, which the
serial engine here and every shard worker of :mod:`repro.parallel`
call.  :func:`build_world` builds a bare world for the tools that
drive one directly (DNS-load runs, status reports, the benchmark's
set-up timing).

:func:`run` accepts ``workers=N`` to execute through the sharded
multi-process engine (:mod:`repro.parallel`): the client population
splits into ``shards`` closed sub-worlds and reports merge back
deterministically -- byte-identical across worker counts, since the
shard plan (not the pool size) is the unit of determinism.
``workers=None`` (the default) runs the serial engine, the one-shard
plan on the legacy global RNG, whose outputs the golden fixtures pin.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.loadfeedback import LoadFeedbackConfig
from repro.core.mapmaker import MapMakerConfig
from repro.core.policies import MappingPolicy
from repro.faults import FaultInjector, FaultKind, FaultSchedule
from repro.obs.monitor import RolloutMonitor
from repro.obs.profile import PhaseProfiler, ProfileConfig
from repro.obs.monitor.driver import (
    control_plane_rules,
    default_rollout_rules,
    resolver_plane_rules,
    rollout_windows,
)
from repro.simulation.rollout import (
    RolloutConfig,
    RolloutResult,
    run_days,
)
from repro.simulation.world import World, WorldConfig, _build_world
from repro.topology.internet import InternetConfig
from repro.topology.resolvers import PublicProvider, ResolverPolicySet
from repro.topology.traffic import TrafficSchedule

__all__ = [
    "ScenarioRun",
    "ScenarioSpec",
    "ScenarioSpecError",
    "build_world",
    "run",
]


class ScenarioSpecError(ValueError):
    """A spec that cannot run as written, raised when it is built.

    The CLIs map it to a one-line ``error: ...`` and exit code 2."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one scenario needs, as declarative data."""

    world: WorldConfig = field(default_factory=WorldConfig.small)
    rollout: RolloutConfig = field(default_factory=RolloutConfig)
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    policy: Optional[MappingPolicy] = None
    """Mapping policy override; None keeps the default EU mapping."""
    control_plane: Optional[MapMakerConfig] = None
    """Opt into the split control plane: maps are compiled/published
    periodically and the name-server path reads them through the
    age-bounded degradation ladder.  None keeps per-query scoring."""
    unit_scheme: Optional[str] = None
    """Unit-construction scheme for the published map (requires
    ``control_plane``): a registered :mod:`repro.core.units` scheme
    name, optionally ``routing_aware:<k>``.  The map compiles one
    ``ru:<unit key>`` entry per unit instead of the per-/24 ``eu:``
    table.  None keeps the classic compile, pinning every existing
    golden fixture."""
    monitor: bool = True
    """Attach a :class:`~repro.obs.monitor.RolloutMonitor` observer."""
    monitor_rules: Optional[List] = None
    """Alert-rule override for the monitor; None uses the defaults."""
    traffic: TrafficSchedule = field(default_factory=TrafficSchedule)
    """Surge-traffic shapes (flash crowds, regional events, diurnal
    waves, content surges) layered over the baseline demand.  An empty
    schedule (the default) replays the legacy draw sequence exactly."""
    load_feedback: Optional[LoadFeedbackConfig] = None
    """Opt into the load-feedback mapping loop: clusters report
    smoothed utilization daily and the scorer penalizes (and past the
    overload threshold, demotes) hot clusters.  None keeps scoring
    load-blind, pinning every existing golden fixture."""
    profile: Optional[ProfileConfig] = None
    """Opt into engine self-profiling: the run records a hierarchical
    phase tree (world build, day loop, session/DNS, scorer, mapmaker,
    shard plan/execute/merge) exposed as ``ScenarioRun.profiler`` /
    ``ShardedRun.profiler``.  None (the default) wires the shared
    disabled profiler -- a pure no-op, so every unprofiled output
    stays byte-identical."""
    resolver_policies: Optional[ResolverPolicySet] = None
    """Opt into the resolver plane: public providers become live
    anycast PoP fleets with per-provider ECS policy (whitelist on/off,
    scope-narrowing ceiling), and sessions route through the surviving
    catchment when PoPs withdraw.  None keeps the static build-time
    catchments, pinning every existing golden fixture -- unless the
    fault schedule carries resolver-plane kinds, in which case
    :func:`run` activates fleets with the all-defaults policy set (the
    faults have nothing to act on otherwise)."""

    def __post_init__(self) -> None:
        if self.unit_scheme is not None:
            if self.control_plane is None:
                raise ScenarioSpecError(
                    "unit_scheme requires a control plane: units only "
                    "exist in the published map (set control_plane)")
            from repro.core.units import parse_unit_scheme
            parse_unit_scheme(self.unit_scheme)
        if self.monitor and self.monitor_rules is None:
            first, end = rollout_windows(self.rollout)["before"]
            if end <= first:
                # The default alert rules baseline on these days.
                raise ScenarioSpecError(
                    "the roll-out has no days before its window for "
                    "the monitor to baseline on (monitor=False runs "
                    "it unmonitored)")

    def describe(self) -> Dict:
        """Deterministic scenario metadata for monitor reports."""
        doc = {
            "seed": self.rollout.seed,
            "world_seed": self.world.seed,
            "sessions_per_day": self.rollout.sessions_per_day,
        }
        if self.faults:
            doc["faults"] = len(self.faults)
        if self.control_plane is not None:
            doc["control_plane"] = True
        if self.unit_scheme is not None:
            doc["unit_scheme"] = self.unit_scheme
        if self.traffic:
            doc["traffic"] = len(self.traffic)
        if self.load_feedback is not None:
            doc["load_feedback"] = True
        if self.profile is not None:
            doc["profile"] = True
        if self.resolver_policies is not None:
            doc["resolver_policies"] = True
        return doc

    # -- the scenario/v1 wire format ------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe document of the whole spec (``scenario/v1``).

        Live objects have no declarative form: a spec carrying a
        ``policy`` or ``monitor_rules`` override refuses to serialize
        rather than silently dropping behaviour.
        """
        if self.policy is not None:
            raise ValueError(
                "a live policy object cannot serialize; specs with "
                "policy overrides are in-process only")
        if self.monitor_rules is not None:
            raise ValueError(
                "monitor-rule overrides are live objects and cannot "
                "serialize; use the default rules for portable specs")
        doc: Dict = {
            "schema": _SCHEMA,
            "schema_version": _SCHEMA_VERSION,
            "world": _world_to_dict(self.world),
            "rollout": _rollout_to_dict(self.rollout),
            "monitor": self.monitor,
        }
        if self.faults:
            doc["faults"] = self.faults.to_dict()
        if self.control_plane is not None:
            doc["control_plane"] = dataclasses.asdict(self.control_plane)
        if self.unit_scheme is not None:
            doc["unit_scheme"] = self.unit_scheme
        if self.traffic:
            doc["traffic"] = self.traffic.to_dict()
        if self.load_feedback is not None:
            doc["load_feedback"] = self.load_feedback.to_dict()
        if self.profile is not None:
            doc["profile"] = self.profile.to_dict()
        if self.resolver_policies is not None:
            doc["resolver_policies"] = self.resolver_policies.to_dict()
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Dict) -> "ScenarioSpec":
        """Parse and validate a ``scenario/v1`` document.

        Unknown keys raise at parse time (a typo'd field silently
        reverting to a default is the failure mode this guards).
        """
        if not isinstance(doc, dict):
            raise ValueError("a scenario spec is a JSON object")
        schema = doc.get("schema", _SCHEMA)
        if schema != _SCHEMA:
            raise ValueError(f"unsupported scenario schema: {schema!r}")
        # Missing version means a pre-versioning v1 document; anything
        # other than the one supported version is a hard parse error so
        # future-format specs cannot silently round-trip corrupted.
        version = doc.get("schema_version", _SCHEMA_VERSION)
        if version != _SCHEMA_VERSION:
            raise ValueError(
                f"unsupported scenario schema_version: {version!r} "
                f"(this build reads version {_SCHEMA_VERSION})")
        known = {"schema", "schema_version", "world", "rollout",
                 "monitor", "faults", "control_plane", "unit_scheme",
                 "traffic", "load_feedback", "profile",
                 "resolver_policies"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown scenario fields: {sorted(unknown)}")
        kwargs: Dict = {}
        if "world" in doc:
            kwargs["world"] = _world_from_dict(doc["world"])
        if "rollout" in doc:
            kwargs["rollout"] = _rollout_from_dict(doc["rollout"])
        if "monitor" in doc:
            kwargs["monitor"] = bool(doc["monitor"])
        if "faults" in doc:
            kwargs["faults"] = FaultSchedule.from_dict(doc["faults"])
        if "control_plane" in doc:
            kwargs["control_plane"] = MapMakerConfig(
                **doc["control_plane"])
        if "unit_scheme" in doc:
            kwargs["unit_scheme"] = doc["unit_scheme"]
        if "traffic" in doc:
            kwargs["traffic"] = TrafficSchedule.from_dict(doc["traffic"])
        if "load_feedback" in doc:
            kwargs["load_feedback"] = LoadFeedbackConfig.from_dict(
                doc["load_feedback"])
        if "profile" in doc:
            kwargs["profile"] = ProfileConfig.from_dict(doc["profile"])
        if "resolver_policies" in doc:
            kwargs["resolver_policies"] = ResolverPolicySet.from_dict(
                doc["resolver_policies"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


_SCHEMA = "scenario/v1"
_SCHEMA_VERSION = 1

#: Scalar config fields serialized verbatim (dates handled separately).
_INTERNET_FIELDS = (
    "n_client_blocks", "n_ases", "enterprise_fraction", "pareto_alpha",
    "block_jitter_miles", "block_demand_sigma", "secondary_ldns_rate",
    "isp_anycast_misroute", "total_demand",
)
_WORLD_FIELDS = (
    "n_deployments", "servers_per_cluster", "n_providers",
    "n_nameservers", "dns_ttl", "serve_stale_window",
    "server_capacity_rps", "seed",
)
_ROLLOUT_DATES = ("start_date", "end_date", "rollout_start",
                  "rollout_end")
_ROLLOUT_SCALARS = ("sessions_per_day", "monthly_growth",
                    "expectation_threshold_miles", "ecs_source_len",
                    "seed")


def _reject_unknown(doc: Dict, known, what: str) -> None:
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def _provider_to_dict(provider: PublicProvider) -> Dict:
    # ``deployments`` is builder-populated runtime state, never config.
    return {
        "name": provider.name,
        "asn": provider.asn,
        "deployment_cities": list(provider.deployment_cities),
        "popularity": provider.popularity,
        "misroute_rate": provider.misroute_rate,
    }


def _internet_to_dict(config: InternetConfig) -> Dict:
    doc = {name: getattr(config, name) for name in _INTERNET_FIELDS}
    doc["providers"] = [_provider_to_dict(p) for p in config.providers]
    return doc


def _internet_from_dict(doc: Dict) -> InternetConfig:
    _reject_unknown(doc, _INTERNET_FIELDS + ("providers",), "internet")
    kwargs = {name: doc[name] for name in _INTERNET_FIELDS
              if name in doc}
    if "providers" in doc:
        kwargs["providers"] = tuple(
            PublicProvider(**provider) for provider in doc["providers"])
    return InternetConfig(**kwargs)


def _world_to_dict(config: WorldConfig) -> Dict:
    doc = {name: getattr(config, name) for name in _WORLD_FIELDS}
    doc["internet"] = _internet_to_dict(config.internet)
    return doc


def _world_from_dict(doc: Dict) -> WorldConfig:
    _reject_unknown(doc, _WORLD_FIELDS + ("internet",), "world")
    kwargs = {name: doc[name] for name in _WORLD_FIELDS if name in doc}
    if "internet" in doc:
        kwargs["internet"] = _internet_from_dict(doc["internet"])
    return WorldConfig(**kwargs)


def _rollout_to_dict(config: RolloutConfig) -> Dict:
    doc = {name: getattr(config, name).isoformat()
           for name in _ROLLOUT_DATES}
    doc.update({name: getattr(config, name)
                for name in _ROLLOUT_SCALARS})
    return doc


def _rollout_from_dict(doc: Dict) -> RolloutConfig:
    _reject_unknown(doc, _ROLLOUT_DATES + _ROLLOUT_SCALARS, "rollout")
    kwargs: Dict = {name: datetime.date.fromisoformat(doc[name])
                    for name in _ROLLOUT_DATES if name in doc}
    kwargs.update({name: doc[name] for name in _ROLLOUT_SCALARS
                   if name in doc})
    return RolloutConfig(**kwargs)


@dataclass
class ScenarioRun:
    """A completed scenario: the spec plus everything it produced."""

    spec: ScenarioSpec
    world: World
    result: RolloutResult
    monitor: Optional[RolloutMonitor]
    injector: Optional[FaultInjector]
    profiler: Optional[PhaseProfiler] = None
    """The engine phase profile, when ``spec.profile`` opted in."""

    def report(self, scenario: Optional[Dict] = None) -> Dict:
        """The monitor's deterministic report document."""
        if self.monitor is None:
            raise ValueError(
                "scenario ran without a monitor (spec.monitor=False)")
        return self.monitor.report(scenario if scenario is not None
                                   else self.spec.describe())


def build_world(config: Optional[WorldConfig] = None,
                policy: Optional[MappingPolicy] = None,
                control_plane: Optional[MapMakerConfig] = None,
                unit_scheme: Optional[str] = None,
                resolver_policies: Optional[ResolverPolicySet] = None,
                ) -> World:
    """Build and wire a complete world (canonical spelling)."""
    return _build_world(config=config, policy=policy,
                        control_plane=control_plane,
                        unit_scheme=unit_scheme,
                        resolver_policies=resolver_policies)


def _resolver_policies_for(spec: ScenarioSpec
                           ) -> Optional[ResolverPolicySet]:
    """The policy set a spec's world should be built with.

    An explicit ``spec.resolver_policies`` wins.  Otherwise a fault
    schedule carrying resolver-plane kinds activates the fleets with
    the all-defaults policy set -- a ``pop_outage`` against a world
    with no PoP model would be an injection-time error, and forcing
    callers to also set an empty policy object is pure ceremony.
    """
    if spec.resolver_policies is not None:
        return spec.resolver_policies
    if spec.faults and any(event.kind in FaultKind.RESOLVER_PLANE
                           for event in spec.faults.events):
        return ResolverPolicySet()
    return None


def _world_for(spec: ScenarioSpec, *, load_scale: float = 1.0,
               profiler: Optional[PhaseProfiler] = None) -> World:
    """The world a spec runs on, built fresh (the serial engine and
    every shard worker call this; ``load_scale`` is a shard worker's
    shard count, ``profiler`` the run's phase profiler)."""
    return _build_world(config=spec.world, policy=spec.policy,
                        control_plane=spec.control_plane,
                        unit_scheme=spec.unit_scheme,
                        load_feedback=spec.load_feedback,
                        load_scale=load_scale,
                        profiler=profiler,
                        resolver_policies=_resolver_policies_for(spec))


def _monitor_for_spec(spec: ScenarioSpec) -> RolloutMonitor:
    """The monitor a spec asks for (shared with the sharded engine,
    so a replayed monitor evaluates the same rule set)."""
    rules = spec.monitor_rules
    if rules is None:
        # Feature-gated scenarios watch their plane's rules on top of
        # the defaults; explicit rule overrides win as-is.
        extra: List = []
        if spec.control_plane is not None:
            extra += control_plane_rules(spec.control_plane)
        if _resolver_policies_for(spec) is not None:
            extra += resolver_plane_rules()
        if extra:
            rules = (default_rollout_rules(
                rollout_windows(spec.rollout)) + extra)
    return RolloutMonitor.for_config(spec.rollout, rules=rules)


def run(spec: Optional[ScenarioSpec] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None):
    """Execute one scenario end to end from its spec.

    Returns a :class:`ScenarioRun` (serial, the default) or a
    :class:`repro.parallel.ShardedRun` when ``workers=N`` -- both
    expose ``spec`` / ``result`` / ``monitor`` / ``report()``.
    """
    spec = spec or ScenarioSpec()
    if workers is not None:
        from repro.parallel import DEFAULT_SHARDS, run_sharded

        return run_sharded(spec, workers=workers,
                           n_shards=shards or DEFAULT_SHARDS)
    if shards is not None:
        raise ValueError("shards=N requires workers=N")
    profiler = (PhaseProfiler(config=spec.profile)
                if spec.profile is not None else None)
    world = _world_for(spec, profiler=profiler)
    injector = (FaultInjector(world, spec.faults)
                if spec.faults else None)
    monitor = _monitor_for_spec(spec) if spec.monitor else None
    on_day = None
    if monitor is not None:
        def on_day(day: int, world: World, result: RolloutResult) -> None:
            with world.obs.profiler.phase("monitor.observe"):
                monitor.on_day(day, world, result)

    result = run_days(world, spec.rollout, injector=injector,
                      traffic=spec.traffic, on_day=on_day)
    return ScenarioRun(spec=spec, world=world, result=result,
                       monitor=monitor, injector=injector,
                       profiler=profiler)

"""The end-user mapping roll-out scenario (paper Section 4).

Replays the production timeline: measurements from Jan 1 to Jun 30,
2014, with EDNS0 client-subnet (and hence end-user mapping) enabled for
public resolvers gradually between Mar 28 and Apr 15.  Every simulated
day, client sessions arrive demand-weighted across the world; each one
runs end to end through the DNS stack and download model, emitting a
RUM beacon.  The authoritative query log runs throughout, capturing the
query-rate inflation the roll-out causes.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.stats import weighted_quantile
from repro.cdn.server import DAILY_LOAD_RETENTION
from repro.measurement.netsession import NetSessionCollector
from repro.measurement.rum import RumBeacon, RumCollector
from repro.measurement.querylog import QueryLog
from repro.parallel.plan import ShardPlan, apportion, plan_shards
from repro.simulation.session import simulate_session
from repro.simulation.world import World
from repro.topology.traffic import DayTraffic, TrafficSchedule, day_weight

DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class RolloutConfig:
    """Timeline and load parameters for the roll-out scenario."""

    start_date: datetime.date = datetime.date(2014, 1, 1)
    end_date: datetime.date = datetime.date(2014, 6, 30)
    rollout_start: datetime.date = datetime.date(2014, 3, 28)
    rollout_end: datetime.date = datetime.date(2014, 4, 15)
    sessions_per_day: int = 600
    monthly_growth: float = 0.10
    """Measurement volume grows over the half year (Figure 12 shows an
    increasing trend)."""
    expectation_threshold_miles: float = 1000.0
    ecs_source_len: int = 24
    seed: int = 99

    def __post_init__(self) -> None:
        if not (self.start_date <= self.rollout_start
                <= self.rollout_end <= self.end_date):
            raise ValueError("dates must be ordered: start <= rollout "
                             "window <= end")
        if self.sessions_per_day < 1:
            raise ValueError("need at least one session per day")

    @property
    def n_days(self) -> int:
        return (self.end_date - self.start_date).days + 1

    def day_index(self, date: datetime.date) -> int:
        return (date - self.start_date).days

    def rollout_fraction(self, day: int) -> float:
        """Fraction of public resolvers flipped to ECS by this day."""
        start = self.day_index(self.rollout_start)
        end = self.day_index(self.rollout_end)
        if day < start:
            return 0.0
        if day >= end:
            return 1.0
        return (day - start) / max(1, end - start)


@dataclass
class RolloutResult:
    """Everything the Section 4 and 5 figures are derived from."""

    config: RolloutConfig
    rum: RumCollector
    query_log: QueryLog
    sessions_per_day: Dict[int, int] = field(default_factory=dict)
    requests_per_day: Dict[int, int] = field(default_factory=dict)
    ecs_resolvers_per_day: Dict[int, int] = field(default_factory=dict)
    high_expectation_countries: List[str] = field(default_factory=list)
    median_public_distance: Dict[str, float] = field(default_factory=dict)
    failed_sessions_per_day: Dict[int, int] = field(default_factory=dict)
    """Sessions the client could not complete (availability's
    complement); empty in a fault-free run."""
    degraded_sessions_per_day: Dict[int, int] = field(default_factory=dict)
    """Sessions completed through a degradation path (failover, stale
    answer, ECS strip, dead-server retry); empty in a fault-free run."""
    catchment_shifted_per_day: Dict[int, int] = field(default_factory=dict)
    """Sessions anycast delivered to a PoP other than their build-time
    catchment; all zero unless the resolver plane is active and a PoP
    is withdrawn or flapping."""

    @property
    def before_window(self) -> tuple:
        """[day range) strictly before the roll-out, for CDFs."""
        return (0, self.config.day_index(self.config.rollout_start))

    @property
    def after_window(self) -> tuple:
        """[day range) strictly after the roll-out completes."""
        return (self.config.day_index(self.config.rollout_end) + 1,
                self.config.n_days)


def median_public_distances(
    observations,
    public_ids,
    block_country: Dict,
) -> Dict[str, float]:
    """Pure core of the Section 4.1.1 split: per-country weighted
    median client--public-LDNS distance from pairing observations.

    ``observations`` is any iterable of objects with ``resolver_id``,
    ``block``, ``distance_miles``, and ``demand``; only resolvers in
    ``public_ids`` count; ``block_country`` maps block -> country.
    """
    samples: Dict[str, List] = {}
    for obs in observations:
        if obs.resolver_id not in public_ids:
            continue
        country = block_country[obs.block]
        samples.setdefault(country, []).append(
            (obs.distance_miles, obs.demand))
    medians = {}
    for country, entries in samples.items():
        values = [v for v, _ in entries]
        weights = [w for _, w in entries]
        medians[country] = weighted_quantile(values, weights, 0.5)
    return medians


def split_expectation_groups(
    medians: Dict[str, float],
    threshold_miles: float = 1000.0,
) -> tuple:
    """(high, low) country sets from the per-country medians.

    High expectation means the median is *strictly above* the
    threshold; a median exactly at the split (and any country without
    public-resolver data) classifies as low expectation, matching
    :func:`repro.measurement.rum.expectation_splitter`.
    """
    high = {country for country, median in medians.items()
            if median > threshold_miles}
    return high, set(medians) - high


def classify_expectation_groups(
    world: World,
    threshold_miles: float = 1000.0,
) -> Dict[str, float]:
    """Median client--public-LDNS distance per country (Section 4.1.1).

    Computed from NetSession pairing data exactly as the paper derives
    its country split from Figure 8.
    """
    dataset = NetSessionCollector(world.internet).collect_ground_truth()
    del threshold_miles  # classification threshold applied by caller
    return median_public_distances(
        dataset.observations,
        world.internet.public_resolver_ids(),
        {b.prefix: b.country for b in world.internet.blocks})


def run_days(world: World, config: RolloutConfig, *,
             rng: Optional[random.Random] = None,
             plan: Optional[ShardPlan] = None,
             shard: int = 0,
             injector=None,
             traffic: Optional[TrafficSchedule] = None,
             on_day: Optional[Callable] = None,
             keep_beacons: bool = True,
             pair_tracking: bool = True) -> RolloutResult:
    """The day loop both engines run: one shard of the roll-out.

    Every day steps the fault schedule, reports yesterday's load,
    ticks the control plane, flips the next tranche of ECS resolvers,
    then simulates ``shard``'s quota of the day's sessions -- drawn
    from ``rng`` over the shard's own blocks of ``plan`` -- and calls
    ``on_day(day, world, result)`` last.  The timeline (faults, ticks,
    ECS flips) is identical in every shard; only client sessions are
    partitioned.  A one-shard plan reproduces the legacy global draw
    sequence exactly: its block pick is the same bisect over the same
    running demand sum as :meth:`Internet.pick_block`, and its quota
    is the whole day.  That is the serial engine, and the defaults:
    ``rng`` is the legacy global stream ``random.Random(config.seed)``
    and ``plan`` the one-shard plan.

    ``injector`` is an optional :class:`repro.faults.FaultInjector`
    stepped at the top of each day, before any session runs, so a
    day's sessions see exactly the faults scheduled for that day.

    ``traffic`` is an optional
    :class:`~repro.topology.traffic.TrafficSchedule` of surge shapes:
    day volume scales by the *global* multiplier, the shard's quota is
    apportioned by surge-weighted shard demand, and block and provider
    picks flow through a :class:`~repro.topology.traffic.DayTraffic`
    view.  An empty/None schedule replays the legacy draws bit-for-bit.

    ``on_day`` gets no RNG and runs after every draw of its day, so an
    observed run (the monitor, a per-day probe) replays an unobserved
    one exactly.

    ``keep_beacons`` / ``pair_tracking`` let bench runs drop the RUM
    beacon list and the query log's pair rows, which dominate memory
    at millions of sessions without changing any counter.
    """
    if rng is None:
        rng = random.Random(config.seed)
    if plan is None:
        plan = plan_shards(world.internet, 1)
    profiler = world.obs.profiler
    with profiler.phase("rollout.classify"):
        medians = classify_expectation_groups(world)
    high_expectation, _ = split_expectation_groups(
        medians, config.expectation_threshold_miles)

    world.disable_all_ecs()
    if pair_tracking:
        world.query_log.enable_pair_tracking()
    public_ids = world.public_ldns_ids()
    blocks = world.internet.blocks
    if traffic and plan.n_shards > 1:
        shard_blocks = [[blocks[i] for i in indices]
                        for indices in plan.block_indices]

    result = RolloutResult(
        config=config,
        rum=RumCollector(),
        query_log=world.query_log,
        high_expectation_countries=sorted(high_expectation),
        median_public_distance=medians,
    )

    registry = world.obs.registry
    for day in range(config.n_days):
        with profiler.phase("rollout.day"):
            # --- fault schedule: break/recover targets for this day --------
            if injector is not None:
                with profiler.phase("faults.step"):
                    injector.step(day)

            # --- load feedback: report yesterday's heat, then age it -------
            # Observed before the control plane ticks, so a map compiled
            # today scores against the freshest smoothed utilization.
            if world.load_tracker is not None:
                with profiler.phase("loadfeedback.observe"):
                    world.load_tracker.observe_day(world.deployments,
                                                   registry)
            world.deployments.decay_load(DAILY_LOAD_RETENTION)

            # --- control plane: makers compile/publish, watchdog runs ------
            # Ticked after the injector so a maker killed today misses
            # today's publication, exactly like a real mid-cycle crash.
            if world.control_plane is not None:
                with profiler.phase("control_plane.tick"):
                    world.control_plane.tick(day)

            # --- roll-out progress: flip the next tranche of resolvers ----
            fraction = config.rollout_fraction(day)
            n_enabled = int(round(fraction * len(public_ids)))
            world.enable_ecs(public_ids[:n_enabled],
                             source_prefix_len=config.ecs_source_len)
            result.ecs_resolvers_per_day[day] = world.ecs_enabled_count()
            # Roll-out progress is replicated state, not activity: every
            # shard of a sharded run walks the identical timeline, so these
            # merge by max instead of multiply-counting.
            registry.gauge("rollout.day", merge="max").set(day)
            registry.gauge("rollout.ecs_resolvers", merge="max").set(
                result.ecs_resolvers_per_day[day])

            # --- measurement volume grows month over month -----------------
            month = day // 30
            sessions_today = int(round(
                config.sessions_per_day * (1.0 + config.monthly_growth * month)))
            day_traffic = None
            if traffic:
                day_traffic = DayTraffic(traffic, day, blocks)
                sessions_today = max(1, int(round(
                    sessions_today * day_traffic.volume_multiplier)))
                if plan.n_shards > 1:
                    # A shard holding the surging geo gets the extra
                    # sessions: apportion by surge-weighted demand.
                    weights = [day_weight(traffic, day, own)
                               for own in shard_blocks]
                    quota = apportion(sessions_today, weights)[shard]
                    day_traffic = DayTraffic(traffic, day,
                                             shard_blocks[shard])
                else:
                    quota = sessions_today
            else:
                quota = plan.sessions_for_day(sessions_today)[shard]
            spacing = DAY_SECONDS / quota if quota else DAY_SECONDS

            requests_today = 0
            failed_today = 0
            degraded_today = 0
            shifted_today = 0
            for index in range(quota):
                now = day * DAY_SECONDS + index * spacing + rng.uniform(
                    0, spacing * 0.5)
                if day_traffic is not None:
                    block = day_traffic.pick_block(rng)
                    provider = day_traffic.pick_provider(rng, world.catalog)
                    session = simulate_session(world, block, now, rng,
                                               provider=provider)
                else:
                    block = plan.pick_block(shard, blocks, rng)
                    session = simulate_session(world, block, now, rng)
                requests_today += session.requests
                if session.failed:
                    # No page was loaded: nothing to beacon (real RUM
                    # only reports from pages that rendered).
                    failed_today += 1
                    continue
                if session.degraded:
                    degraded_today += 1
                if session.catchment_shifted:
                    shifted_today += 1
                if keep_beacons:
                    result.rum.record(RumBeacon(
                        day=day,
                        block=block.prefix,
                        country=block.country,
                        domain=session.domain,
                        high_expectation=block.country in high_expectation,
                        via_public_resolver=session.via_public_resolver,
                        dns_ms=session.dns_ms,
                        rtt_ms=session.rtt_ms,
                        ttfb_ms=session.ttfb_ms,
                        download_ms=session.download_ms,
                        mapping_distance_miles=(
                            session.mapping_distance_miles),
                        server_ip=session.server_ip,
                        ecs_used=session.ecs_used,
                    ))
            result.sessions_per_day[day] = quota
            result.requests_per_day[day] = requests_today
            result.failed_sessions_per_day[day] = failed_today
            result.degraded_sessions_per_day[day] = degraded_today
            result.catchment_shifted_per_day[day] = shifted_today
            profiler.count("sessions", quota)
            profiler.count("requests", requests_today)
            registry.counter("rollout.sessions").inc(quota)
            registry.counter("rollout.requests").inc(requests_today)
            if failed_today:
                registry.counter("rollout.failed_sessions").inc(failed_today)

            if on_day is not None:
                on_day(day, world, result)

    if injector is not None:
        injector.finish()
    profiler.count("spans_emitted", world.obs.tracer.sampled)
    return result

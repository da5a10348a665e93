"""Placement arbitration and runtime analysis.

schedule_service picks a node through a fixed restricted-set flow
(security pin, latency preference, data routing, open pool) and then
minimizes a weighted, min-max normalized blend of projected response
time and charge (score_pool), the charge being the one compute_charge
bills. The analysis functions watch completed invocations and produce
rescheduling advice; reschedule applies it only when the move strictly
improves the projection.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, replace
from enum import Enum
from statistics import StatisticsError, fmean

from .billing import compute_charge
from .errors import ConfigError, NoAdmissibleNode, OutOfOrderEvent
from .model import (
    TIER_RANK,
    PlacementDecision,
    PlacementReason,
    ResourceNode,
    SecurityClass,
    ServiceDescriptor,
    Tier,
    Topology,
    is_admissible,
    pair_cost,
    parse_semver,
    transmit_ms,
)
from .schema import conforms, standard


@dataclass
class SchedulerWeights:
    """Relative importance of response time vs charge; must sum to 1."""

    w_latency: float = 0.7
    w_cost: float = 0.3


@dataclass
class Thresholds:
    """Tunables for the runtime analysis loop."""

    delay_pressure_ms_per_s: float = 5000.0  # arrival rate x mean latency trigger
    min_gain_ms: float = 50.0  # smallest projected improvement worth a move
    compute_factor: float = 1.5  # exec overrun multiplier
    compute_run: int = 3  # consecutive overruns required
    window: int = 100  # sliding window size per service
    min_samples: int = 20  # observations required before analysis speaks

    def __post_init__(self):
        # analyze_computation slices the last m times: [-0:] is the whole window.
        if self.compute_run <= 0:
            raise ConfigError(f"thresholds.compute_run must be >= 1, got {self.compute_run}")


class AdviceKind(str, Enum):
    DELAY_PRESSURE = "DelayPressure"
    COMPUTE_SHORTFALL = "ComputeShortfall"


@dataclass
class RescheduleAdvice:
    trigger: AdviceKind
    target_tier_hint: Tier | None
    projected_gain_ms: float


@dataclass
class Violation:
    field: str
    message: str


class ServiceWindow:
    """One service's sliding window of completions, fed by collect_context.

    Keeps at most `window` completed observations, as three bounded
    columns: completion times, latencies and execution times. The
    simulator holds each placed service's window and feeds it with no
    lookup. The detectors read the columns in place, with no per-call
    copy of the window, and sum them afresh on every read rather than
    keeping running totals, so every mean is rounded as fmean rounds it.
    Feed order must be nondecreasing in completion time: the last time
    fed is the last entry of `times`.
    """

    __slots__ = ("service_id", "times", "latencies", "execs")

    def __init__(self, service_id: str, window: int):
        self.service_id = service_id
        self.times: deque = deque(maxlen=window)
        self.latencies: deque = deque(maxlen=window)
        self.execs: deque = deque(maxlen=window)

    def mean_latency(self) -> float:
        latencies = self.latencies
        if not latencies:
            raise StatisticsError("fmean requires at least one data point")
        # What fmean computes, without its copy of the window.
        return math.fsum(latencies) / len(latencies)

    def rate_per_s(self) -> float:
        """Observed completion rate over the window span."""
        times = self.times
        if len(times) < 2:
            return 0.0
        span_ms = times[-1] - times[0]
        if span_ms <= 0:
            return math.inf
        return (len(times) - 1) * 1000.0 / span_ms


def collect_context(w: ServiceWindow, t_done: float, latency_ms: float, exec_ms: float):
    """Fold one completed invocation into its service's analysis window.

    The only feed of a window: the caller passes only completions, so
    there is no outcome to test. Raises OutOfOrderEvent for a completion
    earlier than the last one fed.
    """
    times = w.times
    if times and t_done < times[-1]:
        raise OutOfOrderEvent(
            f"service {w.service_id}: completion at {t_done} after seeing {times[-1]}"
        )
    times.append(t_done)
    w.latencies.append(latency_ms)
    w.execs.append(exec_ms)


def _normalize(value: float, lo: float, hi: float) -> float:
    # A metric with no spread differentiates nothing.
    if hi <= lo:
        return 0.0
    return (value - lo) / (hi - lo)


def score_pool(
    pool: list[ResourceNode], service: ServiceDescriptor, weights: SchedulerWeights
) -> list[tuple[float, float, float, str]]:
    """(score, projected response, charge, node id) for each node, in pool order.

    The score blends the response and the charge, each min-max
    normalized over the pool, by the weights; the least tuple wins, so
    equal scores fall to the faster, then the cheaper, then the lower id.
    """
    responses = [pair_cost(service, n).response_ms for n in pool]
    charges = [compute_charge(service, n) for n in pool]
    r_lo, r_hi = min(responses), max(responses)
    c_lo, c_hi = min(charges), max(charges)
    return [
        (
            weights.w_latency * _normalize(response, r_lo, r_hi)
            + weights.w_cost * _normalize(charge, c_lo, c_hi),
            response,
            charge,
            node.id,
        )
        for node, response, charge in zip(pool, responses, charges)
    ]


def decide_among(
    pool: list[ResourceNode],
    service: ServiceDescriptor,
    weights: SchedulerWeights,
    reason: PlacementReason,
    t_ms: float,
) -> PlacementDecision:
    _, response, _, node_id = min(score_pool(pool, service, weights))
    return PlacementDecision(
        service_id=service.id,
        node_id=node_id,
        tier=next(n.tier for n in pool if n.id == node_id),
        reason=reason,
        objective_ms=response,
        decided_at=t_ms,
    )


def admissible_nodes(
    service: ServiceDescriptor, topology: Topology, t_ms: float
) -> list[ResourceNode]:
    return [n for n in topology if is_admissible(service, n, t_ms)]


def schedule_service(
    service: ServiceDescriptor,
    topology: Topology,
    weights: SchedulerWeights,
    t_ms: float,
) -> PlacementDecision:
    """Restricted-set placement flow.

    1. Critical services are pinned to the operator tier.
    2. Latency-sensitive services take a dealer whenever one can have them.
    3. Data-heavy services (flagged, or with storage no operator node can
       hold) route to the clouds.
    4. Everything else competes over the full admissible pool.

    When a step's preferred tier has no admissible node the choice falls
    back across tiers nearest-first. Raises NoAdmissibleNode when the
    whole topology refuses the service.
    """
    adm = admissible_nodes(service, topology, t_ms)
    if not adm:
        raise NoAdmissibleNode(service.id)

    if service.security_class is SecurityClass.CRITICAL:
        # Admissibility already confines critical services to MNO nodes.
        return decide_among(adm, service, weights, PlacementReason.SECURITY_PIN, t_ms)

    if service.latency_sensitive:
        dealers = [n for n in adm if n.tier is Tier.DEALER]
        if dealers:
            return decide_among(
                dealers, service, weights, PlacementReason.LATENCY_PREFERENCE, t_ms
            )

    mnos = topology.by_tier(Tier.MNO)
    storage_beyond_operators = bool(mnos) and all(
        service.storage_demand > m.storage_capacity for m in mnos
    )
    if service.data_intensive or storage_beyond_operators:
        clouds = [n for n in adm if n.tier is Tier.CLOUD]
        if clouds:
            return decide_among(clouds, service, weights, PlacementReason.DATA_INTENSIVE, t_ms)
        return _tier_fallback(adm, service, weights, t_ms)

    return decide_among(adm, service, weights, PlacementReason.CAPACITY_FALLBACK, t_ms)


def _tier_fallback(
    adm: list[ResourceNode],
    service: ServiceDescriptor,
    weights: SchedulerWeights,
    t_ms: float,
) -> PlacementDecision:
    for tier in (Tier.DEALER, Tier.MNO, Tier.CLOUD):
        pool = [n for n in adm if n.tier is tier]
        if pool:
            return decide_among(pool, service, weights, PlacementReason.CAPACITY_FALLBACK, t_ms)
    raise NoAdmissibleNode(service.id)  # unreachable with a non-empty pool


def nearer_gain(
    service: ServiceDescriptor,
    current_node: ResourceNode,
    topology: Topology,
    thresholds: Thresholds,
    t_ms: float,
) -> tuple[Tier, float] | None:
    """Where a move could go: the answer analyze_performance takes as `nearer`.

    None when the service is not latency-sensitive, already sits on the
    nearest tier, or no admissible node in a nearer tier projects a
    response at least min_gain_ms better than the current node's.
    Otherwise the nearest such tier and its best gain. It reads no
    window, so it depends only on the service, its node and which
    dealers are open at t_ms, and a caller may keep the answer until
    one of those changes.
    """
    if not service.latency_sensitive:
        return None
    cur_rank = TIER_RANK[current_node.tier]
    cur_resp = pair_cost(service, current_node).response_ms
    for tier in (Tier.DEALER, Tier.MNO):
        if TIER_RANK[tier] >= cur_rank:
            break
        gains = [
            cur_resp - pair_cost(service, n).response_ms
            for n in topology.by_tier(tier)
            if is_admissible(service, n, t_ms)
        ]
        qualifying = [g for g in gains if g >= thresholds.min_gain_ms]
        if qualifying:
            return tier, max(qualifying)
    return None


def analyze_performance(
    window: ServiceWindow,
    nearer: tuple[Tier, float] | None,
    thresholds: Thresholds,
) -> RescheduleAdvice | None:
    """Delay-pressure detector for latency-sensitive services.

    `nearer` is nearer_gain's answer for the service where it sits now;
    False stands for None. Fires when it names a tier and the observed
    load over the service's window (arrival rate x mean latency) exceeds
    the pressure threshold. The window is read only when a tier is named.
    """
    if not nearer:
        return None
    if len(window.times) < thresholds.min_samples:
        return None
    if window.rate_per_s() * window.mean_latency() <= thresholds.delay_pressure_ms_per_s:
        return None
    tier, gain_ms = nearer
    return RescheduleAdvice(
        trigger=AdviceKind.DELAY_PRESSURE,
        target_tier_hint=tier,
        projected_gain_ms=gain_ms,
    )


def analyze_computation(
    observed_exec_ms: Iterable[float],
    expected_exec_ms: float,
    k: float,
    m: int,
) -> RescheduleAdvice | None:
    """Compute-shortfall detector.

    Fires when the last m observed executions, oldest first, each
    overran the expected execution time by more than factor k.
    """
    if expected_exec_ms <= 0:
        raise ValueError("expected_exec_ms must be > 0")
    recent = list(observed_exec_ms)[-m:]
    if len(recent) < m:
        return None
    if all(x > k * expected_exec_ms for x in recent):
        return RescheduleAdvice(
            trigger=AdviceKind.COMPUTE_SHORTFALL,
            target_tier_hint=None,
            projected_gain_ms=fmean(recent) - expected_exec_ms,
        )
    return None


def migration_delay_ms(service: ServiceDescriptor, new_node: ResourceNode) -> float:
    """Time to stand up the service copy: image transfer at the new link."""
    return transmit_ms(service.storage_demand, new_node.bandwidth_mbps)


def reschedule(
    record,
    advice: RescheduleAdvice,
    topology: Topology,
    weights: SchedulerWeights,
    t_ms: float,
) -> PlacementDecision:
    """Act on analysis advice; move only for a strict improvement.

    Takes the service's registry record (descriptor plus current
    placement), tries the hinted tier first, then the full flow. Returns
    the current decision unchanged when nothing projects strictly
    better.
    """
    current: PlacementDecision = record.placement
    service: ServiceDescriptor = record.descriptor
    candidate = None
    if advice.target_tier_hint is not None:
        pool = [
            n
            for n in topology.by_tier(advice.target_tier_hint)
            if is_admissible(service, n, t_ms)
        ]
        if pool:
            candidate = decide_among(pool, service, weights, PlacementReason.RESCHEDULE, t_ms)
    if candidate is None:
        try:
            candidate = replace(
                schedule_service(service, topology, weights, t_ms),
                reason=PlacementReason.RESCHEDULE,
                decided_at=t_ms,
            )
        except NoAdmissibleNode:
            # Nothing can take the service right now; stay put.
            return current
    cur_objective = pair_cost(service, topology.get(current.node_id)).response_ms
    if candidate.node_id != current.node_id and candidate.objective_ms < cur_objective:
        return candidate
    return current


def enforce_standard(
    service: ServiceDescriptor, vocabulary: set[str] | None = None
) -> list[Violation]:
    """Registration-time conformance gate for service descriptions.

    Checks the registration standard of the scenario schema (non-empty
    identity fields, semantic version form, tag count and pattern,
    bounded description), reading its limits from there, plus the
    optional controlled vocabulary and sane resource figures. Returns
    every problem, not just the first; an empty list passes.
    """
    rules = standard()
    tags = rules["capability_tags"]
    v: list[Violation] = []
    for key in ("id", "name"):
        if not conforms(getattr(service, key), rules[key]):
            v.append(Violation(key, "must be non-empty"))
    try:
        parse_semver(service.version)
    except ValueError:
        v.append(Violation("version", f"not a semantic version: {service.version!r}"))
    if len(service.capability_tags) < tags["minItems"]:
        v.append(Violation("capability_tags", "at least one tag required"))
    # The pattern is printed without its anchors, as validate always has.
    tag_pattern = tags["items"]["pattern"].strip("^$")
    for tag in sorted(service.capability_tags):
        if not conforms(tag, tags["items"]):
            v.append(Violation("capability_tags", f"tag {tag!r} must match {tag_pattern}"))
    if len(service.capability_tags) > tags["maxItems"]:
        v.append(Violation("capability_tags", f"at most {tags['maxItems']} tags allowed"))
    if vocabulary is not None:
        unknown = sorted(t for t in service.capability_tags if t not in vocabulary)
        for tag in unknown:
            v.append(Violation("capability_tags", f"tag {tag!r} not in vocabulary"))
    if not conforms(service.description, rules["description"]):
        v.append(Violation(
            "description", f"longer than {rules['description']['maxLength']} characters"
        ))
    for field_name in (
        "cpu_demand",
        "mem_demand",
        "storage_demand",
        "payload_in",
        "payload_out",
    ):
        if getattr(service, field_name) < 0:
            v.append(Violation(field_name, "must be >= 0"))
    if service.sla_latency_ms <= 0:
        v.append(Violation("sla_latency_ms", "must be > 0"))
    return v

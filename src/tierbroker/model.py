"""Domain model: tiers, trust, services, nodes, placements and the
admissibility / response-projection rules every other module builds on.

Times are milliseconds, data sizes megabytes, bandwidth megabits per
second, CPU demand millions of instructions (MI) against node speed in
MI per second.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import NonDealerNode
from .schema import standard

DAY_MINUTES = 1440
DAY_MS = DAY_MINUTES * 60000.0


class Tier(str, Enum):
    DEALER = "Dealer"
    MNO = "MNO"
    CLOUD = "Cloud"


# Dealer sits nearest the consumer, cloud farthest.
TIER_RANK = {Tier.DEALER: 0, Tier.MNO: 1, Tier.CLOUD: 2}


class SecurityClass(str, Enum):
    PUBLIC = "Public"
    SENSITIVE = "Sensitive"
    CRITICAL = "Critical"


class TrustLevel(str, Enum):
    UNTRUSTED = "Untrusted"
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


TRUST_RANK = {
    TrustLevel.UNTRUSTED: 0,
    TrustLevel.LOW: 1,
    TrustLevel.MEDIUM: 2,
    TrustLevel.HIGH: 3,
}


class TrustBasis(str, Enum):
    ESTABLISHED = "Established"
    AGGREGATED = "Aggregated"
    INDIRECT = "Indirect"
    REPUTATION = "Reputation"


# Preference when equal levels come from different kinds of evidence:
# first-hand beats aggregated opinion beats hearsay beats reputation.
BASIS_RANK = {
    TrustBasis.ESTABLISHED: 0,
    TrustBasis.AGGREGATED: 1,
    TrustBasis.INDIRECT: 2,
    TrustBasis.REPUTATION: 3,
}


class PlacementReason(str, Enum):
    SECURITY_PIN = "SecurityPin"
    LATENCY_PREFERENCE = "LatencyPreference"
    DATA_INTENSIVE = "DataIntensive"
    CAPACITY_FALLBACK = "CapacityFallback"
    RESCHEDULE = "Reschedule"


class Outcome(str, Enum):
    COMPLETED = "Completed"
    REJECTED = "Rejected"
    DROPPED = "Dropped"


@dataclass
class TrustAssessment:
    level: TrustLevel
    basis: TrustBasis


@dataclass
class QoSParameters:
    jitter_ms: float = 0.0
    session_reestablish_ms: float = 0.0


@dataclass
class Tariff:
    base_fee: float
    cpu_rate: float  # currency units per CPU-second
    data_rate: float  # currency units per MB moved


@dataclass
class EnergyModel:
    """Mobile-side radio power draw: active transmit vs idle wait."""

    p_tx_w: float = 1.0
    p_idle_w: float = 0.1


@dataclass
class ServiceDescriptor:
    id: str
    name: str
    version: str
    capability_tags: set[str]
    description: str = ""
    cpu_demand: float = 0.0
    mem_demand: float = 0.0
    storage_demand: float = 0.0
    payload_in: float = 0.0
    payload_out: float = 0.0
    latency_sensitive: bool = False
    data_intensive: bool = False
    security_class: SecurityClass = SecurityClass.PUBLIC
    sla_latency_ms: float = 1000.0

    @property
    def payload_total(self) -> float:
        return self.payload_in + self.payload_out


@dataclass
class ResourceNode:
    id: str
    tier: Tier
    cpu_speed: float  # MI per second
    cpu_slots: int
    mem_capacity: float
    storage_capacity: float
    rtt_ms: float
    bandwidth_mbps: float
    internet_path: bool
    trust: TrustAssessment
    tariff: Tariff
    qos: QoSParameters = field(default_factory=QoSParameters)
    open_hours: tuple[int, int] | None = None  # dealer minutes-of-day [open, close)


@dataclass
class PlacementDecision:
    service_id: str
    node_id: str
    tier: Tier
    reason: PlacementReason
    objective_ms: float
    decided_at: float


@dataclass(slots=True)
class InvocationRecord:
    request_id: int
    service_id: str
    consumer_id: str
    node_id: str | None
    t_arrive: float
    t_start: float | None = None
    t_done: float | None = None
    energy_j: float = 0.0
    charge: float = 0.0
    outcome: Outcome | None = None


class Topology:
    """Static node inventory, sorted by id."""

    def __init__(self, nodes: list[ResourceNode]):
        self.nodes = sorted(nodes, key=lambda n: n.id)
        self._by_id = {n.id: n for n in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise ValueError("duplicate node ids in topology")

    def get(self, node_id: str) -> ResourceNode:
        return self._by_id[node_id]

    def by_tier(self, tier: Tier) -> list[ResourceNode]:
        return [n for n in self.nodes if n.tier is tier]

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self):
        return len(self.nodes)


def is_dealer_open(node: ResourceNode, t_ms: float) -> bool:
    """Open from open_minute up to close_minute of every day, in milliseconds of day.

    Float % is exact, so with whole minutes the answer flips exactly at
    day * DAY_MS + minute * 60000.0, where the calendar's events fall.
    """
    if node.tier is not Tier.DEALER:
        raise NonDealerNode(node.id)
    if node.open_hours is None:
        return False
    open_minute, close_minute = node.open_hours
    return open_minute * 60000.0 <= t_ms % DAY_MS < close_minute * 60000.0


def transmit_ms(size_mb: float, bandwidth_mbps: float) -> float:
    """Transfer time for size_mb over a link of bandwidth_mbps."""
    return size_mb * 8.0 * 1000.0 / bandwidth_mbps


def effective_level_for_security(trust: TrustAssessment) -> TrustLevel:
    """Trust level usable by the sensitive-data clause.

    A level backed only by self-declared reputation is vulnerable to
    inflation, so it counts as at most Medium here.
    """
    if trust.basis is TrustBasis.REPUTATION:
        if TRUST_RANK[trust.level] > TRUST_RANK[TrustLevel.MEDIUM]:
            return TrustLevel.MEDIUM
    return trust.level


def security_ok(service: ServiceDescriptor, node: ResourceNode) -> bool:
    """Trust and data-sensitivity gate, independent of capacity and hours.

    Critical services never leave the operator's network: MNO tier only,
    and never over an internet path. Sensitive services may ride an
    internet path only toward a provider with High (corroborated) trust.
    """
    if TRUST_RANK[node.trust.level] <= TRUST_RANK[TrustLevel.UNTRUSTED]:
        return False
    sc = service.security_class
    if sc is SecurityClass.CRITICAL:
        if node.tier is not Tier.MNO or node.internet_path:
            return False
    elif sc is SecurityClass.SENSITIVE:
        if node.internet_path:
            eff = effective_level_for_security(node.trust)
            if TRUST_RANK[eff] < TRUST_RANK[TrustLevel.HIGH]:
                return False
    return True


def is_admissible(service: ServiceDescriptor, node: ResourceNode, t_ms: float) -> bool:
    """Hard feasibility gate: capacity, opening hours, trust, security."""
    if node.tier is Tier.DEALER and not is_dealer_open(node, t_ms):
        return False
    return fits(service, node)


def fits(service: ServiceDescriptor, node: ResourceNode) -> bool:
    """The half of is_admissible that holds at all hours: capacity, trust, security."""
    if service.cpu_demand > node.cpu_speed:
        return False
    if service.mem_demand > node.mem_capacity:
        return False
    if service.storage_demand > node.storage_capacity:
        return False
    return security_ok(service, node)


class PairCost(NamedTuple):
    """The times every request of one service takes on one node."""

    transfer_ms: float
    exec_ms: float
    response_ms: float  # round trip + transfer + execution, queueing aside


def pair_cost(service: ServiceDescriptor, node: ResourceNode) -> PairCost:
    """Payload transfer, execution and the projected response, ignoring queueing."""
    transfer_ms = transmit_ms(service.payload_total, node.bandwidth_mbps)
    exec_ms = service.cpu_demand / node.cpu_speed * 1000.0
    return PairCost(transfer_ms, exec_ms, node.rtt_ms + transfer_ms + exec_ms)


def check_node(node: ResourceNode) -> list[str]:
    """Structural problems with a node definition, empty when sound."""
    problems = []
    if node.cpu_speed <= 0:
        problems.append(f"{node.id}: cpu_speed must be > 0")
    if node.cpu_slots < 1:
        problems.append(f"{node.id}: cpu_slots must be >= 1")
    if node.mem_capacity <= 0:
        problems.append(f"{node.id}: mem_capacity must be > 0")
    if node.storage_capacity <= 0:
        problems.append(f"{node.id}: storage_capacity must be > 0")
    if node.rtt_ms < 0:
        problems.append(f"{node.id}: rtt_ms must be >= 0")
    if node.bandwidth_mbps <= 0:
        problems.append(f"{node.id}: bandwidth_mbps must be > 0")
    if node.tier is Tier.DEALER and node.open_hours is None:
        problems.append(f"{node.id}: dealer nodes need open_hours")
    if node.open_hours is not None:
        o, c = node.open_hours
        if not (0 <= o < c <= DAY_MINUTES and o % 1 == 0 == c % 1):
            problems.append(
                f"{node.id}: open_hours must be whole minutes with"
                f" 0 <= open < close <= {DAY_MINUTES}"
            )
    if node.tier is Tier.MNO and node.internet_path:
        problems.append(f"{node.id}: internet_path must be false for MNO nodes")
    for rate_name in ("base_fee", "cpu_rate", "data_rate"):
        if getattr(node.tariff, rate_name) < 0:
            problems.append(f"{node.id}: tariff.{rate_name} must be >= 0")
    return problems


def parse_semver(text: str) -> tuple:
    """Parse a semantic version into an ordering key.

    Raises ValueError unless the registration standard's version
    pattern (full MAJOR.MINOR.PATCH form) matches the whole string,
    its digits ASCII only.
    Pre-release versions order below the plain release; build metadata
    is ignored for precedence.
    """
    m = re.fullmatch(standard()["version"]["pattern"], text, re.ASCII)
    if not m:
        raise ValueError(f"not a semantic version: {text!r}")
    major, minor, patch = int(m.group(1)), int(m.group(2)), int(m.group(3))
    pre = m.group(4)
    if pre is None:
        # Releases outrank any pre-release of the same triple.
        pre_key = (1,)
    else:
        ids = []
        for ident in pre.split("."):
            if ident.isdigit():
                ids.append((0, int(ident), ""))
            else:
                ids.append((1, 0, ident))
        pre_key = (0, tuple(ids))
    return (major, minor, patch, pre_key)

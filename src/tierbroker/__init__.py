"""tierbroker: service placement across dealer, operator and cloud tiers.

A service registry with trust-aware, multi-criteria placement
arbitration, plus a deterministic discrete-event simulator and a CLI for
comparing placement policies on scenario files.
"""

__version__ = "0.1.0"

from .arbitrator import (
    RescheduleAdvice,
    SchedulerWeights,
    Thresholds,
    schedule_service,
)
from .errors import (
    ConfigError,
    DuplicateService,
    IncompatibleReplacement,
    NoAdmissibleNode,
    NotFoundError,
    ParseError,
    StandardViolation,
    UncoverableGoal,
    ValidationError,
)
from .model import (
    InvocationRecord,
    PlacementDecision,
    ResourceNode,
    SecurityClass,
    ServiceDescriptor,
    Tier,
    Topology,
    TrustLevel,
    is_admissible,
    pair_cost,
)
from .registry import (
    FunctionalSpec,
    Registry,
    ServiceRecord,
    ServiceState,
)
from .simulation import Simulation, simulate_scenario
from .workload import Scenario, generate_workload, load_scenario

__all__ = [
    "ConfigError",
    "DuplicateService",
    "FunctionalSpec",
    "IncompatibleReplacement",
    "InvocationRecord",
    "NoAdmissibleNode",
    "NotFoundError",
    "ParseError",
    "PlacementDecision",
    "Registry",
    "RescheduleAdvice",
    "ResourceNode",
    "Scenario",
    "SchedulerWeights",
    "SecurityClass",
    "ServiceDescriptor",
    "ServiceRecord",
    "ServiceState",
    "Simulation",
    "StandardViolation",
    "Thresholds",
    "Tier",
    "Topology",
    "TrustLevel",
    "UncoverableGoal",
    "ValidationError",
    "generate_workload",
    "is_admissible",
    "load_scenario",
    "pair_cost",
    "schedule_service",
    "simulate_scenario",
    "__version__",
]

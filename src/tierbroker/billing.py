"""Charging and service-level rebates.

A completed invocation is charged a flat base fee plus metered CPU time
and metered data movement. When the provider misses the agreed latency
bound (after adding its own jitter and session re-establishment cost),
the consumer gets a fractional rebate.
"""

from __future__ import annotations

from .model import QoSParameters, ResourceNode, ServiceDescriptor, Tariff, Tier

DEFAULT_REBATE_FRAC = 0.1

# Fallback price books per tier; scenarios normally price nodes explicitly.
DEFAULT_TARIFFS = {
    Tier.DEALER: Tariff(base_fee=0.2, cpu_rate=0.1, data_rate=0.01),
    Tier.MNO: Tariff(base_fee=0.5, cpu_rate=0.2, data_rate=0.02),
    Tier.CLOUD: Tariff(base_fee=1.0, cpu_rate=0.4, data_rate=0.05),
}


def default_tariff(tier: Tier) -> Tariff:
    t = DEFAULT_TARIFFS[tier]
    return Tariff(base_fee=t.base_fee, cpu_rate=t.cpu_rate, data_rate=t.data_rate)


def compute_charge(service: ServiceDescriptor, node: ResourceNode) -> float:
    """One request's charge before any rebate, under the node's tariff.

    Base fee + CPU-seconds metering + per-MB data metering. Placement
    scores nodes by it and the simulator bills it, so the charge a
    placement projects is the charge the consumer pays.
    """
    tariff = node.tariff
    cpu_seconds = service.cpu_demand / node.cpu_speed
    return (
        tariff.base_fee + tariff.cpu_rate * cpu_seconds + tariff.data_rate * service.payload_total
    )


def apply_slo_rebate(
    charge: float,
    qos: QoSParameters,
    observed_latency_ms: float,
    sla_latency_ms: float,
    rebate_frac: float = DEFAULT_REBATE_FRAC,
) -> float:
    """Discount the charge when the latency objective is missed.

    The provider answers for its whole delivery path, so jitter and
    session re-establishment overhead count against the bound. Exactly
    meeting the bound is not a breach.
    """
    effective = observed_latency_ms + qos.jitter_ms + qos.session_reestablish_ms
    if effective > sla_latency_ms:
        return charge * (1.0 - rebate_frac)
    return charge

"""Shared fixtures: the three-node reference topology, builders and the
program's runner for a policy."""

from pathlib import Path

import pytest

from tierbroker.billing import default_tariff
from tierbroker.model import (
    ResourceNode,
    SecurityClass,
    ServiceDescriptor,
    Tier,
    Topology,
    TrustAssessment,
    TrustBasis,
    TrustLevel,
)
from tierbroker.simulation import POLICY_TIERS, PinnedQueues, Simulation

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Noon and midnight on day zero; D1 keeps business hours 09:00-17:00.
T0_NOON = 720 * 60000.0
T0_MIDNIGHT = 0.0


def make_node(
    node_id,
    tier,
    cpu_speed,
    rtt_ms,
    bandwidth_mbps,
    cpu_slots=2,
    mem_capacity=4096.0,
    storage_capacity=10240.0,
    internet_path=False,
    trust_level=TrustLevel.HIGH,
    trust_basis=TrustBasis.ESTABLISHED,
    open_hours=None,
    tariff=None,
):
    if tier is Tier.DEALER and open_hours is None:
        open_hours = (540, 1020)
    return ResourceNode(
        id=node_id,
        tier=tier,
        cpu_speed=cpu_speed,
        cpu_slots=cpu_slots,
        mem_capacity=mem_capacity,
        storage_capacity=storage_capacity,
        rtt_ms=rtt_ms,
        bandwidth_mbps=bandwidth_mbps,
        internet_path=internet_path,
        trust=TrustAssessment(level=trust_level, basis=trust_basis),
        tariff=tariff or default_tariff(tier),
        open_hours=open_hours,
    )


def make_service(
    service_id="svc-1",
    name="unit-probe",
    version="1.0.0",
    tags=("compute",),
    cpu_demand=100.0,
    mem_demand=64.0,
    storage_demand=1.0,
    payload_in=0.1,
    payload_out=0.1,
    latency_sensitive=False,
    data_intensive=False,
    security_class=SecurityClass.PUBLIC,
    sla_latency_ms=1000.0,
):
    return ServiceDescriptor(
        id=service_id,
        name=name,
        version=version,
        capability_tags=set(tags),
        cpu_demand=cpu_demand,
        mem_demand=mem_demand,
        storage_demand=storage_demand,
        payload_in=payload_in,
        payload_out=payload_out,
        latency_sensitive=latency_sensitive,
        data_intensive=data_intensive,
        security_class=security_class,
        sla_latency_ms=sla_latency_ms,
    )


def t0_nodes():
    d1 = make_node("D1", Tier.DEALER, cpu_speed=2000.0, rtt_ms=5.0, bandwidth_mbps=100.0,
                   mem_capacity=2048.0, storage_capacity=4096.0)
    m1 = make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=50.0, bandwidth_mbps=50.0)
    c1 = make_node("C1", Tier.CLOUD, cpu_speed=8000.0, rtt_ms=200.0, bandwidth_mbps=100.0,
                   cpu_slots=8, mem_capacity=65536.0, storage_capacity=1048576.0,
                   internet_path=True)
    return [d1, m1, c1]


def program_run(scenario, policy="sami", seed=None, arrivals=None):
    """(runner, result) of the program's run of the policy, as
    simulate_scenario picks it: the event loop under sami, the pinned
    queues under the others."""
    runner = PinnedQueues if policy in POLICY_TIERS else Simulation
    sim = runner(scenario, policy=policy, seed=seed, arrivals=arrivals)
    return sim, sim.run()


@pytest.fixture
def t0():
    return Topology(t0_nodes())

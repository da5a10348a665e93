"""Charging, rebates and the mobile-side energy account."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierbroker.arbitrator import SchedulerWeights, Thresholds, score_pool
from tierbroker.billing import (
    DEFAULT_TARIFFS,
    apply_slo_rebate,
    compute_charge,
    default_tariff,
)
from tierbroker.model import (
    EnergyModel,
    Outcome,
    QoSParameters,
    Tariff,
    Tier,
    transmit_ms,
)
from tierbroker.simulation import Simulation, energy_j
from tierbroker.workload import Arrival, ConsumerSpec, Scenario

from conftest import make_node, make_service
from oracles import oracle_charge


def priced(tariff, cpu_demand=1000.0, payload_mb=0.0):
    """A service and a 1,000 MI/s node: cpu_demand / 1000 CPU-seconds, payload_mb moved."""
    service = make_service(cpu_demand=cpu_demand, payload_in=payload_mb, payload_out=0.0)
    node = make_node("M1", Tier.MNO, cpu_speed=1000.0, rtt_ms=50.0, bandwidth_mbps=50.0,
                     tariff=tariff)
    return service, node


def test_charge_example():
    tariff = Tariff(base_fee=1.0, cpu_rate=0.5, data_rate=0.0)
    assert compute_charge(*priced(tariff, cpu_demand=2000.0)) == 2.0


def test_charge_base_fee_only():
    tariff = Tariff(base_fee=0.7, cpu_rate=0.5, data_rate=0.3)
    assert compute_charge(*priced(tariff, cpu_demand=0.0, payload_mb=0.0)) == 0.7


def test_charge_meters_data():
    tariff = Tariff(base_fee=0.0, cpu_rate=0.0, data_rate=0.05)
    assert compute_charge(*priced(tariff, payload_mb=4.0)) == pytest.approx(0.2)


def test_default_tariffs_order_by_distance():
    dealer, mno, cloud = (DEFAULT_TARIFFS[t] for t in (Tier.DEALER, Tier.MNO, Tier.CLOUD))
    assert dealer.base_fee < mno.base_fee < cloud.base_fee
    assert dealer.cpu_rate < mno.cpu_rate < cloud.cpu_rate
    assert dealer.data_rate < mno.data_rate < cloud.data_rate


def test_default_tariff_returns_a_copy():
    t = default_tariff(Tier.DEALER)
    t.base_fee = 99.0
    assert DEFAULT_TARIFFS[Tier.DEALER].base_fee == 0.2


def test_rebate_applies_only_past_the_bound():
    qos = QoSParameters()
    assert apply_slo_rebate(10.0, qos, 1001.0, 1000.0) == pytest.approx(9.0)
    # Exactly on the bound is not a breach.
    assert apply_slo_rebate(10.0, qos, 1000.0, 1000.0) == 10.0
    assert apply_slo_rebate(10.0, qos, 1.0, 1000.0) == 10.0


def test_rebate_counts_provider_overheads():
    qos = QoSParameters(jitter_ms=30.0, session_reestablish_ms=30.0)
    # 950 observed + 60 overhead crosses the 1000 ms bound.
    assert apply_slo_rebate(10.0, qos, 950.0, 1000.0) == pytest.approx(9.0)
    assert apply_slo_rebate(10.0, qos, 940.0, 1000.0) == 10.0


def test_rebate_frac_zero_is_identity():
    qos = QoSParameters()
    assert apply_slo_rebate(10.0, qos, 5000.0, 1000.0, rebate_frac=0.0) == 10.0


def test_energy_example():
    # 1 MB over 8 Mbps is one second of transmit at 1 W.
    assert energy_j(transmit_ms(1.0, 8.0), 0.0, EnergyModel()) == pytest.approx(1.0)
    assert energy_j(transmit_ms(1.0, 8.0), 1000.0, EnergyModel()) == pytest.approx(1.1)
    assert energy_j(transmit_ms(0.0, 8.0), 2000.0, EnergyModel()) == pytest.approx(0.2)


def test_energy_monotone_in_bandwidth():
    values = [
        energy_j(transmit_ms(5.0, bw), 100.0, EnergyModel()) for bw in (1.0, 2.0, 10.0, 100.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_charge_additivity():
    tariff = Tariff(base_fee=0.4, cpu_rate=0.25, data_rate=0.02)
    a = compute_charge(*priced(tariff, cpu_demand=1200.0, payload_mb=1.5))
    b = compute_charge(*priced(tariff, cpu_demand=800.0, payload_mb=2.5))
    both = compute_charge(*priced(tariff, cpu_demand=2000.0, payload_mb=4.0))
    assert math.isclose(a + b - tariff.base_fee, both, rel_tol=0, abs_tol=1e-9)


# ----------------------------------------------------------------------
# the charge placement projects is the charge the consumer is billed


class OneRequestEach(Simulation):
    """One request from u1 to each of the scenario's services, all at 1 ms,
    each pushed onto the heap before the calendar."""

    def _schedule_calendar(self):
        for service in self.scenario.services:
            self._push(1.0, self._on_arrival, Arrival(1.0, "u1", service.id))
        self._push_calendar()


def billed(services, node):
    """Service id -> the charge billed for its one request on node, the only node."""
    scenario = Scenario(
        horizon_ms=60000.0,
        seed=1,
        nodes=[node],
        services=services,
        consumers=[ConsumerSpec("u1", {service.id: 1.0 for service in services})],
        weights=SchedulerWeights(),
        thresholds=Thresholds(),
        energy=EnergyModel(),
    )
    records = OneRequestEach(scenario).run().records
    sla_ms = {service.id: service.sla_latency_ms for service in services}
    assert sorted(record.service_id for record in records) == sorted(sla_ms)
    for record in records:
        assert record.outcome is Outcome.COMPLETED
        assert record.t_done - record.t_arrive <= sla_ms[record.service_id]  # no rebate
    return {record.service_id: record.charge for record in records}


def projected(service, node):
    ((_, _, charge, node_id),) = score_pool([node], service, SchedulerWeights())
    assert node_id == node.id
    return charge


def test_billed_charge_is_the_projected_charge_to_the_bit():
    # cpu_demand / cpu_speed * 1000 / 1000 rounds to a different float
    # here than cpu_demand / cpu_speed does.
    service = make_service(cpu_demand=900.0, payload_in=0.0, payload_out=0.0)
    node = make_node("M1", Tier.MNO, cpu_speed=3100.0, rtt_ms=50.0, bandwidth_mbps=50.0,
                     tariff=Tariff(base_fee=0.0, cpu_rate=1.0, data_rate=0.0))
    charge = billed([service], node)[service.id]
    assert charge == oracle_charge(service, node) == projected(service, node) == 900.0 / 3100.0


# A base fee or data rate of 0 and a CPU rate of 1 leave the CPU-seconds'
# last bit in the sum, where a second spelling of them would show.
prices = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def priced_pairs(draw):
    """Services with integer demands up to an integer speed, all on one priced node."""
    speed = draw(st.integers(1, 100_000))
    demands = draw(st.lists(st.integers(0, speed), min_size=1, max_size=10))
    services = [
        make_service(f"svc-{i}", name=f"probe-{i}", cpu_demand=float(demand),
                     payload_in=draw(st.integers(0, 20)) / 10.0, payload_out=0.0,
                     sla_latency_ms=1e9)
        for i, demand in enumerate(demands)
    ]
    tariff = draw(st.builds(Tariff, base_fee=prices, cpu_rate=prices, data_rate=prices))
    node = make_node("M1", Tier.MNO, cpu_speed=float(speed), rtt_ms=50.0,
                     bandwidth_mbps=50.0, tariff=tariff)
    return services, node


@settings(max_examples=200, deadline=None)
@given(priced_pairs())
def test_a_pair_is_billed_what_placement_projects(case):
    services, node = case
    charges = billed(services, node)
    for service in services:
        assert charges[service.id] == projected(service, node) == oracle_charge(service, node)

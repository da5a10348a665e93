"""Scheduler flow, scoring, monitoring context, analysis detectors, rescheduling."""

import statistics
from collections import deque
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierbroker.arbitrator import (
    AdviceKind,
    RescheduleAdvice,
    SchedulerWeights,
    ServiceWindow,
    Thresholds,
    analyze_computation,
    analyze_performance,
    collect_context,
    decide_among,
    enforce_standard,
    migration_delay_ms,
    nearer_gain,
    reschedule,
    schedule_service,
)
from tierbroker.billing import compute_charge
from tierbroker.errors import (
    NoAdmissibleNode,
    OutOfOrderEvent,
)
from tierbroker.model import (
    Outcome,
    PlacementDecision,
    PlacementReason,
    SecurityClass,
    Tariff,
    Tier,
    Topology,
    TrustBasis,
    TrustLevel,
    pair_cost,
)
from tierbroker.report import percentile
from tierbroker.simulation import Simulation
from tierbroker.workload import load_scenario

from conftest import SCENARIO_DIR, T0_MIDNIGHT, T0_NOON, make_node, make_service
from oracles import (
    OracleNoNode,
    grid_pools,
    oracle_schedule,
    tier_subsets,
)

W = SchedulerWeights()
SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))


# ----------------------------------------------------------------------
# placement flow


def test_critical_pins_to_private_mno(t0):
    svc = make_service(security_class=SecurityClass.CRITICAL)
    for weights in (W, SchedulerWeights(w_latency=0.0, w_cost=1.0)):
        decision = schedule_service(svc, t0, weights, T0_NOON)
        assert decision.node_id == "M1"
        assert decision.reason is PlacementReason.SECURITY_PIN


def test_latency_sensitive_prefers_open_dealer(t0):
    svc = make_service(latency_sensitive=True)
    decision = schedule_service(svc, t0, W, T0_NOON)
    assert decision.node_id == "D1"
    assert decision.reason is PlacementReason.LATENCY_PREFERENCE
    # Outside dealer hours the preference has nothing to bind to.
    night = schedule_service(svc, t0, W, T0_MIDNIGHT)
    assert night.node_id == "M1"
    assert night.reason is PlacementReason.CAPACITY_FALLBACK


def test_data_intensive_routes_to_cloud(t0):
    svc = make_service(data_intensive=True)
    decision = schedule_service(svc, t0, W, T0_NOON)
    assert decision.node_id == "C1"
    assert decision.reason is PlacementReason.DATA_INTENSIVE


def test_oversized_storage_routes_to_cloud(t0):
    # 20 GB exceeds every operator node but fits the cloud.
    svc = make_service(storage_demand=20480.0)
    decision = schedule_service(svc, t0, W, T0_NOON)
    assert decision.node_id == "C1"
    assert decision.reason is PlacementReason.DATA_INTENSIVE


def test_plain_public_service_lands_on_dealer(t0):
    decision = schedule_service(make_service(), t0, W, T0_NOON)
    assert decision.node_id == "D1"
    assert decision.reason is PlacementReason.CAPACITY_FALLBACK
    assert decision.objective_ms == pytest.approx(5 + 16 + 50)


def test_no_admissible_node_raises(t0):
    svc = make_service(cpu_demand=1e9)
    with pytest.raises(NoAdmissibleNode):
        schedule_service(svc, t0, W, T0_NOON)


def test_schedule_matches_oracle_on_t0(t0):
    nodes = list(t0)
    cases = 0
    for lat, data, big, sec, t_ms in product(
        (False, True),
        (False, True),
        (False, True),
        (SecurityClass.PUBLIC, SecurityClass.SENSITIVE, SecurityClass.CRITICAL),
        (T0_NOON, T0_MIDNIGHT),
    ):
        svc = make_service(
            latency_sensitive=lat,
            data_intensive=data,
            storage_demand=20480.0 if big else 1.0,
            security_class=sec,
        )
        try:
            expected = oracle_schedule(svc, nodes, W.w_latency, W.w_cost, t_ms)
        except OracleNoNode:
            with pytest.raises(NoAdmissibleNode):
                schedule_service(svc, t0, W, t_ms)
            continue
        decision = schedule_service(svc, t0, W, t_ms)
        assert (decision.node_id, decision.reason.value) == expected
        cases += 1
    assert cases > 0


def test_schedule_matches_oracle_across_weights_and_times():
    dealers, mnos, clouds = grid_pools()
    services = []
    for lat, data, big in product((False, True), repeat=3):
        for sec in (SecurityClass.PUBLIC, SecurityClass.SENSITIVE, SecurityClass.CRITICAL):
            services.append(make_service(
                service_id=f"svc-{int(lat)}{int(data)}{int(big)}-{sec.value}",
                cpu_demand=300.0,
                mem_demand=512.0,
                storage_demand=60000.0 if big else 1.0,
                payload_in=0.2,
                payload_out=0.3,
                latency_sensitive=lat,
                data_intensive=data,
                security_class=sec,
            ))
    weight_pairs = (
        SchedulerWeights(w_latency=0.3, w_cost=0.7),
        SchedulerWeights(w_latency=1.0, w_cost=0.0),
    )
    cases = 0
    for d_set, m_set, c_set in product(
        tier_subsets(dealers, max_size=2),
        tier_subsets(mnos, max_size=2),
        tier_subsets(clouds, max_size=2),
    ):
        nodes = list(d_set) + list(m_set) + list(c_set)
        if not nodes:
            continue
        topology = Topology(nodes)
        for svc, weights, t_ms in product(
            services, weight_pairs, (T0_NOON, T0_MIDNIGHT)
        ):
            cases += 1
            try:
                expected = oracle_schedule(
                    svc, nodes, weights.w_latency, weights.w_cost, t_ms
                )
            except OracleNoNode:
                with pytest.raises(NoAdmissibleNode):
                    schedule_service(svc, topology, weights, t_ms)
                continue
            decision = schedule_service(svc, topology, weights, t_ms)
            assert (decision.node_id, decision.reason.value) == expected
    assert cases == 342 * 24 * 4


# Few values per field, so that ties, equal capacities and demands
# exactly at a capacity come up often.
SPEEDS = st.sampled_from([500.0, 1000.0, 2000.0, 4000.0])
SIZES = st.sampled_from([256.0, 1024.0, 4096.0, 60000.0])


@st.composite
def random_nodes(draw):
    nodes = []
    for index in range(draw(st.integers(1, 7))):
        tier = draw(st.sampled_from(list(Tier)))
        open_minute = draw(st.integers(0, 1439))
        nodes.append(make_node(
            f"n{index}",
            tier,
            cpu_speed=draw(SPEEDS),
            rtt_ms=draw(st.sampled_from([2.0, 20.0, 150.0])),
            bandwidth_mbps=draw(st.sampled_from([10.0, 100.0])),
            cpu_slots=draw(st.integers(1, 4)),
            mem_capacity=draw(SIZES),
            storage_capacity=draw(SIZES),
            internet_path=tier is not Tier.MNO and draw(st.booleans()),
            trust_level=draw(st.sampled_from(list(TrustLevel))),
            trust_basis=draw(st.sampled_from(list(TrustBasis))),
            open_hours=(open_minute, draw(st.integers(open_minute + 1, 1440)))
            if tier is Tier.DEALER else None,
            tariff=Tariff(*draw(st.tuples(*[st.sampled_from([0.0, 0.1, 1.0])] * 3))),
        ))
    return nodes


@st.composite
def random_services(draw):
    return make_service(
        cpu_demand=draw(SPEEDS),
        mem_demand=draw(SIZES),
        storage_demand=draw(SIZES),
        payload_in=draw(st.sampled_from([0.0, 0.5, 2.0])),
        payload_out=draw(st.sampled_from([0.0, 0.5])),
        latency_sensitive=draw(st.booleans()),
        data_intensive=draw(st.booleans()),
        security_class=draw(st.sampled_from(list(SecurityClass))),
    )


@st.composite
def random_instants(draw, nodes):
    """A dealer's opening or closing minute on one of three days, exactly or 1 ms off,
    three times in four; otherwise, or without dealers, any time in those days."""
    boundaries = [minute for node in nodes if node.open_hours for minute in node.open_hours]
    if not boundaries or draw(st.integers(0, 3)) == 0:
        return draw(st.floats(min_value=0.0, max_value=3 * 86400000.0))
    day, minute = draw(st.integers(0, 2)), draw(st.sampled_from(boundaries))
    return day * 86400000.0 + minute * 60000.0 + draw(st.sampled_from([-1.0, 0.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(random_nodes(), random_services(), st.floats(min_value=0.0, max_value=1.0), st.data())
def test_schedule_matches_oracle_on_random_topologies(nodes, svc, w_latency, data):
    t_ms = max(data.draw(random_instants(nodes)), 0.0)
    weights = SchedulerWeights(w_latency=w_latency, w_cost=1.0 - w_latency)
    try:
        expected = oracle_schedule(svc, nodes, weights.w_latency, weights.w_cost, t_ms)
    except OracleNoNode:
        with pytest.raises(NoAdmissibleNode):
            schedule_service(svc, Topology(nodes), weights, t_ms)
        return
    decision = schedule_service(svc, Topology(nodes), weights, t_ms)
    assert (decision.node_id, decision.reason.value) == expected


def test_decide_among_tie_breaks_by_id():
    twin_a = make_node("N-a", Tier.MNO, 4000.0, 50.0, 50.0)
    twin_b = make_node("N-b", Tier.MNO, 4000.0, 50.0, 50.0)
    decision = decide_among(
        [twin_b, twin_a], make_service(), W, PlacementReason.CAPACITY_FALLBACK, 0.0
    )
    assert decision.node_id == "N-a"


def test_compute_charge_uses_tariff(t0):
    svc = make_service(cpu_demand=100.0, payload_in=0.1, payload_out=0.1)
    assert compute_charge(svc, t0.get("M1")) == pytest.approx(0.5 + 0.005 + 0.004)


# ----------------------------------------------------------------------
# monitoring context


def test_percentile_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 95.0) == 95.0
    assert percentile(values, 100.0) == 100.0
    assert percentile(values, 1.0) == 1.0
    assert percentile([7.0], 95.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 95.0)


def test_context_window_evicts_oldest():
    w = ServiceWindow("svc", 100)
    for i in range(101):
        collect_context(w, float(i), latency_ms=float(i), exec_ms=1.0)
    assert len(w.times) == 100
    # 1 .. 100 left: the mean of 0 .. 99 would be 49.5.
    assert w.mean_latency() == 50.5


def test_context_rejects_time_travel():
    w = ServiceWindow("svc", 100)
    collect_context(w, 100.0, 10.0, 1.0)
    message = r"^service svc: completion at 99.0 after seeing 100.0$"
    with pytest.raises(OutOfOrderEvent, match=message):
        collect_context(w, 99.0, 10.0, 1.0)
    collect_context(w, 100.0, 10.0, 1.0)  # a tie is in order
    assert list(w.times) == [100.0, 100.0]


def test_context_rate_over_window_span():
    w = ServiceWindow("svc", 100)
    for i in range(25):
        collect_context(w, i * 100.0, 500.0, 1.0)
    # 24 intervals of 100 ms each.
    assert w.rate_per_s() == pytest.approx(10.0)
    assert w.mean_latency() == 500.0


OBSERVATION = st.tuples(
    st.floats(0.0, 5000.0),  # gap since the previous completion
    st.floats(0.0, 1e9, allow_subnormal=True),  # latency
    st.floats(0.0, 1e6),  # execution time
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.lists(OBSERVATION, max_size=30))
def test_context_columns_match_a_plain_window(window, observations):
    # The reference is the last `window` observations as one list; the
    # draws run up to several windows long, so eviction is exercised.
    w = ServiceWindow("svc", window)
    seen = []
    t = 0.0
    for gap, latency, exec_ms in observations:
        t += gap
        collect_context(w, t, latency, exec_ms)
        seen.append((t, latency, exec_ms))
        plain = seen[-window:]
        assert len(w.times) == len(plain)
        mean = w.mean_latency()
        assert mean.hex() == statistics.fmean([s[1] for s in plain]).hex()
        assert list(w.execs) == [s[2] for s in plain]


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", SHIPPED)
def test_each_window_holds_its_last_completions(name, seed):
    # The simulator feeds a completion straight into its service's window,
    # so no other outcome can reach it. After a sami run, each window holds
    # the service's last min(window, completed) completions, in completion
    # order, as the records tell them.
    scenario = load_scenario(str(SCENARIO_DIR / name))
    sim = Simulation(scenario, seed=seed)
    records = sim.run().records
    size = scenario.thresholds.window
    for service_id, state in sim.services.items():
        done = sorted(
            (r for r in records if r.service_id == service_id and r.outcome is Outcome.COMPLETED),
            key=lambda r: r.t_done,
        )
        desc = state.desc
        expected = [
            (r.t_done, r.t_done - r.t_arrive, pair_cost(desc, sim.topology.get(r.node_id)).exec_ms)
            for r in done
        ][-size:]
        window = state.window
        assert list(zip(window.times, window.latencies, window.execs)) == expected


# ----------------------------------------------------------------------
# analysis detectors


def pressured_window(service_id, n=25, dt_ms=99.0, latency_ms=500.0):
    w = ServiceWindow(service_id, 100)
    for i in range(n):
        collect_context(w, i * dt_ms, latency_ms, 1.0)
    return w


def delay_pressure(w, svc, node, topology, t_ms):
    """The delay-pressure verdict as the simulator reaches it: nearer_gain, then the detector."""
    thresholds = Thresholds()
    nearer = nearer_gain(svc, node, topology, thresholds, t_ms)
    return analyze_performance(w, nearer, thresholds)


def heavy_service():
    return make_service(cpu_demand=200.0, payload_in=0.5, payload_out=0.5,
                        latency_sensitive=True)


def test_delay_pressure_fires_above_threshold(t0):
    svc = heavy_service()
    w = pressured_window(svc.id)  # rate about 10.1/s x 500 ms
    advice = delay_pressure(w, svc, t0.get("M1"), t0, T0_NOON)
    assert advice is not None
    assert advice.trigger is AdviceKind.DELAY_PRESSURE
    assert advice.target_tier_hint is Tier.DEALER
    # M1 projects 260 ms, D1 projects 185 ms.
    assert advice.projected_gain_ms == pytest.approx(75.0)


def test_delay_pressure_quiet_at_threshold(t0):
    svc = heavy_service()
    # Exactly 10/s x 500 ms = 5000, the boundary itself does not fire.
    w = pressured_window(svc.id, dt_ms=100.0)
    assert delay_pressure(w, svc, t0.get("M1"), t0, T0_NOON) is None


def test_delay_pressure_needs_enough_samples(t0):
    svc = heavy_service()
    w = pressured_window(svc.id, n=19)
    assert delay_pressure(w, svc, t0.get("M1"), t0, T0_NOON) is None


def test_delay_pressure_only_for_latency_sensitive(t0):
    svc = make_service(cpu_demand=200.0, payload_in=0.5, payload_out=0.5)
    w = pressured_window(svc.id)
    assert delay_pressure(w, svc, t0.get("M1"), t0, T0_NOON) is None


def test_delay_pressure_needs_a_worthwhile_move(t0):
    # D1 only wins 36 ms for this light service, below the 50 ms bar.
    svc = make_service(latency_sensitive=True)
    w = pressured_window(svc.id)
    assert delay_pressure(w, svc, t0.get("M1"), t0, T0_NOON) is None


def test_delay_pressure_ignores_closed_dealers(t0):
    svc = heavy_service()
    w = pressured_window(svc.id)
    advice = delay_pressure(w, svc, t0.get("M1"), t0, T0_MIDNIGHT)
    assert advice is None


def test_delay_pressure_checks_dealer_before_mno(t0):
    svc = heavy_service()
    w = pressured_window(svc.id)
    advice = delay_pressure(w, svc, t0.get("C1"), t0, T0_NOON)
    assert advice is not None
    assert advice.target_tier_hint is Tier.DEALER


def test_delay_pressure_never_points_farther(t0):
    svc = heavy_service()
    w = pressured_window(svc.id)
    advice = delay_pressure(w, svc, t0.get("D1"), t0, T0_NOON)
    assert advice is None


@pytest.mark.parametrize("nearer", [None, False])
def test_delay_pressure_needs_a_nearer_tier(nearer):
    # The window alone is under pressure; with no tier named the detector is quiet.
    w = pressured_window("svc")
    assert analyze_performance(w, nearer, Thresholds()) is None
    advice = analyze_performance(w, (Tier.MNO, 60.0), Thresholds())
    assert (advice.trigger, advice.target_tier_hint, advice.projected_gain_ms) == (
        AdviceKind.DELAY_PRESSURE, Tier.MNO, 60.0
    )


def test_compute_shortfall_needs_full_run():
    assert analyze_computation([301.0, 302.0, 303.0], 100.0, k=1.5, m=3) is not None
    assert analyze_computation([400.0, 80.0, 400.0], 100.0, k=1.5, m=3) is None
    assert analyze_computation([400.0, 400.0], 100.0, k=1.5, m=3) is None
    assert analyze_computation([], 100.0, k=1.5, m=3) is None


def test_compute_shortfall_reads_the_last_m_of_a_longer_deque():
    # The simulator passes its window's column; only the last m times count.
    execs = deque([90.0, 80.0, 300.0, 400.0, 500.0], maxlen=5)
    advice = analyze_computation(execs, 100.0, k=1.5, m=3)
    assert advice.projected_gain_ms == 300.0
    assert analyze_computation(execs, 100.0, k=1.5, m=4) is None
    assert list(execs) == [90.0, 80.0, 300.0, 400.0, 500.0]


def test_compute_shortfall_strict_overrun():
    # Exactly k x expected is not an overrun.
    assert analyze_computation([150.0, 150.0, 150.0], 100.0, k=1.5, m=3) is None
    advice = analyze_computation([150.1, 150.1, 150.1], 100.0, k=1.5, m=3)
    assert advice is not None
    assert advice.trigger is AdviceKind.COMPUTE_SHORTFALL
    assert advice.target_tier_hint is None
    assert advice.projected_gain_ms == pytest.approx(50.1)


def test_compute_shortfall_uses_last_m():
    assert analyze_computation([9999.0, 50.0, 400.0, 400.0], 100.0, k=1.5, m=3) is None
    assert analyze_computation([50.0, 400.0, 400.0, 400.0], 100.0, k=1.5, m=3) is not None


def test_compute_shortfall_rejects_bad_expectation():
    with pytest.raises(ValueError):
        analyze_computation([100.0], 0.0, k=1.5, m=3)
    with pytest.raises(ValueError):
        analyze_computation([100.0], -5.0, k=1.5, m=3)


# ----------------------------------------------------------------------
# rescheduling


def placed(t0, svc, node_id, reason=PlacementReason.CAPACITY_FALLBACK):
    node = t0.get(node_id)
    return SimpleNamespace(
        descriptor=svc,
        placement=PlacementDecision(
            service_id=svc.id,
            node_id=node_id,
            tier=node.tier,
            reason=reason,
            objective_ms=0.0,
            decided_at=0.0,
        ),
    )


def advice_for(hint=Tier.DEALER, gain=100.0):
    return RescheduleAdvice(
        trigger=AdviceKind.DELAY_PRESSURE, target_tier_hint=hint, projected_gain_ms=gain,
    )


def test_reschedule_moves_on_strict_improvement(t0):
    svc = heavy_service()
    record = placed(t0, svc, "C1")
    decision = reschedule(record, advice_for(), t0, W, T0_NOON)
    assert decision.node_id == "D1"
    assert decision.reason is PlacementReason.RESCHEDULE
    assert decision.decided_at == T0_NOON


def test_reschedule_stays_when_already_best(t0):
    svc = heavy_service()
    record = placed(t0, svc, "D1")
    decision = reschedule(record, advice_for(), t0, W, T0_NOON)
    assert decision is record.placement


def test_reschedule_falls_back_past_empty_hint(t0):
    svc = heavy_service()
    record = placed(t0, svc, "C1")
    # Dealer hint at midnight is empty; the full flow still finds M1.
    decision = reschedule(record, advice_for(), t0, W, T0_MIDNIGHT)
    assert decision.node_id == "M1"
    assert decision.reason is PlacementReason.RESCHEDULE


def test_reschedule_keeps_placement_when_nothing_admits(t0):
    svc = make_service(cpu_demand=1e9)
    record = placed(t0, svc, "M1")
    decision = reschedule(record, advice_for(hint=None), t0, W, T0_NOON)
    assert decision is record.placement


def test_migration_delay_example(t0):
    svc = make_service(storage_demand=100.0)
    assert migration_delay_ms(svc, t0.get("M1")) == 16000.0


# ----------------------------------------------------------------------
# registration standard


def test_enforce_standard_accepts_valid():
    assert enforce_standard(make_service()) == []


def test_enforce_standard_collects_every_violation():
    svc = make_service(
        service_id="", name="", version="1.0", tags=("UPPER",),
        payload_in=-1.0, sla_latency_ms=0.0,
    )
    fields = {v.field for v in enforce_standard(svc)}
    assert {"id", "name", "version", "capability_tags", "payload_in",
            "sla_latency_ms"} <= fields


def test_enforce_standard_tag_budget():
    within = make_service(tags=tuple(f"t{i}" for i in range(16)))
    assert enforce_standard(within) == []
    over = make_service(tags=tuple(f"t{i}" for i in range(17)))
    assert any(v.field == "capability_tags" for v in enforce_standard(over))


@pytest.mark.parametrize("tag", ["Compute", "a_b", "a b", "-a", "", "caf\u00e9"])
def test_enforce_standard_tag_pattern(tag):
    # The capability_tags item pattern of src/tierbroker/scenario.schema.json.
    violations = enforce_standard(make_service(tags=("compute", tag)))
    assert [v.field for v in violations] == ["capability_tags"]
    assert enforce_standard(make_service(tags=("a-1", "9x"))) == []


def test_enforce_standard_description_budget():
    svc = make_service()
    svc.description = "x" * 2048
    assert enforce_standard(svc) == []
    svc.description = "x" * 2049
    assert any(v.field == "description" for v in enforce_standard(svc))


def test_enforce_standard_vocabulary():
    svc = make_service(tags=("compute", "exotic"))
    assert enforce_standard(svc, vocabulary={"compute", "exotic"}) == []
    violations = enforce_standard(svc, vocabulary={"compute"})
    assert any("exotic" in v.message for v in violations)
    assert enforce_standard(svc, vocabulary=None) == []

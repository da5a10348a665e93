"""Acceptance criteria for the placement fabric, one test per criterion.

Each test prints a single PASS/FAIL line so a full run reads as a
checklist. Expected values come from independent oracles (brute-force
scheduler re-derivation, hand-computed projections) or from exact
invariants; nothing here is tuned to the implementation.
"""

import math
import time
from itertools import product
from types import SimpleNamespace

from tierbroker.arbitrator import (
    AdviceKind,
    RescheduleAdvice,
    SchedulerWeights,
    reschedule,
    schedule_service,
)
from tierbroker.billing import apply_slo_rebate, compute_charge
from tierbroker.cli import EXIT_OK, main
from tierbroker.errors import NoAdmissibleNode
from tierbroker.model import (
    DAY_MS,
    EnergyModel,
    Outcome,
    QoSParameters,
    SecurityClass,
    Tariff,
    Tier,
    Topology,
    TrustAssessment,
    TrustBasis,
    TrustLevel,
    transmit_ms,
)
from tierbroker.simulation import POLICIES, POLICY_TIERS, energy_j, simulate_scenario
from tierbroker.trust import aggregate_trust, indirect_trust
from tierbroker.workload import load_scenario

from conftest import SCENARIO_DIR, T0_NOON, make_node, make_service
from oracles import OracleNoNode, grid_pools, oracle_schedule, splitmix64, tier_subsets

TRUST_ORDER = [TrustLevel.UNTRUSTED, TrustLevel.LOW, TrustLevel.MEDIUM, TrustLevel.HIGH]


def check(number, ok, label):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number:02d} failed: {label}"


def test_c01_scheduler_matches_bruteforce_oracle():
    started = time.perf_counter()
    dealers, mnos, clouds = grid_pools()
    weights = SchedulerWeights()
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
    cases = disagreements = 0
    for d_set, m_set, c_set in product(
        tier_subsets(dealers), tier_subsets(mnos), tier_subsets(clouds)
    ):
        nodes = list(d_set) + list(m_set) + list(c_set)
        if not nodes:
            continue
        topology = Topology(nodes)
        for svc in services:
            cases += 1
            try:
                expected = oracle_schedule(svc, nodes, weights.w_latency,
                                           weights.w_cost, T0_NOON)
            except OracleNoNode:
                try:
                    schedule_service(svc, topology, weights, T0_NOON)
                    disagreements += 1
                except NoAdmissibleNode:
                    pass
                continue
            decision = schedule_service(svc, topology, weights, T0_NOON)
            if (decision.node_id, decision.reason.value) != expected:
                disagreements += 1
    elapsed = time.perf_counter() - started
    check(
        1,
        disagreements == 0 and cases == 511 * 24 and elapsed < 10.0,
        f"scheduler equals oracle on {cases} grid cases ({elapsed:.1f}s)",
    )


def test_c02_critical_never_on_internet_path():
    placements = violations = 0
    for seed in range(1000):
        rng = splitmix64(seed)
        nodes = []
        for i in range(1 + next(rng) % 6):
            tier = (Tier.DEALER, Tier.MNO, Tier.CLOUD)[next(rng) % 3]
            nodes.append(make_node(
                f"n{i}",
                tier,
                cpu_speed=500.0 + (next(rng) % 8) * 1000.0,
                rtt_ms=float(next(rng) % 300),
                bandwidth_mbps=1.0 + (next(rng) % 200),
                cpu_slots=1 + next(rng) % 4,
                mem_capacity=256.0 * (1 + next(rng) % 16),
                storage_capacity=float(10 ** (next(rng) % 6)),
                internet_path=next(rng) % 3 == 0,
                trust_level=TRUST_ORDER[next(rng) % 4],
                trust_basis=list(TrustBasis)[next(rng) % 4],
                open_hours=((0, 1440), (540, 1020), (600, 660))[next(rng) % 3],
            ))
        # Half the scenarios are guaranteed a safe harbor node.
        if seed % 2 == 0:
            nodes.append(make_node("safe", Tier.MNO, 9000.0, 40.0, 50.0,
                                   storage_capacity=1e6))
        topology = Topology(nodes)
        svc = make_service(
            service_id=f"crit-{seed}",
            cpu_demand=float(100 + next(rng) % 4000),
            storage_demand=(1.0, 1e5)[next(rng) % 2],
            latency_sensitive=next(rng) % 2 == 1,
            data_intensive=next(rng) % 2 == 1,
            security_class=SecurityClass.CRITICAL,
        )
        t_ms = float(next(rng) % 86_400_000)
        weights = SchedulerWeights()
        try:
            decision = schedule_service(svc, topology, weights, t_ms)
        except NoAdmissibleNode:
            continue
        placements += 1
        node = topology.get(decision.node_id)
        if node.internet_path or node.tier is not Tier.MNO:
            violations += 1
        advice = RescheduleAdvice(
            trigger=AdviceKind.DELAY_PRESSURE,
            target_tier_hint=(None, Tier.DEALER, Tier.MNO, Tier.CLOUD)[next(rng) % 4],
            projected_gain_ms=100.0,
        )
        record = SimpleNamespace(descriptor=svc, placement=decision)
        final = reschedule(record, advice, topology, weights, t_ms)
        moved = topology.get(final.node_id)
        if moved.internet_path or moved.tier is not Tier.MNO:
            violations += 1
    check(
        2,
        violations == 0 and placements >= 100,
        f"critical services avoided internet paths in {placements} placements",
    )


def test_c03_arbitrated_policy_halves_cloud_latency():
    started = time.perf_counter()
    scenario = load_scenario(str(SCENARIO_DIR / "latency_mix.json"))
    sami = simulate_scenario(scenario, policy="sami").report.run
    cloud = simulate_scenario(scenario, policy="cloud-only").report.run
    elapsed = time.perf_counter() - started
    ok = (
        sami.completed > 0
        and cloud.completed > 0
        and sami.mean_latency_ms <= 0.5 * cloud.mean_latency_ms
        and elapsed < 30.0
    )
    check(
        3,
        ok,
        f"mean latency {sami.mean_latency_ms:.0f} ms vs cloud-only "
        f"{cloud.mean_latency_ms:.0f} ms ({elapsed:.1f}s)",
    )


def test_c04_hot_cloud_service_migrates_nearer():
    scenario = load_scenario(str(SCENARIO_DIR / "hot_cloud_service.json"))
    result = simulate_scenario(scenario)
    moves = [e for e in result.arbitration_log if e[1] == "reschedule"]
    ok = bool(moves) and moves[0][0] <= 5000.0
    drop = 0.0
    if ok:
        t_move = moves[0][0]
        pre = [r.t_done - r.t_arrive for r in result.records
               if r.outcome is Outcome.COMPLETED and r.t_start is not None
               and r.t_start < t_move]
        post = [r.t_done - r.t_arrive for r in result.records
                if r.outcome is Outcome.COMPLETED and r.t_start is not None
                and r.t_start >= t_move]
        ok = bool(pre) and bool(post)
        if ok:
            drop = sum(pre) / len(pre) - sum(post) / len(post)
            ok = drop >= 50.0
    check(4, ok, f"migrated at {moves[0][0] if moves else -1:.0f} ms, "
                 f"latency dropped {drop:.0f} ms")


def test_c05_energy_decreases_with_bandwidth():
    model = EnergyModel()
    values = [
        energy_j(transmit_ms(5.0, 2.0 + 2.0 * i), 100.0, model)
        for i in range(100)
    ]
    strictly_decreasing = all(a > b for a, b in zip(values, values[1:]))
    check(5, strictly_decreasing, "energy falls strictly across a 100-point bandwidth grid")


def test_c06_request_conservation_everywhere():
    failures = []
    for name in ("minimal.json", "latency_mix.json", "hot_cloud_service.json",
                 "dealer_hours.json"):
        scenario = load_scenario(str(SCENARIO_DIR / name))
        for policy in POLICIES:
            run = simulate_scenario(scenario, policy=policy).report.run
            if run.arrivals != run.completed + run.rejected + run.dropped + run.in_flight:
                failures.append((name, policy))
    check(6, not failures, "arrivals = completed + rejected + dropped + in-flight "
                           "for every scenario and policy")


def test_c07_trust_lattice_bounds():
    def est(level):
        return TrustAssessment(level, TrustBasis.ESTABLISHED)

    rank = {level: i for i, level in enumerate(TRUST_ORDER)}
    bad = 0
    for length in (1, 2, 3, 4):
        for levels in product(TRUST_ORDER, repeat=length):
            lo = min(rank[x] for x in levels)
            hi = max(rank[x] for x in levels)
            agg = rank[aggregate_trust([est(x) for x in levels]).level]
            if not lo <= agg <= hi:
                bad += 1
            if length >= 2:
                ind = rank[indirect_trust([est(x) for x in levels]).level]
                if ind > lo or ind > rank[TrustLevel.LOW]:
                    bad += 1
    check(7, bad == 0, "aggregate within [min, max]; indirect capped by weakest link and Low")


def test_c08_compare_runs_are_byte_identical(tmp_path):
    scenario = str(SCENARIO_DIR / "latency_mix.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["compare", "--scenario", scenario, "--seed", "42",
                   "--out", str(out_a), "--format", "csv"])
    code_b = main(["compare", "--scenario", scenario, "--seed", "42",
                   "--out", str(out_b), "--format", "csv"])
    same = (out_a / "compare.csv").read_bytes() == (out_b / "compare.csv").read_bytes()
    check(8, code_a == EXIT_OK and code_b == EXIT_OK and same,
          "equal-seed compare runs emit byte-identical compare.csv")


def test_c09_dealer_hours_respected_over_a_day():
    scenario = load_scenario(str(SCENARIO_DIR / "dealer_hours.json"))
    result = simulate_scenario(scenario)
    dealer_ids = {n.id for n in scenario.nodes if n.tier is Tier.DEALER}
    out_of_hours = [
        r for r in result.records
        if r.node_id in dealer_ids and r.t_start is not None
        and not 540 * 60000.0 <= r.t_start % DAY_MS < 1020 * 60000.0
    ]
    fallbacks = [
        r for r in result.records
        if r.outcome is Outcome.COMPLETED and r.node_id not in dealer_ids
        and not 540 * 60000.0 <= r.t_arrive % DAY_MS < 1020 * 60000.0
    ]
    dealer_work = [r for r in result.records if r.node_id in dealer_ids
                   and r.t_start is not None]
    ok = not out_of_hours and bool(fallbacks) and bool(dealer_work)
    check(9, ok, f"no dealer starts outside business hours; "
                 f"{len(fallbacks)} closed-hours requests served by operator/cloud")


def test_c10_arbitration_event_count_reconciles():
    # The log holds the decisions: a register per placed service and a
    # reschedule per move. Every tick analyses every placed service, so
    # the count adds floor(horizon / 1 s) analyses per placed service.
    mismatches = []
    for name, policy in product(
        ("hot_cloud_service.json", "dealer_hours.json", "latency_mix.json"), POLICIES
    ):
        scenario = load_scenario(str(SCENARIO_DIR / name))
        result = simulate_scenario(scenario, policy=policy)
        log = result.arbitration_log
        registers = sorted(sid for _, kind, sid in log if kind == "register")
        reschedules = sum(1 for e in log if e[1] == "reschedule")
        placed = sorted(row.service_id for row in result.report.services if row.tier != "-")
        pool = policy == "sami" or any(n.tier is POLICY_TIERS[policy] for n in scenario.nodes)
        ticks = math.floor(scenario.horizon_ms / 1000.0) if policy == "sami" else 0
        run = result.report.run
        if not (
            len(log) == len(registers) + reschedules
            and registers == placed
            and len(placed) == (len(scenario.services) if pool else 0)
            and reschedules == run.reschedules
            and run.arbitration_events
            == len(registers) + ticks * len(placed) + reschedules
        ):
            mismatches.append((name, policy))
    check(10, not mismatches,
          "arbitration_events = registrations + analyses + reschedules in every run")


def test_c11_billing_identities():
    # Rejected and in-flight requests occur across these runs.
    unfinished = []
    for name in ("minimal.json", "latency_mix.json", "hot_cloud_service.json",
                 "dealer_hours.json"):
        scenario = load_scenario(str(SCENARIO_DIR / name))
        for policy in POLICIES:
            unfinished += [r for r in simulate_scenario(scenario, policy=policy).records
                           if r.outcome is not Outcome.COMPLETED]
    never_billed = bool(unfinished) and all(
        r.charge == 0.0 and r.energy_j == 0.0 for r in unfinished
    )
    tariff = Tariff(base_fee=0.4, cpu_rate=0.25, data_rate=0.02)
    node = make_node("M1", Tier.MNO, 1000.0, 50.0, 50.0, tariff=tariff)

    def charge(cpu_demand, payload_mb):
        service = make_service(cpu_demand=cpu_demand, payload_in=payload_mb, payload_out=0.0)
        return compute_charge(service, node)

    additive = math.isclose(
        charge(1200.0, 1.5) + charge(800.0, 2.5) - tariff.base_fee,
        charge(2000.0, 4.0),
        rel_tol=0.0,
        abs_tol=1e-9,
    )
    identity = (
        apply_slo_rebate(3.5, QoSParameters(), 9000.0, 100.0, rebate_frac=0.0) == 3.5
    )
    check(
        11,
        never_billed and additive and identity,
        "unfinished work never billed; charges additive; zero rebate is identity",
    )

"""Event loop behavior: determinism, queueing, conservation, baselines."""

import dataclasses
import gc
import weakref

import pytest

from tierbroker import simulation
from tierbroker.errors import ConfigError
from tierbroker.model import DAY_MS, Outcome, Tier
from tierbroker.report import report_to_dict
from tierbroker.simulation import (
    POLICIES,
    POLICY_TIERS,
    PinnedQueues,
    Simulation,
    simulate_scenario,
)
from tierbroker.workload import generate_workload, load_scenario, scenario_from_dict

from conftest import SCENARIO_DIR, make_node
from test_incremental import note_ticks


def inline_scenario(**overrides):
    data = {
        "horizon_ms": 10000.0,
        "seed": 7,
        "nodes": [
            {
                "id": "M1", "tier": "MNO", "cpu_speed": 4000, "cpu_slots": 2,
                "mem_capacity": 4096, "storage_capacity": 10240, "rtt_ms": 50,
                "bandwidth_mbps": 50, "trust": {"level": "High"},
            },
            {
                "id": "C1", "tier": "Cloud", "cpu_speed": 8000, "cpu_slots": 8,
                "mem_capacity": 65536, "storage_capacity": 1048576, "rtt_ms": 200,
                "bandwidth_mbps": 100, "internet_path": True,
                "trust": {"level": "High"},
            },
        ],
        "services": [
            {
                "id": "svc-x", "name": "probe", "version": "1.0.0",
                "capability_tags": ["compute"], "cpu_demand": 2000,
                "mem_demand": 256, "storage_demand": 1.0,
                "payload_in": 0.5, "payload_out": 0.5,
            }
        ],
        "consumers": [
            {"id": "u1", "rates": {"svc-x": 0.5}}
        ],
    }
    data.update(overrides)
    return scenario_from_dict(data)


def conserved(run):
    return run.arrivals == run.completed + run.rejected + run.dropped + run.in_flight


def test_single_request_matches_projection():
    scenario = load_scenario(str(SCENARIO_DIR / "minimal.json"))
    result = simulate_scenario(scenario)
    completed = [r for r in result.records if r.outcome is Outcome.COMPLETED]
    assert len(completed) == 1
    record = completed[0]
    # rtt 50 + transfer 160 + exec 500 on an empty node.
    assert record.t_done - record.t_arrive == pytest.approx(710.0)
    assert record.t_start == record.t_arrive
    assert record.charge == pytest.approx(0.62)
    assert record.energy_j == pytest.approx(0.16)
    row = result.report.services[0]
    assert row.tier == "MNO"
    assert row.mean_latency_ms == pytest.approx(710.0)


def test_runs_are_deterministic():
    scenario = load_scenario(str(SCENARIO_DIR / "latency_mix.json"))
    first = report_to_dict(simulate_scenario(scenario).report)
    second = report_to_dict(simulate_scenario(scenario).report)
    assert first == second


def test_seed_override_changes_arrivals():
    scenario = inline_scenario()
    base = simulate_scenario(scenario)
    other = simulate_scenario(scenario, seed=8)
    assert base.report.seed == 7
    assert other.report.seed == 8
    assert [r.t_arrive for r in base.records] != [r.t_arrive for r in other.records]


def test_conservation_on_shipped_scenarios():
    for name in ("minimal.json", "latency_mix.json", "hot_cloud_service.json"):
        scenario = load_scenario(str(SCENARIO_DIR / name))
        for policy in POLICIES:
            run = simulate_scenario(scenario, policy=policy).report.run
            assert conserved(run), (name, policy)


def test_fifo_per_node():
    scenario = load_scenario(str(SCENARIO_DIR / "hot_cloud_service.json"))
    result = simulate_scenario(scenario)
    started = {}
    for record in result.records:
        if record.t_start is not None:
            started.setdefault(record.node_id, []).append(record)
    assert started
    for records in started.values():
        # Arrival order, because records keep list order by request id.
        starts = [r.t_start for r in records]
        assert starts == sorted(starts)


def test_slot_capacity_respected():
    scenario = load_scenario(str(SCENARIO_DIR / "hot_cloud_service.json"))
    result = simulate_scenario(scenario)
    slots = {n.id: n.cpu_slots for n in scenario.nodes}
    events = []
    for record in result.records:
        if record.t_start is None:
            continue
        end = record.t_done if record.t_done is not None else scenario.horizon_ms + 1
        events.append((record.t_start, 1, record.node_id))
        events.append((end, -1, record.node_id))
    events.sort(key=lambda e: (e[0], e[1]))
    load = {}
    for _, delta, node_id in events:
        load[node_id] = load.get(node_id, 0) + delta
        assert load[node_id] <= slots[node_id]


def test_in_flight_work_is_accounted():
    scenario = inline_scenario(horizon_ms=2000.0,
                               consumers=[{"id": "u1", "rates": {"svc-x": 50.0}}])
    run = simulate_scenario(scenario).report.run
    # Each request needs over 500 ms; late arrivals cannot finish in time.
    assert run.in_flight > 0
    assert conserved(run)


def test_baselines_pin_to_their_tier():
    scenario = load_scenario(str(SCENARIO_DIR / "latency_mix.json"))
    for policy, tier in (("dealer-only", "Dealer"), ("mno-only", "MNO"),
                         ("cloud-only", "Cloud")):
        report = simulate_scenario(scenario, policy=policy).report
        assert {row.tier for row in report.services} == {tier}


def test_critical_service_under_cloud_only_is_refused():
    scenario = inline_scenario(services=[
        {
            "id": "svc-x", "name": "probe", "version": "1.0.0",
            "capability_tags": ["compute"], "cpu_demand": 2000,
            "mem_demand": 256, "storage_demand": 1.0,
            "payload_in": 0.5, "payload_out": 0.5,
            "security_class": "Critical",
        }
    ])
    result = simulate_scenario(scenario, policy="cloud-only")
    run = result.report.run
    assert run.arrivals > 0
    assert run.completed == 0
    assert run.rejected == run.arrivals
    assert run.security_violations == run.arrivals
    assert all(r.outcome is Outcome.REJECTED for r in result.records)


def test_unplaceable_without_tier_nodes():
    scenario = inline_scenario()
    run = simulate_scenario(scenario, policy="dealer-only").report.run
    # No dealer exists: every request bounces.
    assert run.completed == 0
    assert run.rejected == run.arrivals
    assert conserved(run)


def test_dealer_close_flushes_queue():
    data = {
        "horizon_ms": 120000.0,
        "seed": 3,
        "nodes": [
            {
                "id": "D1", "tier": "Dealer", "cpu_speed": 2000, "cpu_slots": 1,
                "mem_capacity": 2048, "storage_capacity": 4096, "rtt_ms": 5,
                "bandwidth_mbps": 100, "open_hours": [0, 1],
                "trust": {"level": "High"},
            }
        ],
        "services": [
            {
                "id": "svc-x", "name": "probe", "version": "1.0.0",
                "capability_tags": ["compute"], "cpu_demand": 2000,
                "mem_demand": 64, "storage_demand": 1.0,
                "payload_in": 0.1, "payload_out": 0.1,
            }
        ],
        "consumers": [
            {"id": "u1", "rates": {"svc-x": 5.0}}
        ],
    }
    scenario = scenario_from_dict(data)
    result = simulate_scenario(scenario, policy="dealer-only")
    run = result.report.run
    assert run.completed > 0
    assert run.rejected > 0
    assert conserved(run)
    for record in result.records:
        if record.t_start is not None:
            assert record.t_start % DAY_MS < 60000.0


def test_analysis_ticks_fall_on_whole_seconds():
    scenario = load_scenario(str(SCENARIO_DIR / "hot_cloud_service.json"))
    sim, result = note_ticks(scenario)  # checks the tick clock
    # The ticks run are whole seconds, each finding the service marked.
    assert sim.ticks and set(sim.ticks) <= {1000.0 * i for i in range(1, 61)}
    # One service: its register, an analysis at each of the 60 seconds, and its moves.
    assert result.report.run.arbitration_events == 1 + 60 + result.report.run.reschedules


def test_baseline_policies_log_only_registers():
    scenario = load_scenario(str(SCENARIO_DIR / "minimal.json"))
    result = simulate_scenario(scenario, policy="mno-only")
    assert result.arbitration_log == [(0.0, "register", "svc-echo")]
    assert result.report.run.arbitration_events == 1


@pytest.mark.parametrize(
    "fields",
    [
        {"open_hours": (0.1, 20)},
        {"open_hours": (-60, 60)},
        {"open_hours": (600, 600)},
        {"cpu_slots": 0},
    ],
    ids=["fractional-minute", "before-midnight", "never-open", "no-slots"],
)
def test_simulation_refuses_nodes_check_node_refuses(fields):
    # Nodes built in code skip the parser, so both runners apply the
    # node rules themselves; only whole-minute hours flip at calendar events.
    bad = make_node("D9", Tier.DEALER, cpu_speed=2000.0, rtt_ms=5.0, bandwidth_mbps=100.0,
                    **fields)
    scenario = load_scenario(str(SCENARIO_DIR / "minimal.json"))
    scenario = dataclasses.replace(scenario, nodes=scenario.nodes + [bad])
    with pytest.raises(ConfigError, match="D9: "):
        Simulation(scenario)
    with pytest.raises(ConfigError, match="D9: "):
        PinnedQueues(scenario, policy="dealer-only")


def test_unknown_policy_rejected():
    scenario = load_scenario(str(SCENARIO_DIR / "minimal.json"))
    with pytest.raises(ConfigError):
        simulate_scenario(scenario, policy="closest-first")


class NoteArrivals(Simulation):
    """A subclass overriding a handler, as the event-order tests write them."""

    def _on_arrival(self, t_ms, arrival):
        super()._on_arrival(t_ms, arrival)


@pytest.mark.parametrize("runner", [Simulation, NoteArrivals])
@pytest.mark.parametrize("policy", sorted(POLICY_TIERS))
def test_the_event_loop_refuses_a_pinned_policy(runner, policy):
    # A pinned policy runs as queues; the event loop would run no handler
    # a subclass overrides there, so it is refused rather than run.
    scenario = load_scenario(str(SCENARIO_DIR / "minimal.json"))
    with pytest.raises(ConfigError, match=f"not '{policy}'"):
        runner(scenario, policy=policy)
    with pytest.raises(ConfigError, match="not 'sami'"):
        PinnedQueues(scenario, policy="sami")



def test_finished_run_frees_its_simulation():
    # Heap entries hold bound methods, so events left past the horizon
    # would keep the simulation, and its windows, in a cycle until the
    # next full collection. With the collector off, only reference counts
    # can free it. At seed 7 two requests are still running at the
    # horizon: the loop pops one's event and stops, leaving the other's.
    scenario = load_scenario(str(SCENARIO_DIR / "latency_mix.json"))
    sim = Simulation(scenario, policy="sami", seed=7)
    freed = weakref.ref(sim)
    gc.disable()
    try:
        result = sim.run()
        del sim
        assert freed() is None
    finally:
        gc.enable()
    running = [r for r in result.records if r.t_start is not None and r.outcome is None]
    assert len(running) >= 2


def test_a_run_keeps_none_of_the_stream_it_drew(monkeypatch):
    # The run walks a reversed copy of what it draws and pops each arrival
    # as it is handled. A drawn stream kept past the run, on the
    # Simulation or its SimResult, would hold every arrival at once.
    drawn = []
    draw = simulation.generate_workload

    def keeping(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(simulation, "generate_workload", keeping)
    scenario = load_scenario(str(SCENARIO_DIR / "latency_mix.json"))
    sim = Simulation(scenario)
    result = sim.run()
    (stream,) = drawn
    assert len(stream) == len(result.records) > 1000
    gc.collect()
    # Only the stand-in's list holds the stream, and only the stream its
    # arrivals: no copy of it either.
    assert gc.get_referrers(stream) == [drawn]
    assert gc.get_referrers(stream[0], stream[len(stream) // 2], stream[-1]) == [stream]


@pytest.mark.parametrize("policy", ["sami", "cloud-only"])
def test_each_arrival_is_freed_once_handled(monkeypatch, policy):
    # The run pops each arrival from a reversed copy of what it draws, so
    # an arrival handled is held by no list: walking the drawn list
    # instead would hold every arrival until the run ends. At the
    # hundredth billed completion the first arrival is held by nothing
    # but this test.
    first = []
    draw, rebate = simulation.generate_workload, simulation.apply_slo_rebate

    def drawing(*args):
        stream = draw(*args)
        first.append(stream[0])
        return stream

    def billing(*args):
        if len(first) == 100:
            held = [r for r in gc.get_referrers(first[0]) if isinstance(r, (list, tuple))]
            assert held == [first]
        first.append(None)
        return rebate(*args)

    monkeypatch.setattr(simulation, "generate_workload", drawing)
    monkeypatch.setattr(simulation, "apply_slo_rebate", billing)
    scenario = load_scenario(str(SCENARIO_DIR / "latency_mix.json"))
    simulate_scenario(scenario, policy=policy)
    assert len(first) > 100


def test_a_given_stream_is_only_read():
    scenario = load_scenario(str(SCENARIO_DIR / "dealer_hours.json"))
    stream = generate_workload(scenario.consumers, scenario.seed, scenario.horizon_ms)
    kept = list(stream)
    for policy in POLICIES:
        result = simulate_scenario(scenario, policy=policy, arrivals=stream)
        assert len(result.records) == len(kept)
        assert len(stream) == len(kept)
        assert all(a is b for a, b in zip(stream, kept))

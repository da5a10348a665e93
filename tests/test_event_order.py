"""The simulator's one event queue against the heap-only event loop.

The simulator keeps only the next arrival on the heap, each arrival
pushing the one after it, and each dealer's next opening or close; the
reference pushes every arrival onto the heap first. Both must run
events in the same order, ties included, so the arbitration log, every
invocation record and the report come out equal. Under a pinned policy
the program runs no events: its per-node queues must come out equal to
the reference all the same. The calendar is checked on its own against
every opening and close up to the horizon, and each node state's open
interval against is_dealer_open at every arrival, on the event loop
under every policy.
"""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tierbroker import simulation
from tierbroker.arbitrator import SchedulerWeights, Thresholds, admissible_nodes
from tierbroker.model import (
    DAY_MS,
    EnergyModel,
    Outcome,
    SecurityClass,
    Tier,
    Topology,
    is_dealer_open,
)
from tierbroker.report import report_to_dict
from tierbroker.simulation import POLICIES, Simulation
from tierbroker.workload import (
    Arrival,
    ConsumerSpec,
    Scenario,
    load_scenario,
    scenario_from_dict,
)

from conftest import SCENARIO_DIR, make_node, make_service, program_run
from oracles import EventSimulation, HeapOnlySimulation


def run_with(cls, scenario, policy, arrivals=None):
    return cls(scenario, policy=policy, arrivals=arrivals).run()


def assert_same_order(scenario, policy="sami", arrivals=None):
    """The program and the heap-only loop run the stream drawn from the
    scenario, or `arrivals` when given."""
    _, merged = program_run(scenario, policy, arrivals=arrivals)
    reference = run_with(HeapOnlySimulation, scenario, policy, arrivals)
    assert merged.arbitration_log == reference.arbitration_log
    assert merged.records == reference.records
    assert report_to_dict(merged.report) == report_to_dict(reference.report)
    return merged


def use_arrivals(monkeypatch, arrivals):
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )


# ----------------------------------------------------------------------
# random scenarios on a coarse time grid

# Every duration below is a multiple of 125 ms and arrivals fall on a
# 250 ms grid, so arrivals often share their millisecond with each
# other, with ticks, with dealer hours and with transfer, execution and
# migration ends.
GRID_MS = 250.0


@st.composite
def open_hours(draw):
    """Whole minutes within the longest horizon, open < close."""
    open_minute = draw(st.integers(0, 2))
    return open_minute, draw(st.integers(open_minute + 1, 3))


@st.composite
def grid_nodes(draw, hours=open_hours()):
    nodes = [
        make_node(
            f"D{i}",
            Tier.DEALER,
            cpu_speed=draw(st.sampled_from([2000.0, 4000.0])),
            rtt_ms=draw(st.sampled_from([0.0, 125.0])),
            bandwidth_mbps=draw(st.sampled_from([32.0, 64.0])),
            cpu_slots=draw(st.integers(1, 2)),
            open_hours=draw(hours),
        )
        for i in range(draw(st.integers(0, 2)))
    ]
    m1 = make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=250.0, bandwidth_mbps=32.0,
                   cpu_slots=draw(st.integers(1, 2)))
    c1 = make_node("C1", Tier.CLOUD, cpu_speed=8000.0, rtt_ms=500.0, bandwidth_mbps=64.0,
                   cpu_slots=8, mem_capacity=65536.0, storage_capacity=1048576.0,
                   internet_path=True)
    # M1 admits every service drawn, and C1 every one but a critical one.
    # Without them a dealer open from midnight can hold a service that no
    # node admits after its close, and a baseline without its tier places
    # nothing.
    return nodes + draw(st.sampled_from([[m1, c1], [m1, c1], [m1], [c1], []]))


def sami_places(case):
    """Whether the case's policy can register every service: sami refuses
    a service no node admits at 0 ms, a baseline pins it or leaves it
    unplaced."""
    scenario, _, policy = case
    topology = Topology(scenario.nodes)
    return policy != "sami" or all(
        admissible_nodes(desc, topology, 0.0) for desc in scenario.services
    )


@st.composite
def grid_cases(draw):
    horizon = draw(st.integers(4, 720)) * GRID_MS
    times = st.integers(0, int(horizon / GRID_MS) - 1).map(lambda k: k * GRID_MS)
    case = grid_scenario(draw, horizon, draw(grid_nodes()), times)
    assume(sami_places(case))
    return case


def grid_scenario(draw, horizon, nodes, times):
    """(scenario, arrivals, policy): services, consumers and thresholds
    drawn for the nodes, and arrivals at the times drawn from times."""
    descs = [
        make_service(
            service_id=f"svc-{i}",
            name=f"probe-{i}",
            cpu_demand=draw(st.sampled_from([500.0, 1000.0, 2000.0])),
            payload_in=0.5,
            payload_out=0.5,
            latency_sensitive=draw(st.booleans()),
            data_intensive=draw(st.booleans()),
            security_class=draw(st.sampled_from(list(SecurityClass))),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    consumers = [
        ConsumerSpec(id=cid, rates={d.id: 1.0 for d in descs})
        for cid in ("u1", "u2")
    ]
    arrivals = draw(st.lists(
        st.builds(
            Arrival,
            t_ms=times,
            consumer_id=st.sampled_from(["u1", "u2"]),
            service_id=st.sampled_from([d.id for d in descs]),
        ),
        max_size=80,
    ))
    arrivals.sort(key=lambda a: (a.t_ms, a.consumer_id, a.service_id))
    window = draw(st.integers(2, 6))
    scenario = Scenario(
        horizon_ms=horizon,
        seed=0,
        nodes=nodes,
        services=descs,
        consumers=consumers,
        weights=SchedulerWeights(),
        thresholds=Thresholds(
            delay_pressure_ms_per_s=draw(st.sampled_from([0.01, 100.0])),
            min_gain_ms=0.0,
            compute_factor=1.0,
            compute_run=draw(st.integers(1, 3)),
            window=window,
            min_samples=draw(st.integers(2, window)),
        ),
        energy=EnergyModel(),
    )
    return scenario, arrivals, draw(st.sampled_from(POLICIES))


@st.composite
def lone_dealer_cases(draw):
    """A single-slot dealer alone, open from midnight for a minute or two,
    under the policies that place on it. Arrivals fall on the grid, most
    of them in the seconds before its close: the close rejects what it
    queued, and after it sami drops what arrives."""
    close_minute = draw(st.integers(1, 2))
    nodes = [make_node("D0", Tier.DEALER, cpu_speed=2000.0, rtt_ms=125.0,
                       bandwidth_mbps=32.0, cpu_slots=1, open_hours=(0, close_minute))]
    close, horizon = close_minute * 60000.0, (close_minute + 1) * 60000.0
    times = st.one_of(on_grid(close - 2000.0, close - GRID_MS), on_grid(0.0, horizon - GRID_MS))
    scenario, arrivals, _ = grid_scenario(draw, horizon, nodes, times)
    policy = draw(st.sampled_from(["sami", "dealer-only"]))
    # sami refuses to register a critical service no node admits.
    services = [
        dataclasses.replace(desc, security_class=SecurityClass.SENSITIVE)
        if desc.security_class is SecurityClass.CRITICAL else desc
        for desc in scenario.services
    ]
    return dataclasses.replace(scenario, services=services), arrivals, policy


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_merged_arrivals_match_heap_only_reference(case):
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_order(scenario, policy)


@settings(max_examples=100, deadline=None)
@given(lone_dealer_cases())
def test_a_lone_dealer_run_matches_heap_only_reference(case):
    # After the dealer's close no node admits its services: sami drops
    # what arrives, and the reference must drop the same requests.
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_order(scenario, policy)


def refuse_to_draw(consumers, seed, horizon_ms):
    raise AssertionError("a run given its arrivals drew them")


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_a_given_stream_runs_as_the_drawn_one(case):
    # compare's dealer-only, mno-only and cloud-only runs read the stream
    # its sami run drew. Given that stream, a run must match the run that
    # draws it and leave the stream as it was.
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        _, drawn = program_run(scenario, policy)
    stream = list(arrivals)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "generate_workload", refuse_to_draw)
        given_stream = assert_same_order(scenario, policy, arrivals=stream)
    assert stream == arrivals
    assert given_stream.records == drawn.records
    assert given_stream.arbitration_log == drawn.arbitration_log
    assert report_to_dict(given_stream.report) == report_to_dict(drawn.report)
    assert drawn.arrivals() == [a for a in arrivals if a.t_ms <= scenario.horizon_ms]


# ----------------------------------------------------------------------
# dealer hours over several days


@st.composite
def day_hours(draw):
    """Whole minutes anywhere in the day, open < close; opening at
    midnight and closing at midnight are drawn often."""
    open_minute = draw(st.one_of(st.just(0), st.integers(0, 1439)))
    return open_minute, draw(st.one_of(st.just(1440), st.integers(open_minute + 1, 1440)))


def near_calendar(nodes, lo, hi):
    """Times in [lo, hi] on a dealer's opening or close, day * DAY_MS +
    minute * 60000.0, or a grid step either side of one."""
    minutes = {minute for node in nodes if node.open_hours for minute in node.open_hours}
    times = {
        day * DAY_MS + minute * 60000.0 + step
        for day in range(4)
        for minute in minutes
        for step in (-GRID_MS, 0.0, GRID_MS)
    }
    return st.sampled_from(sorted(t for t in times if lo <= t <= hi) or [lo])


def on_grid(lo, hi):
    return st.integers(int(lo / GRID_MS), int(hi / GRID_MS)).map(lambda k: k * GRID_MS)


@st.composite
def multi_day_cases(draw):
    # The horizon spans two to three days. It, and many arrivals, fall on
    # an opening or a close or a grid step either side of one.
    nodes = draw(grid_nodes(day_hours()))
    lo, hi = 2 * DAY_MS, 3 * DAY_MS
    horizon = draw(st.one_of(near_calendar(nodes, lo, hi), on_grid(lo, hi)))
    last = math.ceil(horizon / GRID_MS) * GRID_MS - GRID_MS  # the last grid time before it
    times = st.one_of(near_calendar(nodes, 0.0, last), on_grid(0.0, last))
    case = grid_scenario(draw, horizon, nodes, times)
    assume(sami_places(case))
    return case


class NoteEvents(EventSimulation):
    """Notes the events the loop runs, in order: arrivals, dealer openings
    and closes, ticks and execution ends."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events = []  # (t_ms, kind, dealer id or None)

    def _on_arrival(self, t_ms, arrival):
        self.events.append((t_ms, "arrival", None))
        super()._on_arrival(t_ms, arrival)

    def _on_dealer_open(self, t_ms, node_state):
        self.events.append((t_ms, "open", node_state.node.id))
        super()._on_dealer_open(t_ms, node_state)

    def _on_dealer_close(self, t_ms, node_state):
        self.events.append((t_ms, "close", node_state.node.id))
        super()._on_dealer_close(t_ms, node_state)

    def _on_analysis_tick(self, t_ms, _payload=None):
        self.events.append((t_ms, "tick", None))
        super()._on_analysis_tick(t_ms, _payload)

    def _on_exec_done(self, t_ms, request):
        self.events.append((t_ms, "exec done", None))
        super()._on_exec_done(t_ms, request)


def every_opening_and_close(scenario):
    """(t, kind, dealer id) of each opening and close in (0, horizon], in
    time order and at equal times in node order."""
    events = []
    for node in scenario.nodes:
        if node.tier is not Tier.DEALER or node.open_hours == (0, 1440):
            continue
        for day in range(int(scenario.horizon_ms // DAY_MS) + 1):
            for minute, kind in zip(node.open_hours, ("open", "close")):
                t_ms = day * DAY_MS + minute * 60000.0
                if 0.0 < t_ms <= scenario.horizon_ms:
                    events.append((t_ms, node.id, kind))
    return [(t_ms, kind, node_id) for t_ms, node_id, kind in sorted(events)]


@settings(max_examples=100, deadline=None)
@given(multi_day_cases())
def test_days_of_dealer_hours_match_heap_only_reference(case):
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_order(scenario, policy)
        sim = NoteEvents(scenario, policy=policy)
        sim.run()
    calendar = [event for event in sim.events if event[1] in ("open", "close")]
    assert calendar == every_opening_and_close(scenario)
    # At equal times arrivals run first, then the calendar, then the rest,
    # then the tick.
    rank = {"arrival": 0, "open": 1, "close": 1, "tick": 3}
    ranks = [(t_ms, rank.get(kind, 2)) for t_ms, kind, _ in sim.events]
    assert ranks == sorted(ranks)


class CheckOpenness(EventSimulation):
    """Checks at every arrival that each node state's open interval admits
    exactly when is_dealer_open does, a node that is no dealer always."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = []  # (t_ms, dealer id, open) at each arrival

    def _on_arrival(self, t_ms, arrival):
        for node_state in self.node_states.values():
            node = node_state.node
            opened = node_state.open_from <= t_ms < node_state.open_until
            if node.tier is Tier.DEALER:
                assert opened is is_dealer_open(node, t_ms), (t_ms, node.id)
                self.checked.append((t_ms, node.id, opened))
            else:
                assert opened, (t_ms, node.id)
        super()._on_arrival(t_ms, arrival)


@settings(max_examples=100, deadline=None)
@given(multi_day_cases())
def test_open_interval_admits_as_dealer_hours_do(case):
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        CheckOpenness(scenario, policy=policy).run()


def hours_scenario(open_minute, close_minute, horizon_ms):
    """svc-x, latency-sensitive, on D1 with the given hours, or on M1 or C1."""
    scenario = tie_scenario(close_minute=1, horizon_ms=horizon_ms)
    d1 = dataclasses.replace(scenario.nodes[0], open_hours=(open_minute, close_minute))
    scenario.nodes = [d1] + scenario.nodes[2:]
    return scenario


@pytest.mark.parametrize("policy", ["sami", "dealer-only"])
@pytest.mark.parametrize("hours", [(540, 1020), (0, 600), (600, 1440), (0, 1440)])
def test_arrivals_at_opening_and_close(monkeypatch, hours, policy):
    # An arrival exactly at an opening finds the dealer open and one
    # exactly at a close finds it closed, as do those a millisecond either
    # side, on each of three days; hours from and to midnight included.
    horizon = 2.5 * DAY_MS
    edges = {day * DAY_MS + minute * 60000.0 for day in range(3) for minute in hours}
    near = {t + step for t in edges for step in (-1.0, 0.0, 1.0)}
    times = sorted(t for t in near if 0.0 <= t <= horizon)
    use_arrivals(monkeypatch, [Arrival(t, "u1", "svc-x") for t in times])
    scenario = hours_scenario(*hours, horizon)
    sim = CheckOpenness(scenario, policy=policy)
    sim.run()
    assert len(sim.checked) == len(times)
    for t_ms, _, opened in sim.checked:
        assert opened is (hours[0] * 60000.0 <= t_ms % DAY_MS < hours[1] * 60000.0)
    if policy == "dealer-only":
        # Pinned to D1: the queues refuse an arrival exactly when D1 is closed.
        _, result = program_run(scenario, policy)
        refused = [r.t_arrive for r in result.records if r.outcome is Outcome.REJECTED]
        assert refused == [t for t, _, opened in sim.checked if not opened]


def test_calendar_holds_one_event_per_dealer_whatever_the_horizon():
    # Ten thousand million seconds of dealer_hours: its one dealer's first
    # opening and the first tick wait on the heap, and nothing else.
    scenario = load_scenario(str(SCENARIO_DIR / "dealer_hours.json"))
    scenario = dataclasses.replace(scenario, horizon_ms=1e13)
    sim = Simulation(scenario)
    sim._push_calendar()
    assert sorted((t_ms, seq, handler.__name__) for t_ms, seq, handler, _ in sim._heap) == [
        (1000.0, math.inf, "_on_analysis_tick"),
        (540 * 60000.0, 1, "_on_dealer_open"),
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(POLICIES))
def test_generated_workload_matches_heap_only_reference(seed, policy):
    # The real arrival streams for four minutes, in which D1 closes and
    # D2 opens and closes.
    scenario = tie_scenario(close_minute=2, horizon_ms=240000.0)
    scenario.seed = seed
    assert_same_order(scenario, policy)


# ----------------------------------------------------------------------
# hand-written ties


def tie_scenario(close_minute, horizon_ms):
    """svc-x prefers the dealer D1, open from midnight to close_minute.

    D2 opens at close_minute, so svc-x moves there when D1 closes. The
    data-intensive svc-y runs on C1 and answers in 200 + 80 + 250 = 530 ms.
    """
    node = {"cpu_slots": 2, "mem_capacity": 65536, "storage_capacity": 65536,
            "trust": {"level": "High"}}
    service = {"version": "1.0.0", "capability_tags": ["compute"], "cpu_demand": 2000,
               "mem_demand": 64, "storage_demand": 1.0, "payload_in": 0.5,
               "payload_out": 0.5}
    return scenario_from_dict({
        "horizon_ms": horizon_ms,
        "seed": 1,
        "nodes": [
            dict(node, id="D1", tier="Dealer", cpu_speed=4000, rtt_ms=5, bandwidth_mbps=100,
                 open_hours=[0, close_minute]),
            dict(node, id="D2", tier="Dealer", cpu_speed=4000, rtt_ms=5, bandwidth_mbps=100,
                 open_hours=[close_minute, 4]),
            dict(node, id="M1", tier="MNO", cpu_speed=8000, rtt_ms=50, bandwidth_mbps=100),
            dict(node, id="C1", tier="Cloud", cpu_speed=8000, rtt_ms=200, bandwidth_mbps=100,
                 internet_path=True),
        ],
        "services": [
            dict(service, id="svc-x", name="near", latency_sensitive=True),
            dict(service, id="svc-y", name="bulk", data_intensive=True),
        ],
        "consumers": [
            {"id": "u1", "rates": {"svc-x": 1.0, "svc-y": 1.0}},
            {"id": "u2", "rates": {"svc-x": 1.0, "svc-y": 1.0}},
        ],
        "thresholds": {"min_samples": 2, "window": 2},
    })


def test_arrival_on_an_exec_done_goes_first(monkeypatch):
    # svc-y's first request completes on C1 at 100 + 530 = 630 ms, the
    # instant the second arrives.
    use_arrivals(monkeypatch, [Arrival(100.0, "u1", "svc-y"), Arrival(630.0, "u1", "svc-y")])
    result = assert_same_order(tie_scenario(close_minute=1, horizon_ms=5000.0))
    first, second = result.records
    assert first.t_done == second.t_arrive == 630.0
    assert second.t_start == 630.0


def test_arrival_on_a_dealer_close_goes_first(monkeypatch):
    # D1 closes at 2 minutes, between two 45 s ticks; the arrival at that
    # instant finds it closed and moves svc-x before the close runs.
    monkeypatch.setattr(simulation, "ANALYSIS_INTERVAL_MS", 45000.0)
    close_ms = 2 * 60000.0
    use_arrivals(monkeypatch, [Arrival(30000.0, "u1", "svc-x"), Arrival(close_ms, "u1", "svc-x")])
    result = assert_same_order(tie_scenario(close_minute=2, horizon_ms=125000.0))
    assert [r.node_id for r in result.records] == ["D1", "D2"]
    assert (close_ms, "reschedule", "svc-x") in result.arbitration_log


class NoteHandlers(Simulation):
    """Notes each arrival and analysis tick the loop runs, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def _on_arrival(self, t_ms, arrival):
        self.calls.append((t_ms, "arrival"))
        super()._on_arrival(t_ms, arrival)

    def _on_analysis_tick(self, t_ms, _payload=None):
        self.calls.append((t_ms, "tick"))
        super()._on_analysis_tick(t_ms, _payload)


def test_arrival_on_an_analysis_tick_goes_first(monkeypatch):
    # D1 closes at 60 s. The arrival at 61 s moves svc-x before the 61 s
    # tick runs.
    use_arrivals(monkeypatch, [Arrival(30000.0, "u1", "svc-x"), Arrival(61000.0, "u1", "svc-x")])
    scenario = tie_scenario(close_minute=1, horizon_ms=62000.0)
    result = assert_same_order(scenario)
    at_61s = [entry for entry in result.arbitration_log if entry[0] == 61000.0]
    assert at_61s == [(61000.0, "reschedule", "svc-x")]
    sim = NoteHandlers(scenario)
    assert sim.run().arbitration_log == result.arbitration_log
    assert [kind for t, kind in sim.calls if t == 61000.0] == ["arrival", "tick"]


@pytest.mark.parametrize("policy", ["sami", "cloud-only"])
def test_arrivals_of_two_streams_in_one_millisecond_keep_list_order(monkeypatch, policy):
    # Three arrivals share the 1000 ms tick; the list orders them by
    # consumer, then service, and request ids follow that order.
    arrivals = [
        Arrival(1000.0, "u1", "svc-x"),
        Arrival(1000.0, "u1", "svc-y"),
        Arrival(1000.0, "u2", "svc-x"),
    ]
    use_arrivals(monkeypatch, arrivals)
    result = assert_same_order(tie_scenario(close_minute=1, horizon_ms=3000.0), policy)
    assert [(r.request_id, r.consumer_id, r.service_id) for r in result.records] == [
        (1, "u1", "svc-x"),
        (2, "u1", "svc-y"),
        (3, "u2", "svc-x"),
    ]

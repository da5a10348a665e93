"""The memoized, fast-forwarding analysis loop against the every-tick reference.

Both simulators run the same scenario on fresh topologies and
registries; the arbitration log, every invocation record and the
report must come out equal.
"""

import dataclasses
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from tierbroker import simulation
from tierbroker.arbitrator import (
    SchedulerWeights,
    Thresholds,
    admissible_nodes,
    analyze_computation,
    nearer_gain,
)
from tierbroker.errors import ConfigError
from tierbroker.model import (
    DAY_MS,
    EnergyModel,
    Outcome,
    SecurityClass,
    Tariff,
    Tier,
    Topology,
)
from tierbroker.report import report_to_dict
from tierbroker.simulation import POLICIES, Simulation
from tierbroker.workload import Arrival, ConsumerSpec, Scenario, load_scenario, scenario_from_dict

from conftest import SCENARIO_DIR, make_node, make_service, program_run
from oracles import EventSimulation, EveryTickSimulation, ThreeEventSimulation
from test_event_order import lone_dealer_cases, use_arrivals


def run_with(cls, scenario, seed=None, policy="sami"):
    return cls(scenario, policy=policy, seed=seed).run()


def assert_same_run(scenario, seed=None, policy="sami"):
    _, fast = program_run(scenario, policy, seed)
    reference = run_with(EveryTickSimulation, scenario, seed, policy)
    assert fast.arbitration_log == reference.arbitration_log
    assert fast.records == reference.records
    assert report_to_dict(fast.report) == report_to_dict(reference.report)
    return fast


# ----------------------------------------------------------------------
# random scenarios

MINUTE = st.one_of(st.integers(0, 60), st.integers(1380, 1440), st.integers(0, 1440))
# Whole minutes with open < close, as check_node requires; hours near
# midnight make quiet batches that run across it. A dealer open from
# midnight can take a service at placement that no other node admits.
OPEN_HOURS = st.one_of(
    st.just((0, 1440)),
    st.tuples(MINUTE, MINUTE).map(sorted).filter(lambda h: h[0] < h[1]).map(tuple),
    st.tuples(st.just(0), st.integers(1, 1439)),
)


@st.composite
def dealers(draw, index):
    return make_node(
        f"D{index}",
        Tier.DEALER,
        cpu_speed=draw(st.sampled_from([2000.0, 4000.0, 8000.0])),
        rtt_ms=draw(st.sampled_from([2.0, 5.0, 10.0])),
        bandwidth_mbps=draw(st.sampled_from([50.0, 100.0])),
        cpu_slots=draw(st.integers(1, 2)),
        open_hours=draw(OPEN_HOURS),
    )


@st.composite
def services(draw, index, cloud_leaver=False):
    """A service; a cloud leaver fits the slow cloud and is placed there,
    or on an open dealer, and wants to be nearer. 6000 MIPS is too much
    for M1 and the slow cloud: only the fast cloud or an 8000 MIPS dealer
    can have it."""
    return make_service(
        service_id=f"svc-{index}",
        name=f"probe-{index}",
        cpu_demand=draw(st.sampled_from(
            [200.0, 1000.0] if cloud_leaver else [200.0, 1000.0, 2500.0, 6000.0]
        )),
        payload_in=draw(st.sampled_from([0.1, 0.5, 2.0])),
        # 500 MB migrates for longer than a tick lasts.
        storage_demand=draw(st.sampled_from([1.0, 500.0])),
        latency_sensitive=cloud_leaver or draw(st.booleans()),
        data_intensive=cloud_leaver or draw(st.booleans()),
        security_class=(
            SecurityClass.PUBLIC if cloud_leaver else draw(st.sampled_from(list(SecurityClass)))
        ),
    )


@st.composite
def incremental_cases(draw):
    # Stretching the tick lets a horizon cross midnight in a few thousand
    # ticks. Every dealer open and close time falls on a 1 s or 60 s
    # tick; 45 s ticks miss most of them.
    interval = draw(st.sampled_from([1000.0, 45000.0, 60000.0]))
    ticks = draw(st.integers(1, 3000))
    # The last batch stops at the horizon: exactly on a tick, a rounding
    # step either side of one, or anywhere before the next.
    on_tick = ticks * interval
    horizon = draw(st.one_of(
        st.sampled_from([
            on_tick, on_tick + 1.0, on_tick + 999.5,
            math.nextafter(on_tick, 0.0), math.nextafter(on_tick, math.inf),
        ]),
        st.floats(on_tick, on_tick + interval, exclude_max=True),
    ))
    # A slow single-slot cloud, a service placed there that wants to be
    # nearer and a hair-trigger delay threshold make most runs move, and
    # leave requests queued on the cloud to complete after their service
    # has left it, overrunning its new node's time.
    slow_cloud = draw(st.booleans())
    nodes = [draw(dealers(i)) for i in range(draw(st.integers(0, 2)))]
    # Without M1 a critical service fits no node, and a service too large
    # for the slow cloud may fit only a dealer: after the dealers close,
    # sami drops its requests.
    if draw(st.sampled_from([True, True, False])):
        nodes.append(make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=50.0, bandwidth_mbps=50.0))
    nodes.append(
        make_node("C1", Tier.CLOUD, cpu_speed=1000.0 if slow_cloud else 8000.0, rtt_ms=200.0,
                  bandwidth_mbps=100.0, cpu_slots=1 if slow_cloud else 8,
                  mem_capacity=65536.0, storage_capacity=1048576.0, internet_path=True)
    )
    descs = [
        draw(services(i, cloud_leaver=slow_cloud and i == 0))
        for i in range(draw(st.integers(1, 3)))
    ]
    # sami refuses to register a service no node admits at 0 ms.
    topology = Topology(nodes)
    assume(all(admissible_nodes(desc, topology, 0.0) for desc in descs))
    # Rates scale with the horizon so every run draws a few hundred arrivals
    # at most; the cloud leaver draws at least 20, more than a window holds.
    rates = {
        d.id: draw(st.integers(20 if slow_cloud and i == 0 else 0, 200)) * 1000.0 / horizon
        for i, d in enumerate(descs)
    }
    window = draw(st.integers(2, 8))
    thresholds = Thresholds(
        delay_pressure_ms_per_s=(
            0.01 if slow_cloud else draw(st.sampled_from([0.01, 1.0, 200.0, 5000.0]))
        ),
        min_gain_ms=draw(st.sampled_from([0.0, 50.0])),
        # Below 1 the compute check fires on a service that never moved.
        compute_factor=draw(st.sampled_from([0.5, 1.0, 1.5])),
        compute_run=draw(st.integers(1, 3)),
        window=window,
        min_samples=draw(st.integers(2, window)),
    )
    scenario = Scenario(
        horizon_ms=horizon,
        seed=draw(st.integers(0, 2**32)),
        nodes=nodes,
        services=descs,
        consumers=[ConsumerSpec(id="u1", rates=rates)],
        weights=SchedulerWeights(),
        thresholds=thresholds,
        energy=EnergyModel(),
    )
    return interval, scenario


@settings(max_examples=100, deadline=None)
@given(incremental_cases())
def test_memoized_loop_matches_every_tick_reference(case):
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        assert_same_run(scenario)


@settings(max_examples=100, deadline=None)
@given(lone_dealer_cases())
def test_a_lone_dealer_run_matches_every_tick_reference(case):
    # After the dealer's close no node admits its services: sami drops
    # what arrives, and the reference must drop the same requests.
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        result = assert_same_run(scenario, policy=policy)
    event("dropped" if result.report.run.dropped else "none dropped")


class CheckOpenings(EventSimulation):
    """Asserts at every dealer opening that _try_start would start nothing."""

    openings = 0

    def _on_dealer_open(self, t_ms, node_state):
        # Starting nothing, _try_start changes nothing, so asking is harmless.
        before = (node_state.running, len(node_state.queue))
        self._try_start(t_ms, node_state)
        assert (node_state.running, len(node_state.queue)) == before
        self.openings += 1
        super()._on_dealer_open(t_ms, node_state)


@settings(max_examples=200, deadline=None)
@given(incremental_cases(), st.sampled_from(["sami", "dealer-only"]))
def test_a_dealer_opening_has_nothing_to_start(case, policy):
    # Why the opening starts nothing itself: a closed dealer's queue is
    # empty, and a request queued at the opening instant waits on a busy
    # slot or a migration, whose end starts it.
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        sim = CheckOpenings(scenario, policy=policy)
        sim.run()
    event("dealer opened" if sim.openings else "no dealer opened")


class CheckNodeStates(EventSimulation):
    """Checks after every event, and after every _try_start, that each
    service's pair is its placement's, that each pair holds its node's
    state and that every node is work-conserving; counts the moves by
    what made them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.moves = Counter()  # "advice" or "re-resolve" -> moves

    def _check(self, t_ms):
        for state in self.services.values():
            if state.record is None:
                assert state.pair is None
            else:
                node_id = state.record.placement.node_id
                assert state.pair is state.pairs[node_id]
                assert state.pair.node_state.node.id == node_id
            for node_id, pair in state.pairs.items():
                assert pair.node_state is self.node_states[node_id]
        # A migration's end asks its node again, with the copy arrived.
        awaited = {
            id(payload) for _, _, handler, payload in self._heap if handler == self._try_start
        }
        for node_state in self.node_states.values():
            slots = node_state.node.cpu_slots
            assert node_state.running <= slots
            if node_state.queue and node_state.running < slots:
                # The head waits for its copy, still migrating to this node;
                # a migration ending past the horizon is never pushed.
                head = self.services[node_state.queue[0].service_id]
                assert head.pair.node_state is node_state and t_ms <= head.migration_until
                assert head.migration_until > self.horizon or id(node_state) in awaited

    def _re_resolve(self, t_ms, state, request):
        before = len(self.arbitration_log)
        node_state = super()._re_resolve(t_ms, state, request)
        self.moves["re-resolve"] += len(self.arbitration_log) - before
        return node_state

    def _analyze(self, t_ms, state):
        moved = super()._analyze(t_ms, state)
        self.moves["advice"] += moved
        return moved

    def _try_start(self, t_ms, node_state):
        super()._try_start(t_ms, node_state)
        self._check(t_ms)

    def _on_arrival(self, t_ms, arrival):
        super()._on_arrival(t_ms, arrival)
        self._check(t_ms)

    def _on_exec_done(self, t_ms, request):
        super()._on_exec_done(t_ms, request)
        self._check(t_ms)

    def _on_dealer_open(self, t_ms, node_state):
        super()._on_dealer_open(t_ms, node_state)
        self._check(t_ms)

    def _on_dealer_close(self, t_ms, node_state):
        super()._on_dealer_close(t_ms, node_state)
        self._check(t_ms)

    def _on_analysis_tick(self, t_ms, _payload=None):
        super()._on_analysis_tick(t_ms, _payload)
        self._check(t_ms)


def checked_run(scenario, policy="sami"):
    sim = CheckNodeStates(scenario, policy=policy)
    sim.run()
    return sim


@settings(max_examples=200, deadline=None)
@given(incremental_cases(), st.sampled_from(POLICIES))
def test_node_states_follow_placements_and_nodes_conserve_work(case, policy):
    # _on_arrival asks _try_start only while a slot is free and
    # _on_exec_done only while the queue holds a request; a wrongly
    # skipped call would leave a node idle with a startable request.
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        sim = checked_run(scenario, policy)
    for source in ("advice", "re-resolve"):
        event(f"moved on {source}" if sim.moves[source] else f"no move on {source}")


class CheckVerdicts(Simulation):
    """Checks at every tick that each service it skips has the verdict its
    last analysis kept: nearer is nearer_gain's answer now, the tier and
    gain it names or False for none, and with no node nearer, advising
    is the compute check's verdict now."""

    advising_skips = 0  # skips of a service whose compute check advises

    def _on_analysis_tick(self, t_ms, _payload=None):
        thresholds = self.thresholds
        for state in self.services.values():
            service_id = state.desc.id
            if service_id in self._changed or not state.window.times:
                continue
            node = state.pair.node_state.node
            gain = nearer_gain(state.desc, node, self.topology, thresholds, t_ms)
            assert state.nearer == (gain or False)
            if state.nearer:
                continue
            advice = None
            if state.pair.cost.exec_ms > 0:
                advice = analyze_computation(
                    state.window.execs,
                    state.pair.cost.exec_ms,
                    k=thresholds.compute_factor,
                    m=thresholds.compute_run,
                )
            assert state.advising is (advice is not None)
            self.advising_skips += state.advising
        super()._on_analysis_tick(t_ms, _payload)


@settings(max_examples=100, deadline=None)
@given(incremental_cases())
def test_a_skipped_service_keeps_its_verdict(case):
    # The gate skips a service with no node nearer while its last times
    # cannot have changed the compute check's verdict; a move or a
    # dealer event forgets both answers and marks it.
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        sim = CheckVerdicts(scenario)
        sim.run()
    event("skipped while advising" if sim.advising_skips else "never skipped while advising")


def test_node_states_follow_both_kinds_of_move(monkeypatch):
    # The property's cases move services both ways, but not in every run;
    # this one moves svc-0 on an arrival and then on a tick's advice.
    scenario, arrivals = closed_dealer_then_pressure()
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )
    sim = checked_run(scenario)
    assert sim.moves == {"re-resolve": 1, "advice": 1}
    assert sim.services["svc-0"].pair.node_state.node.id == "M1"


# ----------------------------------------------------------------------
# hand-written cases


def moves_in(result):
    return [t for t, kind, _ in result.arbitration_log if kind == "reschedule"]


def test_dealer_hours_across_midnight_matches_reference():
    # The shipped sparse-window scenario at the real one-second tick,
    # run ten minutes past midnight so the dealer's day wraps.
    scenario = load_scenario(str(SCENARIO_DIR / "dealer_hours.json"))
    scenario = dataclasses.replace(scenario, horizon_ms=scenario.horizon_ms + 600000.0)
    fast = assert_same_run(scenario, seed=7)
    assert fast.report.run.reschedules > 0


@settings(max_examples=300, deadline=None)
@given(
    interval=st.sampled_from([1000.0, 45000.0, 60000.0]),
    first_tick=st.integers(1, 2**32),
    span=st.integers(0, 2**20),
    nudge=st.sampled_from([None, 0.0, math.inf]),
    bound=st.sampled_from(["heap", "arrival", "horizon"]),
)
def test_batch_count_is_exact_far_from_zero(interval, first_tick, span, nudge, bound):
    # The batch is counted by dividing, not by stepping, so check the count
    # against exact rational arithmetic where tick times are large: the
    # batch ends before the next event or after the last tick within the
    # horizon, exactly on a tick or a rounding step either side of one.
    t_ms = first_tick * interval
    edge = t_ms + span * interval
    if nudge is not None:
        edge = math.nextafter(edge, nudge)
    horizon = edge if bound == "horizon" else edge + 10 * interval
    scenario = Scenario(
        horizon_ms=horizon,
        seed=0,
        nodes=[make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=50.0, bandwidth_mbps=50.0)],
        services=[make_service("svc-0")],
        consumers=[],
        weights=SchedulerWeights(),
        thresholds=Thresholds(),
        energy=EnergyModel(),
    )
    sim = Simulation(scenario)
    if bound == "heap":
        sim._heap = [(edge, 1, sim._on_exec_done, None)]
    elif bound == "arrival":  # the next arrival waits on the heap at sequence 0
        sim._heap = [(edge, 0, sim._on_arrival, Arrival(edge, "u1", "svc-0"))]
    first, step = Fraction(t_ms), Fraction(interval)
    within_horizon = math.floor((Fraction(horizon) - first) / step) + 1
    before_event = math.ceil((Fraction(edge) - first) / step) if bound != "horizon" else math.inf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        assert sim._fast_forward(t_ms) == max(0, min(before_event, within_horizon))


class NoteBatches(EventSimulation):
    """Notes each analysis tick the loop runs and each batch of quiet ticks
    it skips: the batch's first tick, its tick count and whether no event
    is left at all."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticks = []
        self.batches = []

    def _on_analysis_tick(self, t_ms, _payload=None):
        self.ticks.append(t_ms)
        super()._on_analysis_tick(t_ms, _payload)

    def _fast_forward(self, t_ms):
        dry = not self._heap  # the next arrival, if any, is on it
        n = super()._fast_forward(t_ms)
        self.batches.append((t_ms, n, dry))
        return n

    def tick_times(self):
        """The times of the ticks run and skipped, in order."""
        interval = simulation.ANALYSIS_INTERVAL_MS
        skipped = [t_first + i * interval for t_first, n, _ in self.batches for i in range(n)]
        return sorted(self.ticks + skipped)


def note_batches(scenario, policy="sami"):
    sim = NoteBatches(scenario, policy=policy)
    return sim, sim.run()


@settings(max_examples=100, deadline=None)
@given(incremental_cases(), st.sampled_from(simulation.POLICIES))
def test_ticks_run_and_skipped_are_every_tick_to_the_horizon(case, policy):
    # arbitration_events counts an analysis per placed service at every
    # whole multiple of the interval up to the horizon; each of those
    # ticks must be run or skipped exactly once, and no other.
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        sim, result = note_batches(scenario, policy)
        ticks = sim.tick_times()
    if policy == "sami":
        assert ticks == [k * interval for k in range(1, int(scenario.horizon_ms // interval) + 1)]
    else:
        assert ticks == []
    placed = sum(1 for state in sim.services.values() if state.record is not None)
    run = result.report.run
    assert run.arbitration_events == len(result.arbitration_log) + len(ticks) * placed


@pytest.mark.parametrize("horizon", [30000.0, 30000.5, math.nextafter(31000.0, 0.0)])
def test_ticks_after_the_last_event_run_to_the_horizon(monkeypatch, horizon):
    # Once the two requests have completed neither the heap nor the
    # arrivals hold an event: the next event is at math.inf and the
    # horizon alone ends the batch.
    nodes = [
        make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=50.0, bandwidth_mbps=50.0),
        make_node("C1", Tier.CLOUD, cpu_speed=8000.0, rtt_ms=200.0, bandwidth_mbps=100.0,
                  internet_path=True),
    ]
    arrivals = [Arrival(100.0, "u1", "svc-0"), Arrival(200.0, "u1", "svc-0")]
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )
    scenario = Scenario(
        horizon_ms=horizon,
        seed=3,
        nodes=nodes,
        services=[make_service("svc-0", cpu_demand=1000.0)],
        consumers=[ConsumerSpec("u1", {"svc-0": 1.0})],
        weights=SchedulerWeights(),
        thresholds=Thresholds(),
        energy=EnergyModel(),
    )
    sim, fast = note_batches(scenario)
    reference = run_with(EveryTickSimulation, scenario)
    assert fast.arbitration_log == reference.arbitration_log
    assert fast.records == reference.records
    assert sim.batches[-1][2]
    assert sim.tick_times() == [1000.0 * i for i in range(1, int(horizon // 1000.0) + 1)]


def test_quiet_batch_runs_across_midnight(monkeypatch):
    # D0 keeps hours 09:00-17:00, so the calendar has no event at
    # midnight and the dealers open read the same on both sides of it.
    # svc-0 is on M1 from the start, and five requests at 18:20 on day
    # zero leave its window under pressure with D0 closed. Nothing
    # happens from their completion until D0 opens on day one: one
    # batch of quiet ticks covers midnight, and the tick at 09:00 moves
    # svc-0 to D0. Minute ticks keep the two days short.
    monkeypatch.setattr(simulation, "ANALYSIS_INTERVAL_MS", 60000.0)
    nodes = [
        make_node("D0", Tier.DEALER, cpu_speed=4000.0, rtt_ms=5.0, bandwidth_mbps=100.0,
                  open_hours=(540, 1020)),
        make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=50.0, bandwidth_mbps=50.0),
    ]
    burst_at = 1100 * 60000.0
    arrivals = [Arrival(burst_at + 100.0 * i, "u1", "svc-0") for i in range(5)]
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )
    scenario = Scenario(
        horizon_ms=2 * DAY_MS,
        seed=3,
        nodes=nodes,
        services=[make_service("svc-0", cpu_demand=1000.0, latency_sensitive=True)],
        consumers=[ConsumerSpec("u1", {"svc-0": 1.0})],
        weights=SchedulerWeights(),
        thresholds=Thresholds(delay_pressure_ms_per_s=0.01, window=4, min_samples=2),
        energy=EnergyModel(),
    )
    sim, fast = note_batches(scenario)
    reference = run_with(EveryTickSimulation, scenario)
    assert fast.arbitration_log == reference.arbitration_log
    assert fast.records == reference.records
    assert report_to_dict(fast.report) == report_to_dict(reference.report)
    assert [r.node_id for r in fast.records] == ["M1"] * 5
    opens = DAY_MS + 540 * 60000.0
    assert moves_in(fast) == [opens]
    across = [(t, n) for t, n, _ in sim.batches if t < DAY_MS <= t + (n - 1) * 60000.0]
    assert len(across) == 1
    # The 18:21 tick analyses the burst's completions; the batch starts
    # at the next one and stops short of D0's DealerOpen.
    assert across == [(burst_at + 2 * 60000.0, (opens - burst_at) / 60000.0 - 2)]


def tie_scenario(cloud):
    """One service that starts on the cloud; two completions move it to M1.

    It is latency-sensitive, so the delay-pressure detector watches it,
    and data-intensive, so placement puts it on the cloud first.
    """
    node = {"cpu_slots": 2, "mem_capacity": 65536, "storage_capacity": 65536,
            "trust": {"level": "High"}}
    return scenario_from_dict({
        "horizon_ms": 8000.0,
        "seed": 1,
        "nodes": [
            dict(node, id="M1", tier="MNO", cpu_speed=8000, rtt_ms=50, bandwidth_mbps=100),
            dict(node, id="C1", tier="Cloud", rtt_ms=200, internet_path=True, **cloud),
        ],
        "services": [{
            "id": "svc-x", "name": "probe", "version": "1.0.0",
            "capability_tags": ["compute"], "cpu_demand": 2000, "mem_demand": 64,
            "storage_demand": 1.0, "payload_in": 0.5, "payload_out": 0.5,
            "latency_sensitive": True, "data_intensive": True,
        }],
        "consumers": [{"id": "u1", "rates": {"svc-x": 1.0}}],
        "thresholds": {"delay_pressure_ms_per_s": 100, "min_samples": 2, "window": 2},
    })


@pytest.mark.parametrize(
    "cloud, arrivals, done, moved_at",
    [
        # Cloud response 200 + 80 + 250 = 530 ms. The second ExecDone, at
        # 1000, is pushed at its start, 470, after the 1000 ms tick was
        # pushed. The tick still runs last at its time and sees both
        # samples, so it moves svc-x at 1000 ms.
        ({"cpu_speed": 8000, "bandwidth_mbps": 100}, [100.0, 470.0], [630.0, 1000.0], 1000.0),
        # Cloud response 200 + 800 + 1000 = 2000 ms. Each ExecDone is
        # pushed at its start, before the tick at its time is pushed: the
        # quiet 3000 ms tick sees one sample and the 4000 ms tick sees two.
        ({"cpu_speed": 2000, "bandwidth_mbps": 10}, [1000.0, 2000.0], [3000.0, 4000.0], 4000.0),
        # Cloud response 200 + 800 + 500 = 1500 ms. The ticks at 2000 and
        # 3000 are pushed at 1000 and 2000, while the request completing
        # at their time is in flight; a TransferDone would push its
        # ExecDone after them, at 1500 and 2500. Either way each tick runs
        # after the ExecDone at its time: the 2000 ms tick sees one sample
        # and the 3000 ms tick sees two and moves svc-x.
        ({"cpu_speed": 4000, "bandwidth_mbps": 10}, [500.0, 1500.0], [2000.0, 3000.0], 3000.0),
    ],
    ids=["tick-pushed-first", "exec-done-pushed-first", "tick-pushed-mid-flight"],
)
def test_exec_done_on_a_tick_runs_before_the_tick(monkeypatch, cloud, arrivals, done, moved_at):
    scenario = tie_scenario(cloud)
    monkeypatch.setattr(
        simulation,
        "generate_workload",
        lambda consumers, seed, horizon: [Arrival(t, "u1", "svc-x") for t in arrivals],
    )
    result = assert_same_run(scenario)
    reference = ThreeEventSimulation(scenario).run()
    assert result.records == reference.records
    assert result.arbitration_log == reference.arbitration_log
    assert [r.t_done for r in result.records] == done
    assert [r.node_id for r in result.records] == ["C1", "C1"]
    moves = [(t, sid) for t, kind, sid in result.arbitration_log if kind == "reschedule"]
    assert moves == [(moved_at, "svc-x")]


def moved_while_completing(compute_factor, compute_run):
    """svc-x leaves the slow cloud for a faster operator node at 2000 ms.

    Requests queued on C1 keep completing there until about 6600 ms,
    each with a 1000 ms execution against 250 ms expected on M1, and
    the 50 MB copy keeps M1 from starting any until 6000 ms. So the last
    execution times first hold only C1's, then mix in M1's.
    """
    node = {"cpu_slots": 2, "mem_capacity": 65536, "storage_capacity": 65536,
            "trust": {"level": "High"}}
    return scenario_from_dict({
        "horizon_ms": 20000.0,
        "seed": 5,
        "nodes": [
            dict(node, id="M1", tier="MNO", cpu_speed=8000, rtt_ms=50, bandwidth_mbps=100),
            dict(node, id="C1", tier="Cloud", cpu_speed=2000, rtt_ms=200, bandwidth_mbps=100,
                 internet_path=True),
        ],
        "services": [{
            "id": "svc-x", "name": "probe", "version": "1.0.0",
            "capability_tags": ["compute"], "cpu_demand": 2000, "mem_demand": 64,
            "storage_demand": 50.0, "payload_in": 0.5, "payload_out": 0.5,
            "latency_sensitive": True, "data_intensive": True,
        }],
        "consumers": [{"id": "u1", "rates": {"svc-x": 5.0}}],
        "thresholds": {"delay_pressure_ms_per_s": 100, "min_samples": 2, "window": 4,
                       "compute_factor": compute_factor, "compute_run": compute_run},
    })


@pytest.mark.parametrize("compute_run", [1, 3])
@pytest.mark.parametrize("compute_factor", [0.5, 1.5])
def test_move_to_a_faster_node_with_old_requests_completing(
    monkeypatch, compute_factor, compute_run
):
    # On M1 no node is nearer, so only the compute check can advise. C1's
    # slow times fire it, and it finds nothing better than M1. At factor
    # 1.5 M1's 250 ms times silence it; at 0.5 they overrun too, so it
    # stays advising and is not asked again. Either way no advice is
    # drawn on an all-250 ms tail.
    shortfalls = []
    original = simulation.analyze_computation

    def recording(observed, expected, **kwargs):
        advice = original(observed, expected, **kwargs)
        if advice is not None:
            shortfalls.append(tuple(observed))
        return advice

    monkeypatch.setattr(simulation, "analyze_computation", recording)
    result = assert_same_run(moved_while_completing(compute_factor, compute_run))
    assert moves_in(result) == [2000.0]
    late = [r.t_done for r in result.records if r.node_id == "C1" and (r.t_done or 0.0) > 2000.0]
    assert len({t // 1000 for t in late}) >= 3  # C1 completions reach several ticks
    assert any(1000.0 in execs for execs in shortfalls)
    assert not any(set(execs) == {250.0} for execs in shortfalls)


def test_an_advising_service_is_not_analysed_while_it_overruns(monkeypatch):
    # At factor 0.5 every completion overruns, on either node. The 2000 ms
    # tick moves svc-x to M1 and the 3000 ms tick finds C1's times
    # advising, with nothing better than M1. From then on each completion
    # overruns again, so the verdict and the choice stay the same: none
    # of M1's completions marks svc-x, and no later tick analyses it.
    scenario = moved_while_completing(0.5, 3)
    sim = NoteCompletions(scenario)
    result = sim.run()
    reference = run_with(EveryTickSimulation, scenario)
    assert result.arbitration_log == reference.arbitration_log
    assert result.records == reference.records
    assert moves_in(result) == [2000.0]
    on_m1 = [(advising, marked) for _, node, advising, marked in sim.done if node == "M1"]
    assert on_m1 == [(True, False)] * 72
    assert sim.analysed == [2000.0, 3000.0]


def closed_dealer_then_pressure(storage_demand=1.0):
    """(scenario, arrivals) in which an arrival and then a tick move svc-0.

    D0 closes at 60,000 ms. The arrival at 60,500 ms re-places svc-0,
    data-intensive, on C1, and its window is still under pressure from
    the burst on D0, so the 61,000 ms tick moves it on to M1.
    """
    nodes = [
        make_node("D0", Tier.DEALER, cpu_speed=4000.0, rtt_ms=5.0, bandwidth_mbps=100.0,
                  open_hours=(0, 1)),
        make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=50.0, bandwidth_mbps=50.0),
        make_node("C1", Tier.CLOUD, cpu_speed=8000.0, rtt_ms=300.0, bandwidth_mbps=100.0,
                  internet_path=True),
    ]
    arrivals = [Arrival(1000.0 + 100.0 * i, "u1", "svc-0") for i in range(5)]
    arrivals.append(Arrival(60500.0, "u1", "svc-0"))
    scenario = Scenario(
        horizon_ms=70000.0,
        seed=3,
        nodes=nodes,
        services=[make_service("svc-0", cpu_demand=1000.0, storage_demand=storage_demand,
                               latency_sensitive=True, data_intensive=True)],
        consumers=[ConsumerSpec("u1", {"svc-0": 1.0})],
        weights=SchedulerWeights(),
        thresholds=Thresholds(delay_pressure_ms_per_s=0.01, window=4, min_samples=2),
        energy=EnergyModel(),
    )
    return scenario, arrivals


def test_moved_on_arrival_is_analysed_on_the_next_tick(monkeypatch):
    # Nothing completes between the two moves: only the first marks
    # svc-0 for the tick that makes the second.
    scenario, arrivals = closed_dealer_then_pressure()
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )
    result = assert_same_run(scenario)
    assert moves_in(result) == [60500.0, 61000.0]
    assert result.records[-1].node_id == "C1"
    assert result.records[-1].t_done > 61000.0


def test_a_move_starts_the_requests_held_on_the_node_left(monkeypatch):
    # A 500 MB copy takes 40 s to reach C1, so the 60,500 ms request waits
    # there for it. The 61,000 ms tick moves svc-0 on to M1, which lifts the
    # hold: the request starts at once, not at 100,500 ms, past the horizon,
    # when the copy left behind would have arrived.
    scenario, arrivals = closed_dealer_then_pressure(storage_demand=500.0)
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )
    result = assert_same_run(scenario)
    assert moves_in(result) == [60500.0, 61000.0]
    assert result.records[-1].node_id == "C1"
    assert result.records[-1].t_start == 61000.0
    checked_run(scenario)


def moved_twice_in_two_ticks():
    """(scenario, arrivals) in which two ticks in a row move svc-0, nothing between them.

    svc-0 sits on the cheap C1 until D0 opens at 60,000 ms. Its window is
    under pressure and only M1 gains min_gain_ms, so that tick moves it
    to the MNO tier, where the cheaper M2 wins. From M2 no tier is
    nearer, but C1's times overrun M2's at factor 0.5, and the full flow
    prefers D0, faster than M2: the 61,000 ms tick moves it again. The
    three requests complete before 60,000 ms and the 500 MB copy reaches
    M2 past the horizon, so no event falls between the two ticks.
    """
    nodes = [
        make_node("C1", Tier.CLOUD, cpu_speed=4000.0, rtt_ms=300.0, bandwidth_mbps=100.0,
                  internet_path=True, tariff=Tariff(base_fee=0.1, cpu_rate=0.0, data_rate=0.0)),
        make_node("D0", Tier.DEALER, cpu_speed=4000.0, rtt_ms=270.0, bandwidth_mbps=100.0,
                  open_hours=(1, 1440)),
        make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=200.0, bandwidth_mbps=100.0,
                  tariff=Tariff(base_fee=1.0, cpu_rate=0.0, data_rate=0.0)),
        make_node("M2", Tier.MNO, cpu_speed=4000.0, rtt_ms=290.0, bandwidth_mbps=100.0,
                  tariff=Tariff(base_fee=0.3, cpu_rate=0.0, data_rate=0.0)),
    ]
    arrivals = [Arrival(58000.0 + 500.0 * i, "u1", "svc-0") for i in range(3)]
    scenario = Scenario(
        horizon_ms=70000.0,
        seed=3,
        nodes=nodes,
        services=[make_service("svc-0", cpu_demand=1000.0, storage_demand=500.0,
                               latency_sensitive=True)],
        consumers=[ConsumerSpec("u1", {"svc-0": 1.0})],
        weights=SchedulerWeights(w_latency=0.1, w_cost=0.9),
        thresholds=Thresholds(delay_pressure_ms_per_s=0.01, compute_factor=0.5, window=4,
                              min_samples=2),
        energy=EnergyModel(),
    )
    return scenario, arrivals


def test_a_tick_that_moves_leaves_the_next_tick_to_run(monkeypatch):
    # The 60,000 ms tick leaves svc-0 marked, as its move forgot it, so
    # the next tick is not skipped although no event comes before it.
    scenario, arrivals = moved_twice_in_two_ticks()
    use_arrivals(monkeypatch, arrivals)
    result = assert_same_run(scenario)
    assert moves_in(result) == [60000.0, 61000.0]
    assert all(r.t_done < 60000.0 for r in result.records)
    assert result.report.services[0].tier == Tier.DEALER.value
    sim, _ = note_batches(scenario)
    assert [t for t in sim.ticks if t >= 60000.0] == [60000.0, 61000.0, 62000.0]


def count_detector_calls(monkeypatch):
    """The windows passed to simulation.analyze_performance, one per call as it happens."""
    calls = []
    original = simulation.analyze_performance

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(simulation, "analyze_performance", counting)
    return calls


def test_latency_mix_memo_skips_most_evaluations(monkeypatch):
    # All ten services sit where no node is nearer, so only the compute
    # check could advise. Without the memo every one of the 6,000
    # (service, tick) evaluations would run the detectors, and with a key
    # on the whole window about 39% would; the gate runs them on under a
    # tenth.
    calls = count_detector_calls(monkeypatch)
    scenario = load_scenario(str(SCENARIO_DIR / "latency_mix.json"))
    sim, _ = note_batches(scenario)
    evaluations = len(sim.tick_times()) * len(scenario.services)
    assert evaluations == int(scenario.horizon_ms // 1000) * len(scenario.services)
    assert len(calls) < evaluations // 10


def test_quiet_ticks_skip_the_detectors(monkeypatch):
    # dealer_hours counts one analysis per second for a day but sees a
    # completion only every minute or so: most ticks must not reach the
    # detectors, yet every tick is run or skipped.
    calls = count_detector_calls(monkeypatch)
    scenario = load_scenario(str(SCENARIO_DIR / "dealer_hours.json"))
    sim, _ = note_batches(scenario)
    ticks = sim.tick_times()
    assert len(ticks) == int(scenario.horizon_ms // 1000)
    assert len(calls) < len(ticks) // 10
    assert ticks[-1] == scenario.horizon_ms


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name, calls", [("latency_mix.json", 10), ("dealer_hours.json", 5)])
def test_detector_calls_on_shipped_scenarios(monkeypatch, name, calls, seed):
    # Every latency_mix service runs within the factor where no node is
    # nearer, so only its first completion is analysed: one call each.
    detector_calls = count_detector_calls(monkeypatch)
    simulation.simulate_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=seed)
    assert len(detector_calls) == calls


class NoteAnalysed(Simulation):
    """Notes the id of each service passed to _analyze."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.analysed = []

    def _analyze(self, t_ms, state):
        self.analysed.append(state.desc.id)
        return super()._analyze(t_ms, state)


def test_a_service_nothing_completed_for_is_never_analysed(monkeypatch):
    # No dealer opens or closes, and svc-1 gets no request: its window
    # stays empty, where neither detector can advise, so no tick may
    # analyse it. svc-0's completions mark it for the ticks after them.
    nodes = [
        make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=50.0, bandwidth_mbps=50.0),
        make_node("C1", Tier.CLOUD, cpu_speed=8000.0, rtt_ms=200.0, bandwidth_mbps=100.0,
                  internet_path=True),
    ]
    arrivals = [Arrival(100.0 * i, "u1", "svc-0") for i in range(1, 6)]
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )
    scenario = Scenario(
        horizon_ms=10000.0,
        seed=3,
        nodes=nodes,
        services=[make_service("svc-0", name="probe-0", cpu_demand=1000.0),
                  make_service("svc-1", name="probe-1")],
        consumers=[ConsumerSpec("u1", {"svc-0": 1.0})],
        weights=SchedulerWeights(),
        thresholds=Thresholds(),
        energy=EnergyModel(),
    )
    sim = NoteAnalysed(scenario)
    result = sim.run()
    reference = run_with(EveryTickSimulation, scenario)
    assert result.arbitration_log == reference.arbitration_log
    assert result.records == reference.records
    assert "svc-0" in sim.analysed
    assert "svc-1" not in sim.analysed


class NoteEmptyAnalyses(Simulation):
    """Notes (t_ms, service id) for each _analyze call on an empty window."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.empty = []

    def _analyze(self, t_ms, state):
        if not state.window.times:
            self.empty.append((t_ms, state.desc.id))
        return super()._analyze(t_ms, state)


def test_a_dealer_event_does_not_mark_a_service_nothing_completed_for():
    # D0 opens at midnight and closes at minute 1. svc-idle has no rate,
    # so its window stays empty; the close must not send it to _analyze.
    data = json.loads((SCENARIO_DIR / "minimal.json").read_text(encoding="utf-8"))
    data["horizon_ms"] = 120000
    dealer = dict(data["nodes"][0], id="D0", tier="Dealer", open_hours=[0, 1])
    data["nodes"].append(dealer)
    data["services"].append(dict(data["services"][0], id="svc-idle", name="idle"))
    scenario = scenario_from_dict(data, base_dir=str(SCENARIO_DIR))
    sim = NoteEmptyAnalyses(scenario)
    result = sim.run()
    assert (0.0, "register", "svc-idle") in result.arbitration_log
    assert sim.empty == []
    reference = run_with(EveryTickSimulation, scenario)
    assert result.arbitration_log == reference.arbitration_log
    assert result.records == reference.records


class NoteCompletions(Simulation):
    """Notes each completion's (time, node, advising before it, marked after
    it) and the time of each analysis."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.done = []
        self.analysed = []

    def _on_exec_done(self, t_ms, request):
        advising = self.services[request.service_id].advising
        super()._on_exec_done(t_ms, request)
        self.done.append((t_ms, request.node_id, advising, request.service_id in self._changed))

    def _analyze(self, t_ms, state):
        self.analysed.append(t_ms)
        return super()._analyze(t_ms, state)


def left_behind(monkeypatch, c1_speed, latency_sensitive=True, **thresholds):
    """svc-x starts on C1, one slot, with eight early requests queued there.

    Latency-sensitive, it moves to M1 under delay pressure while they
    still queue, and they keep completing on C1 after the move; three
    later requests run on M1. On M1 no node is nearer, so only the
    compute check can advise, on the last compute_run execution times:
    250 ms on M1, and on C1 1000, 500 or 250 ms at its speed of 2000,
    4000 or 8000.
    """
    nodes = [
        make_node("M1", Tier.MNO, cpu_speed=8000.0, rtt_ms=50.0, bandwidth_mbps=100.0),
        make_node("C1", Tier.CLOUD, cpu_speed=c1_speed, rtt_ms=200.0, bandwidth_mbps=100.0,
                  cpu_slots=1, internet_path=True),
    ]
    times = [100.0 * i for i in range(1, 9)] + [4100.0, 4300.0, 7100.0]
    monkeypatch.setattr(
        simulation, "generate_workload",
        lambda consumers, seed, horizon: [Arrival(t, "u1", "svc-x") for t in times],
    )
    scenario = Scenario(
        horizon_ms=10000.0,
        seed=3,
        nodes=nodes,
        services=[make_service("svc-x", cpu_demand=2000.0, payload_in=0.5, payload_out=0.5,
                               latency_sensitive=latency_sensitive, data_intensive=True)],
        consumers=[ConsumerSpec("u1", {"svc-x": 1.0})],
        weights=SchedulerWeights(),
        thresholds=Thresholds(**{"delay_pressure_ms_per_s": 100.0, "window": 4,
                                 "min_samples": 2, "compute_run": 2, **thresholds}),
        energy=EnergyModel(),
    )
    sim = NoteCompletions(scenario, policy="sami")
    result = sim.run()
    reference = run_with(EveryTickSimulation, scenario)
    assert result.arbitration_log == reference.arbitration_log
    assert result.records == reference.records
    assert report_to_dict(result.report) == report_to_dict(reference.report)
    return sim, moves_in(result)


def test_old_node_completion_with_another_exec_time_is_analysed(monkeypatch):
    # The 4000 ms tick finds C1's 1000 ms times advising, with nothing
    # better than M1. M1's completion at 4480, within the factor of its
    # 250 ms, silences the check without marking svc-x. C1's at 5220
    # overruns M1's time: it must mark svc-x, although it ran on a node
    # svc-x has left, and the 6000 ms tick must analyse it.
    sim, moves = left_behind(monkeypatch, 2000.0)
    assert moves == [3000.0]
    assert (4480.0, "M1", True, False) in sim.done
    assert (5220.0, "C1", False, True) in sim.done
    assert 6000.0 in sim.analysed


def test_old_node_completion_with_the_same_exec_time_is_skipped(monkeypatch):
    # At C1's speed of 8000 both nodes take 250 ms, within the factor of
    # M1's time, so C1's completions after the 3000 ms tick cannot make
    # the compute check advise, nor can M1's: none marks svc-x, and no
    # later tick analyses it.
    sim, moves = left_behind(monkeypatch, 8000.0)
    assert moves == [2000.0]
    skipped = [(t, node) for t, node, _, marked in sim.done if not marked]
    assert skipped == [(3280.0, "C1"), (3810.0, "C1"), (4340.0, "C1"),
                       (4480.0, "M1"), (4680.0, "M1"), (7480.0, "M1")]
    assert sim.analysed == [1000.0, 2000.0, 3000.0]


@pytest.mark.parametrize("latency_sensitive", [True, False])
def test_compute_run_longer_than_the_window(monkeypatch, latency_sensitive):
    # Longer than the window of 2, compute_run 3 finds at most 2 times, so
    # the compute check never advises and never sets advising. Moved to M1
    # at 2000 ms, svc-x is marked by each of C1's 500 ms completions, which
    # overrun 1.5 x 250 ms, and by none of M1's, such as the one at
    # 7480 ms. Not latency-sensitive, svc-x stays on C1, where nothing is
    # ever nearer and every time is within the factor: only its first
    # completion marks it, for the tick at 1000 ms.
    sim, moves = left_behind(monkeypatch, 4000.0, latency_sensitive, window=2, compute_run=3)
    assert not any(advising for _, _, advising, _ in sim.done)
    if latency_sensitive:
        assert moves == [2000.0]
        assert all(marked for t, node, _, marked in sim.done if node == "C1" and t > 2000.0)
        assert (7480.0, "M1", False, False) in sim.done
    else:
        assert moves == []
        assert [marked for *_, marked in sim.done] == [True] + [False] * (len(sim.done) - 1)
        assert sim.analysed == [1000.0]


def test_a_dealer_close_is_analysed_on_the_next_tick(monkeypatch):
    # svc-0 starts on C1, the dealers being closed until 00:01. At the
    # 00:01 tick its window is under pressure and Da is nearer, but the
    # weights favour the cheap, slow Db, which projects no better than
    # C1, so svc-0 stays and its window never changes again. Db's close
    # at 00:03 leaves Da alone in the pool: the tick then moves svc-0 to
    # Da, though nothing it reads from its window changed.
    monkeypatch.setattr(simulation, "ANALYSIS_INTERVAL_MS", 60000.0)
    nodes = [
        make_node("Da", Tier.DEALER, cpu_speed=8000.0, rtt_ms=5.0, bandwidth_mbps=100.0,
                  open_hours=(1, 1440), tariff=Tariff(base_fee=10.0, cpu_rate=0.1,
                                                      data_rate=0.01)),
        make_node("Db", Tier.DEALER, cpu_speed=2000.0, rtt_ms=5.0, bandwidth_mbps=100.0,
                  open_hours=(1, 3)),
        make_node("C1", Tier.CLOUD, cpu_speed=8000.0, rtt_ms=200.0, bandwidth_mbps=100.0,
                  cpu_slots=8, internet_path=True),
    ]
    arrivals = [Arrival(1000.0 * i, "u1", "svc-0") for i in range(1, 6)]
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )
    scenario = Scenario(
        horizon_ms=240000.0,
        seed=3,
        nodes=nodes,
        services=[make_service("svc-0", cpu_demand=1000.0, latency_sensitive=True)],
        consumers=[ConsumerSpec("u1", {"svc-0": 1.0})],
        weights=SchedulerWeights(w_latency=0.2, w_cost=0.8),
        thresholds=Thresholds(delay_pressure_ms_per_s=0.01, window=4, min_samples=2),
        energy=EnergyModel(),
    )
    fast = assert_same_run(scenario)
    assert {r.node_id for r in fast.records} == {"C1"}
    assert moves_in(fast) == [180000.0]


def test_the_gain_kept_toward_a_dealer_is_forgotten_at_its_close(monkeypatch):
    # svc-0, data-intensive, starts on C1 while the only dealer, D0, is
    # closed until 00:01. Its first completion is analysed at the 00:02
    # tick, which keeps D0's gain of 195 ms: one sample is below
    # min_samples, so svc-0 stays. Its second completion puts the window
    # under pressure just before D0 closes at 00:03, on a tick. The close
    # runs first and forgets the gain, so the tick finds M1, 150 ms
    # nearer, and moves svc-0 there. A gain kept across the close would
    # still point at D0, whose pool is empty at 00:03, and the placement
    # flow, which sends a data-intensive service to the clouds, would
    # leave svc-0 on C1.
    monkeypatch.setattr(simulation, "ANALYSIS_INTERVAL_MS", 60000.0)
    nodes = [
        make_node("D0", Tier.DEALER, cpu_speed=8000.0, rtt_ms=5.0, bandwidth_mbps=100.0,
                  open_hours=(1, 3)),
        make_node("M1", Tier.MNO, cpu_speed=8000.0, rtt_ms=50.0, bandwidth_mbps=100.0),
        make_node("C1", Tier.CLOUD, cpu_speed=8000.0, rtt_ms=200.0, bandwidth_mbps=100.0,
                  internet_path=True),
    ]
    arrivals = [Arrival(90000.0, "u1", "svc-0"), Arrival(150000.0, "u1", "svc-0")]
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )
    scenario = Scenario(
        horizon_ms=240000.0,
        seed=3,
        nodes=nodes,
        services=[make_service("svc-0", cpu_demand=1000.0, latency_sensitive=True,
                               data_intensive=True)],
        consumers=[ConsumerSpec("u1", {"svc-0": 1.0})],
        weights=SchedulerWeights(),
        thresholds=Thresholds(delay_pressure_ms_per_s=0.01, window=4, min_samples=2),
        energy=EnergyModel(),
    )
    original = simulation.analyze_performance
    passed = []

    def noting(window, nearer, thresholds):
        passed.append(nearer)
        return original(window, nearer, thresholds)

    monkeypatch.setattr(simulation, "analyze_performance", noting)
    fast = assert_same_run(scenario)
    assert moves_in(fast) == [180000.0]
    assert [r.node_id for r in fast.records] == ["C1", "C1"]
    # The 00:04 tick analyses svc-0 on M1, where no node is nearer.
    assert passed == [(Tier.DEALER, 195.0), (Tier.MNO, 150.0), False]


@pytest.mark.parametrize("policy", ["sami", "dealer-only"])
def test_round_the_clock_dealer_keeps_its_queue_across_midnight(monkeypatch, policy):
    # D0 is open all day, hours (0, 1440), so it never closes: the five
    # requests queued on its one slot across midnight all complete there.
    monkeypatch.setattr(simulation, "ANALYSIS_INTERVAL_MS", 60000.0)
    nodes = [
        make_node("D0", Tier.DEALER, cpu_speed=4000.0, rtt_ms=5.0, bandwidth_mbps=100.0,
                  cpu_slots=1, open_hours=(0, 1440)),
        make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=50.0, bandwidth_mbps=50.0),
    ]
    arrivals = [Arrival(DAY_MS - 500.0 + 100.0 * i, "u1", "svc-0") for i in range(5)]
    monkeypatch.setattr(
        simulation, "generate_workload", lambda consumers, seed, horizon: list(arrivals)
    )
    scenario = Scenario(
        horizon_ms=DAY_MS + 60000.0,
        seed=3,
        nodes=nodes,
        services=[make_service("svc-0", cpu_demand=1000.0, latency_sensitive=True)],
        consumers=[ConsumerSpec("u1", {"svc-0": 1.0})],
        weights=SchedulerWeights(),
        thresholds=Thresholds(),
        energy=EnergyModel(),
    )
    fast = assert_same_run(scenario, policy=policy)
    assert [(r.node_id, r.outcome) for r in fast.records] == [("D0", Outcome.COMPLETED)] * 5
    assert fast.records[-1].t_start > DAY_MS


def test_thresholds_refuse_a_compute_run_below_one():
    # The compute check reads the last compute_run execution times; the
    # file format already requires at least one.
    with pytest.raises(ConfigError, match="compute_run"):
        Thresholds(compute_run=0)

"""Properties of every run: request conservation, byte-stable outputs
and a report equal to the reference one.

The scenarios come from the strategies that drive the reference-loop
tests, under every policy, each run as the program runs it: the event
loop under sami, the pinned queues under the others. The report property fills a placed run's
tallies from random record lists, as each request would have settled,
and calls Simulation._finish directly; the run-level report properties
run the shipped scenarios at drawn seeds, the tied-event grids, and a
lone dealer whose close rejects what it queued and after which sami
drops what arrives. Each completed record of the shipped runs and the
grids recomputes its completion time and energy from its pair's costs,
bit for bit. The context property feeds
random completions through collect_context against plain per-service
lists, and the composition property draws registries and goals.
"""

import dataclasses
import functools
import math
import os
import statistics
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tierbroker import simulation
from tierbroker.arbitrator import (
    SchedulerWeights,
    ServiceWindow,
    Thresholds,
    analyze_computation,
    collect_context,
)
from tierbroker.errors import OutOfOrderEvent, UncoverableGoal
from tierbroker.model import (
    EnergyModel,
    InvocationRecord,
    Outcome,
    Tier,
    Topology,
    is_dealer_open,
    pair_cost,
)
from tierbroker.registry import FunctionalSpec, Registry
from tierbroker.report import write_metrics_csv, write_metrics_json
from tierbroker.simulation import POLICIES, Simulation, _Tally, _totals
from tierbroker.workload import Scenario, load_scenario

from conftest import SCENARIO_DIR, T0_NOON, make_service, program_run, t0_nodes
from oracles import reference_rows
from test_event_order import (
    grid_cases,
    lone_dealer_cases,
    multi_day_cases,
    use_arrivals,
)
from test_incremental import incremental_cases


def run_policy(scenario, policy):
    return program_run(scenario, policy)[1]


def assert_conserved(report):
    for row in report.services:
        assert row.invocations == row.completed + row.rejected + row.dropped + row.in_flight
    run = report.run
    assert run.arrivals == run.completed + run.rejected + run.dropped + run.in_flight
    assert run.arrivals == sum(row.invocations for row in report.services)


@settings(max_examples=60, deadline=None)
@given(incremental_cases(), st.sampled_from(POLICIES))
def test_requests_are_conserved(case, policy):
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        assert_conserved(run_policy(scenario, policy).report)


@settings(max_examples=60, deadline=None)
@given(grid_cases())
def test_requests_are_conserved_on_tied_events(case):
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_conserved(run_policy(scenario, policy).report)


def assert_dealers_open_at_starts(scenario, result):
    # _try_start does not ask a dealer whether it is open, as its queue is
    # empty while it is closed. Both reference simulations inherit
    # _try_start, so only this property would see a start out of hours.
    nodes = {node.id: node for node in scenario.nodes}
    for record in result.records:
        node = nodes.get(record.node_id)
        if record.t_start is not None and node.tier is Tier.DEALER:
            assert is_dealer_open(node, record.t_start), record


@settings(max_examples=60, deadline=None)
@given(incremental_cases(), st.sampled_from(POLICIES))
def test_dealers_start_requests_only_while_open(case, policy):
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        assert_dealers_open_at_starts(scenario, run_policy(scenario, policy))


@settings(max_examples=60, deadline=None)
@given(grid_cases())
def test_dealers_start_requests_only_while_open_on_tied_events(case):
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_dealers_open_at_starts(scenario, run_policy(scenario, policy))


def metrics_bytes(scenario, policy, out_dir):
    report = run_policy(scenario, policy).report
    csv_path = os.path.join(out_dir, "metrics.csv")
    json_path = os.path.join(out_dir, "metrics.json")
    write_metrics_csv(report, csv_path)
    write_metrics_json(report, json_path)
    with open(csv_path, "rb") as csv_fh, open(json_path, "rb") as json_fh:
        return csv_fh.read(), json_fh.read()


@settings(max_examples=40, deadline=None)
@given(incremental_cases(), st.sampled_from(POLICIES))
def test_same_seed_writes_same_bytes(case, policy):
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        first = metrics_bytes(scenario, policy, out)
        second = metrics_bytes(scenario, policy, out)
    assert first == second


SERVICE_IDS = ("svc-a", "svc-b", "svc-c", "svc-d")
OUTCOMES = (Outcome.COMPLETED, Outcome.REJECTED, Outcome.DROPPED, None)
TIMES = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
# Magnitudes far apart, so that sums added in another order come out different.
AMOUNTS = st.floats(min_value=0.0, max_value=1e17, allow_nan=False, allow_infinity=False)


def record(request_id, service_id, outcome, t_arrive, t_done=None, energy=0.0, charge=0.0):
    rec = InvocationRecord(
        request_id=request_id, service_id=service_id, consumer_id="u1", node_id=None,
        t_arrive=t_arrive,
    )
    rec.outcome = outcome
    if outcome is Outcome.COMPLETED:
        rec.t_done, rec.energy_j, rec.charge = t_done, energy, charge
    return rec


@st.composite
def finished_runs(draw):
    """(records in arrival order, services left unplaced, reschedules per service)."""
    records = []
    for index, service_id in enumerate(draw(st.lists(st.sampled_from(SERVICE_IDS), max_size=40))):
        outcome = draw(st.sampled_from(OUTCOMES))
        completed = outcome is Outcome.COMPLETED
        records.append(record(
            index + 1, service_id, outcome, draw(TIMES),
            t_done=draw(TIMES) if completed else None,
            energy=draw(AMOUNTS) if completed else 0.0,
            charge=draw(AMOUNTS) if completed else 0.0,
        ))
    unplaced = draw(st.sets(st.sampled_from(SERVICE_IDS)))
    reschedules = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    return records, unplaced, reschedules


def finished(records, unplaced, reschedules):
    """A placed Simulation holding these records, as at the horizon."""
    scenario = Scenario(
        horizon_ms=60000.0,
        seed=0,
        nodes=t0_nodes(),
        services=[make_service(service_id=sid, name=f"probe-{sid}") for sid in SERVICE_IDS],
        consumers=[],
        weights=SchedulerWeights(),
        thresholds=Thresholds(),
        energy=EnergyModel(),
    )
    sim = Simulation(scenario)
    sim._place_all()
    # An unplaced service was never registered; each reschedule is logged.
    sim.arbitration_log = [entry for entry in sim.arbitration_log if entry[2] not in unplaced]
    for (service_id, state), count in zip(sorted(sim.services.items()), reschedules):
        sim.arbitration_log += [(scenario.horizon_ms, "reschedule", service_id)] * count
        if service_id in unplaced:
            state.record = None
    sim.records = records
    for rec in records:
        settle(sim.services[rec.service_id].tally, rec)
    return sim


def settle(tally, rec):
    """Feed a record to its service's tally, as the run does when the request settles."""
    tally.invocations += 1
    if rec.outcome is Outcome.COMPLETED:
        tally.latencies.append(rec.t_done - rec.t_arrive)
        tally.energy.append(rec.energy_j)
        tally.charge.append(rec.charge)
    elif rec.outcome is Outcome.REJECTED:
        tally.rejected += 1
    elif rec.outcome is Outcome.DROPPED:
        tally.dropped += 1


@settings(max_examples=200, deadline=None)
@given(finished_runs())
@example((
    [
        # svc-a: every outcome; svc-b: all rejected; svc-c: only in flight; svc-d: none.
        record(1, "svc-a", Outcome.COMPLETED, 10.0, 1e16, energy=1e17, charge=0.1),
        record(2, "svc-b", Outcome.REJECTED, 20.0),
        record(3, "svc-a", Outcome.REJECTED, 30.0),
        record(4, "svc-c", None, 40.0),
        record(5, "svc-a", Outcome.DROPPED, 50.0),
        record(6, "svc-a", None, 60.0),
        record(7, "svc-a", Outcome.COMPLETED, 70.0, 75.0, energy=1.0, charge=1e16),
        record(8, "svc-b", Outcome.REJECTED, 80.0),
    ],
    {"svc-d"},
    [0, 1, 2, 3],
))
def test_one_pass_report_equals_reference(run):
    sim = finished(*run)
    report = sim._finish(int(sim.horizon // simulation.ANALYSIS_INTERVAL_MS)).report
    rows, run_row = reference_rows(sim)
    # repr shows every float exactly.
    assert repr(report.services) == repr(rows)
    assert repr(report.run) == repr(run_row)


SHIPPED = ("dealer_hours", "hot_cloud_service", "latency_mix", "minimal")


@functools.cache
def shipped(name):
    return load_scenario(str(SCENARIO_DIR / f"{name}.json"))


def assert_report_from_records(scenario, policy, seed=None):
    """Runs the policy as the program does; returns the runner and its report."""
    sim, result = program_run(scenario, policy, seed)
    rows, run_row = reference_rows(sim)
    assert repr(result.report.services) == repr(rows)
    assert repr(result.report.run) == repr(run_row)
    return sim, result.report


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHIPPED), st.sampled_from(POLICIES), st.integers(0, 2**64))
def test_run_report_equals_reference_from_records(name, policy, seed):
    # Every row is fed as its requests settle; the reference reads the
    # records the run leaves, with what is unsettled at the horizon in flight.
    assert_report_from_records(shipped(name), policy, seed)


@settings(max_examples=100, deadline=None)
@given(lone_dealer_cases())
def test_report_tallies_close_rejections_and_drops(case):
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_report_from_records(scenario, policy)


def assert_derived_figures(scenario, records):
    """Each completed record's completion time and energy, recomputed from
    the record and its pair's costs on its node, bit for bit. Returns the
    number of completed records."""
    nodes = {node.id: node for node in scenario.nodes}
    services = {desc.id: desc for desc in scenario.services}
    done = [r for r in records if r.outcome is Outcome.COMPLETED]
    for r in done:
        node = nodes[r.node_id]
        cost = pair_cost(services[r.service_id], node)
        assert r.t_done == ((r.t_start + node.rtt_ms) + cost.transfer_ms) + cost.exec_ms, r
        wait_ms = r.t_start - r.t_arrive
        assert r.energy_j == simulation.energy_j(cost.transfer_ms, wait_ms, scenario.energy), r
    return len(done)


@settings(max_examples=100, deadline=None)
@given(st.one_of(grid_cases(), multi_day_cases()))
def test_tied_event_report_equals_reference_from_records(case):
    # A settlement left untallied would pass as in flight, which
    # conservation alone cannot tell. Each completed record also
    # recomputes from its pair.
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        sim, report = assert_report_from_records(scenario, policy)
    assert assert_derived_figures(scenario, sim.records) == report.run.completed


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_records_recompute_from_their_pairs(name, policy, seed):
    scenario = shipped(name)
    _, result = program_run(scenario, policy, seed)
    assert assert_derived_figures(scenario, result.records) == result.report.run.completed


def test_report_counts_requests_cut_at_the_horizon_in_flight():
    # At 7.6 s under cloud-only the horizon cuts one request while queued,
    # eleven while transferring and one while executing; none of them
    # settled, so each is in flight by the remainder alone.
    scenario = dataclasses.replace(shipped("hot_cloud_service"), horizon_ms=7600.0)
    sim, report = assert_report_from_records(scenario, "cloud-only", 42)
    node = sim.topology.get("C1")
    transfer_ms = {desc.id: pair_cost(desc, node).transfer_ms for desc in scenario.services}
    cut = [r for r in sim.records if r.outcome is None]
    queued = [r for r in cut if r.t_start is None]
    transferring = [r for r in cut if r.t_start is not None
                    and r.t_start + node.rtt_ms + transfer_ms[r.service_id] > scenario.horizon_ms]
    executing = [r for r in cut if r.t_start is not None and r not in transferring]
    assert (len(queued), len(transferring), len(executing)) == (1, 11, 1)
    assert report.run.in_flight == len(cut) == 13


@st.composite
def cancelling_samples(draw):
    """Floats from 2**-60 to 2**60 in size, and the negations of some of
    them, so that a left-to-right sum loses low bits in most orders."""
    values = draw(st.lists(
        st.builds(lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(-60, 60)),
        min_size=1,
        max_size=30,
    ))
    return values + [-v for v in draw(st.lists(st.sampled_from(values), max_size=10))]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_totals_are_correctly_rounded_in_any_order(data):
    samples = data.draw(cancelling_samples())
    order = data.draw(st.permutations(samples))
    # The run row sums across its services' tallies: split the order between two.
    cut = data.draw(st.integers(0, len(order)))
    parts = (order[:cut], order[cut:])
    totals = _totals([_Tally(energy=list(part), charge=list(part)) for part in parts])
    assert totals["energy_j_total"] == totals["charge_total"] == math.fsum(samples)


def shortfall(execs, m):
    """The compute check's verdict on execution times, overrunning at more than 1 ms."""
    return analyze_computation(execs, 1.0, k=1.0, m=m)


class PlainContext:
    """A window's reads from full per-service lists sliced to the window."""

    def __init__(self, window):
        self.window = window
        self.seen = {}

    def observe(self, service_id, t_done, latency_ms, exec_ms):
        self.seen.setdefault(service_id, []).append((t_done, latency_ms, exec_ms))

    def column(self, service_id, index):
        return [obs[index] for obs in self.seen.get(service_id, [])[-self.window:]]

    def reads(self, service_id):
        times, latencies, execs = (self.column(service_id, i) for i in range(3))
        try:
            mean = statistics.fmean(latencies).hex()
        except statistics.StatisticsError:
            mean = "StatisticsError"
        if len(times) < 2:
            rate = 0.0
        elif times[-1] - times[0] <= 0:
            rate = math.inf
        else:
            rate = (len(times) - 1) * 1000.0 / (times[-1] - times[0])
        return dict(
            count=len(times),
            mean=mean,
            rate=rate,
            recent={m: shortfall(execs[-m:], m) for m in range(1, self.window + 3)},
        )


def context_reads(w, size):
    try:
        mean = w.mean_latency().hex()
    except statistics.StatisticsError:
        mean = "StatisticsError"
    return dict(
        count=len(w.times),
        mean=mean,
        rate=w.rate_per_s(),
        recent={m: shortfall(w.execs, m) for m in range(1, size + 3)},
    )


CONTEXT_IDS = ("svc-a", "svc-b", "svc-c")
FEED = st.lists(st.tuples(
    st.sampled_from(CONTEXT_IDS),
    st.one_of(st.just(0.0), st.floats(0.0, 5000.0)),  # gap since the last completion fed
    st.floats(-1e12, 1e12),  # latency
    st.floats(0.0, 1e6),  # execution time
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), FEED)
def test_context_reads_equal_plain_lists(window, feed):
    # Every read of every service's window, after every completion fed,
    # equals the one from full lists, the compute check's on the last m
    # times too; ties in time give a zero span and an infinite rate.
    windows = {service_id: ServiceWindow(service_id, window) for service_id in CONTEXT_IDS}
    plain = PlainContext(window)
    t = 0.0
    for service_id, gap, latency, exec_ms in feed:
        t += gap
        collect_context(windows[service_id], t, latency, exec_ms)
        plain.observe(service_id, t, latency, exec_ms)
        for other in CONTEXT_IDS:
            assert context_reads(windows[other], window) == plain.reads(other)
    for service_id in plain.seen:
        last = plain.seen[service_id][-1][0]
        with pytest.raises(OutOfOrderEvent):
            collect_context(windows[service_id], math.nextafter(last, -math.inf), 1.0, 1.0)
        assert context_reads(windows[service_id], window) == plain.reads(service_id)


COMPOSE_TAGS = ("a", "b", "c", "d", "e")
COMPOSE_OFFERS = st.lists(st.tuples(
    st.sampled_from(("alpha", "beta", "gamma")),  # few names, so names tie
    st.sets(st.sampled_from(COMPOSE_TAGS), min_size=1),
    st.booleans(),  # deregistered after registering
), max_size=8)


@settings(max_examples=200, deadline=None)
@given(COMPOSE_OFFERS, st.sets(st.sampled_from(COMPOSE_TAGS)))
def test_compose_is_the_greedy_cover(offers, goal):
    # Either the ids cover the goal, each the greedy pick among the
    # active records not yet taken (most uncovered tags, then name, then
    # id), or the goal is uncoverable and the residual is exactly the
    # goal tags no active record offers.
    registry = Registry()
    topology = Topology(t0_nodes())
    for i, (name, tags, retired) in enumerate(offers):
        service_id = f"svc-{i}"
        registry.register_service(
            make_service(service_id=service_id, name=name, version=f"1.{i}.0", tags=tags),
            topology, T0_NOON,
        )
        if retired:
            registry.deregister_service(service_id)
    active = {r.descriptor.id: r.descriptor for r in registry.active_records()}
    offered = set().union(*(d.capability_tags for d in active.values()))
    try:
        chosen = registry.compose_services(FunctionalSpec(required_tags=set(goal)))
    except UncoverableGoal as exc:
        assert exc.residual_tags == sorted(goal - offered) != []
        return
    assert goal <= offered
    uncovered, taken = set(goal), set()
    for service_id in chosen:
        assert service_id in active and service_id not in taken
        best = min(
            (-len(uncovered & d.capability_tags), d.name, d.id)
            for d in active.values() if d.id not in taken
        )
        assert best[0] < 0 and best[2] == service_id
        uncovered -= active[service_id].capability_tags
        taken.add(service_id)
    assert uncovered == set()

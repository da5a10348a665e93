"""The program's request paths against the three-event reference, and
the pinned queues' rules on fixed cases.

Under sami a start pushes the request's ExecDone itself; the reference
pushes a TransferDone at every start, which pushes the ExecDone. Under
a pinned policy the program runs no events at all: each node is a FIFO
queue, and the reference is the event loop. Both must run the same
requests to the same records, log and report, ties included: the grids
put arrivals, completions and dealer hours on the same millisecond, and
under sami the tick, which runs last at its time, sees a completion at
its time whichever event pushed it. HeapOnlySimulation and
EveryTickSimulation inherit _try_start, so only this reference would
see a start go wrong.

The fixed cases pin what a dealer's close does to its queue, which the
event order decides: the close runs after the arrivals at its time and
before the completions, so it rejects a request waiting on a slot that
frees exactly then. Each is run by the queues and by the event loop.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tierbroker.arbitrator import SchedulerWeights, Thresholds
from tierbroker.model import EnergyModel, Outcome, SecurityClass, Tier
from tierbroker.report import report_to_dict
from tierbroker.simulation import POLICY_TIERS
from tierbroker.workload import Arrival, ConsumerSpec, Scenario

from conftest import make_node, make_service, program_run
from oracles import EventSimulation, ThreeEventSimulation
from test_event_order import (
    grid_cases,
    lone_dealer_cases,
    multi_day_cases,
    sami_places,
    use_arrivals,
)
from test_properties import SHIPPED, shipped

PINNED = tuple(sorted(POLICY_TIERS))


def assert_same_as_three_events(scenario, policy, seed=None):
    _, result = program_run(scenario, policy, seed)
    reference = ThreeEventSimulation(scenario, policy=policy, seed=seed).run()
    assert result.records == reference.records
    assert result.arbitration_log == reference.arbitration_log
    assert report_to_dict(result.report) == report_to_dict(reference.report)


@settings(max_examples=150, deadline=None)
@given(grid_cases(), st.sampled_from(PINNED))
def test_pinned_runs_match_three_event_reference_on_tied_events(case, policy):
    scenario, arrivals, _ = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_as_three_events(scenario, policy)


@settings(max_examples=100, deadline=None)
@given(multi_day_cases(), st.sampled_from(PINNED))
def test_pinned_runs_match_three_event_reference_over_dealer_days(case, policy):
    scenario, arrivals, _ = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_as_three_events(scenario, policy)


@settings(max_examples=100, deadline=None)
@given(lone_dealer_cases())
def test_lone_dealer_runs_match_three_event_reference(case):
    # The close rejects what the dealer queued; under sami what arrives
    # after it is dropped.
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_as_three_events(scenario, policy)


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_sami_runs_match_three_event_reference_on_tied_events(case):
    scenario, arrivals, _ = case
    assume(sami_places((scenario, arrivals, "sami")))
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_as_three_events(scenario, "sami")


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("policy", PINNED)
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_pinned_runs_match_three_event_reference(name, policy, seed):
    assert_same_as_three_events(shipped(name), policy, seed)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_sami_runs_match_three_event_reference(name, seed):
    assert_same_as_three_events(shipped(name), "sami", seed)


# ----------------------------------------------------------------------
# a dealer's close and its queue, on fixed cases

CLOSE_MS = 60000.0  # D0 is open from midnight to 00:01


def lone_dealer(horizon_ms, cpu_slots=1, **service):
    """D0 alone, open from midnight to 00:01, and svc-0 pinned there under
    dealer-only. A request takes 125 ms round trip, 250 ms transfer and
    500 ms execution: 875 ms, every sum exact."""
    d0 = make_node("D0", Tier.DEALER, cpu_speed=2000.0, rtt_ms=125.0, bandwidth_mbps=32.0,
                   cpu_slots=cpu_slots, open_hours=(0, 1))
    fields = dict(service_id="svc-0", name="probe-0", cpu_demand=1000.0, payload_in=0.5,
                  payload_out=0.5)
    desc = make_service(**(fields | service))
    return Scenario(
        horizon_ms=horizon_ms,
        seed=0,
        nodes=[d0],
        services=[desc],
        consumers=[ConsumerSpec("u1", {"svc-0": 1.0})],
        weights=SchedulerWeights(),
        thresholds=Thresholds(),
        energy=EnergyModel(),
    )


def run_dealer_only(scenario, times):
    """The queues' run of svc-0's requests at times, held equal to the
    event loop's; returns each record's (outcome, start, completion) and
    the run row."""
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, [Arrival(t, "u1", "svc-0") for t in times])
        _, result = program_run(scenario, "dealer-only")
        reference = EventSimulation(scenario, policy="dealer-only").run()
    assert result.records == reference.records
    assert result.arbitration_log == reference.arbitration_log
    assert report_to_dict(result.report) == report_to_dict(reference.report)
    return [(r.outcome, r.t_start, r.t_done) for r in result.records], result.report.run


COMPLETED, REJECTED = Outcome.COMPLETED, Outcome.REJECTED


def test_a_slot_freeing_at_the_close_leaves_the_queued_request_rejected():
    # The first request holds the one slot until exactly 00:01. The close
    # runs before that completion, so the request queued behind it is
    # rejected, and one arriving at the close finds D0 closed.
    requests, run = run_dealer_only(lone_dealer(90000.0), [59125.0, 59500.0, CLOSE_MS])
    assert requests == [
        (COMPLETED, 59125.0, CLOSE_MS),
        (REJECTED, None, None),
        (REJECTED, None, None),
    ]
    assert (run.completed, run.rejected, run.security_violations) == (1, 2, 0)


def test_a_start_just_before_the_close_completes_after_it():
    requests, _ = run_dealer_only(lone_dealer(90000.0), [59000.0, 59500.0])
    assert requests == [(COMPLETED, 59000.0, 59875.0), (COMPLETED, 59875.0, 60750.0)]


@pytest.mark.parametrize(
    "horizon", [CLOSE_MS, math.nextafter(CLOSE_MS, 0.0)], ids=["close-at", "close-past"]
)
def test_a_close_past_the_horizon_leaves_the_queued_request_in_flight(horizon):
    # A close at the horizon runs and rejects; one just past it never runs.
    requests, run = run_dealer_only(lone_dealer(horizon), [59125.0, 59500.0])
    if horizon == CLOSE_MS:
        assert requests == [(COMPLETED, 59125.0, CLOSE_MS), (REJECTED, None, None)]
    else:
        assert requests == [(None, 59125.0, None), (None, None, None)]
        assert run.in_flight == 2


@pytest.mark.parametrize("first", [59000.0, 59125.0])
def test_two_slots_complete_together_and_serve_the_queue_in_order(first):
    # Two requests start together and complete together, 875 ms on. The
    # two queued behind them start then, before the close from 59000 ms,
    # and are rejected by it from 59125 ms, when the slots free exactly at
    # the close.
    times = [first, first, first + 100.0, first + 200.0]
    requests, _ = run_dealer_only(lone_dealer(90000.0, cpu_slots=2), times)
    done = first + 875.0
    if done < CLOSE_MS:
        queued = [(COMPLETED, done, done + 875.0)] * 2
    else:
        queued = [(REJECTED, None, None)] * 2
    assert requests == [(COMPLETED, first, done)] * 2 + queued


@pytest.mark.parametrize(
    "service, violations",
    [({"security_class": SecurityClass.CRITICAL}, 3), ({"cpu_demand": 4000.0}, 0)],
    ids=["critical", "too-slow"],
)
def test_an_unfit_pair_refuses_every_request(service, violations):
    # No dealer admits the service, so dealer-only pins it to D0 anyway.
    # A critical service leaves the operator's network there: each refusal
    # is a security violation. A node too slow for it is none.
    requests, run = run_dealer_only(lone_dealer(90000.0, **service), [1000.0, 2000.0, 70000.0])
    assert requests == [(REJECTED, None, None)] * 3
    assert run.security_violations == violations

"""Every statement of the event handlers, the analysis path and the
pinned queues runs under the oracle comparisons.

A fixed list of cases goes through each oracle comparison (the
heap-only loop, the every-tick analysis, the three-event request path
and the report rebuilt from the records) under a sys.settrace line
tracer from the standard library. Every line of the loop that merges
the stream, the heap and the tick clock, of each handler, and of the
tick and what it calls, that holds bytecode must run: the drop, a move
at a tick, an arrival that starts itself and one held for its copy
included. So must every line of the pinned queues' run, a close's
reject and starts and completions past the horizon included, and of
what both runners share: the record an arrival makes, a completion's
settling, after a wait and after none, and a dealer's day step. A
list, not
Hypothesis draws, so the lines reached do not depend on the draw.
"""

import dataclasses
import sys

import pytest

from tierbroker.arbitrator import SchedulerWeights, Thresholds
from tierbroker.model import EnergyModel, SecurityClass, Tier
from tierbroker.simulation import POLICIES, PinnedQueues, Simulation, _NodeState
from tierbroker.workload import Arrival, ConsumerSpec, Scenario, generate_workload

from conftest import make_node, make_service
from test_event_order import assert_same_order, use_arrivals
from test_incremental import assert_same_run, closed_dealer_then_pressure
from test_pinned_path import assert_same_as_three_events
from test_properties import assert_report_from_records

HANDLERS = (
    "run",
    "_on_arrival",
    "_arrive",
    "_re_resolve",
    "_try_start",
    "_on_exec_done",
    "_complete",
    "_on_dealer_open",
    "_on_dealer_close",
    "_on_analysis_tick",
    "_analyze",
    "_move",
    "_forget",
)

THRESHOLDS = Thresholds(delay_pressure_ms_per_s=0.01, min_gain_ms=0.0, compute_factor=1.0,
                        compute_run=1, window=4, min_samples=2)


def scenario_of(nodes, services, horizon_ms, rate=1.0, seed=0):
    return Scenario(
        horizon_ms=horizon_ms,
        seed=seed,
        nodes=nodes,
        services=services,
        consumers=[ConsumerSpec(id="u1", rates={desc.id: rate for desc in services})],
        weights=SchedulerWeights(),
        thresholds=THRESHOLDS,
        energy=EnergyModel(),
    )


def dealer_alone():
    """D0 alone with one slot, open from midnight to 00:01, and a
    latency-sensitive service arriving each second, with a burst just
    before the close. The close rejects what D0 queued. After it sami
    drops each request, as no node admits the service, and a baseline
    with no node of its tier places nothing."""
    d0 = make_node("D0", Tier.DEALER, cpu_speed=2000.0, rtt_ms=125.0, bandwidth_mbps=32.0,
                   cpu_slots=1, open_hours=(0, 1))
    desc = make_service(service_id="svc-0", name="probe-0", cpu_demand=1000.0,
                        payload_in=0.5, payload_out=0.5, latency_sensitive=True)
    times = sorted({k * 1000.0 for k in range(90)} | {59250.0, 59500.0, 59750.0})
    return scenario_of([d0], [desc], 90000.0), [Arrival(t, "u1", desc.id) for t in times]


def nowhere_after_close():
    """No M1 and a slow cloud, so svc-1, at 6000 MIPS, fits only D0, open
    from midnight to 00:02. After the close sami drops its requests,
    while the latency-sensitive svc-0 goes back to C1."""
    nodes = [
        make_node("D0", Tier.DEALER, cpu_speed=8000.0, rtt_ms=2.0, bandwidth_mbps=50.0,
                  cpu_slots=1, open_hours=(0, 2)),
        make_node("C1", Tier.CLOUD, cpu_speed=1000.0, rtt_ms=200.0, bandwidth_mbps=100.0,
                  cpu_slots=1, mem_capacity=65536.0, storage_capacity=1048576.0,
                  internet_path=True),
    ]
    descs = [
        make_service(service_id="svc-0", name="probe-0", cpu_demand=200.0,
                     latency_sensitive=True, data_intensive=True),
        make_service(service_id="svc-1", name="probe-1", cpu_demand=6000.0),
    ]
    scenario = scenario_of(nodes, descs, 240000.0, rate=0.2, seed=1)
    return scenario, generate_workload(scenario.consumers, scenario.seed, scenario.horizon_ms)


def cases():
    """(scenario, arrivals, policy): both cases above under every policy;
    then the dealer alone opening at 00:01 under dealer-only, with a
    critical service, which breaks its pin to the dealer at every
    arrival, and with a compute factor below 1, so every completion
    overruns on a node with none nearer, the first ones before a run of
    three can advise; the dealer alone under dealer-only again, with the
    horizon falling after the first request of the burst starts, so it
    completes past it, and before the next can start; last, a tick that
    moves a service on while a request waits on the node left for the
    copy still migrating there."""
    for policy in POLICIES:
        yield *dealer_alone(), policy
        yield *nowhere_after_close(), policy
    alone, arrivals = dealer_alone()
    later = dataclasses.replace(alone.nodes[0], open_hours=(1, 2))
    yield dataclasses.replace(alone, nodes=[later]), arrivals, "dealer-only"
    critical = dataclasses.replace(alone.services[0], security_class=SecurityClass.CRITICAL)
    yield dataclasses.replace(alone, services=[critical]), arrivals, "dealer-only"
    thresholds = dataclasses.replace(alone.thresholds, compute_factor=0.5, compute_run=3)
    yield dataclasses.replace(alone, thresholds=thresholds), arrivals, "sami"
    yield dataclasses.replace(alone, horizon_ms=59600.0), arrivals, "dealer-only"
    yield *closed_dealer_then_pressure(storage_demand=500.0), "sami"


def compare_with_oracles(scenario, arrivals, policy):
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_order(scenario, policy)
        assert_same_run(scenario, policy=policy)
        assert_same_as_three_events(scenario, policy)
        assert_report_from_records(scenario, policy)


def body_lines(code):
    """The lines of a function's body that hold bytecode."""
    return {line for _, _, line in code.co_lines() if line not in (None, code.co_firstlineno)}


def test_oracle_cases_reach_every_handler_statement():
    codes = {getattr(Simulation, name).__code__: name for name in HANDLERS}
    codes[PinnedQueues.run.__code__] = "PinnedQueues.run"
    codes[_NodeState.next_day.__code__] = "_NodeState.next_day"
    reached = {name: set() for name in codes.values()}

    def trace_lines(frame, event, arg):
        if event == "line":
            reached[codes[frame.f_code]].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for case in cases():
            compare_with_oracles(*case)
    finally:
        sys.settrace(previous)
    missed = {
        name: sorted(body_lines(code) - reached[name])
        for code, name in codes.items()
        if body_lines(code) - reached[name]
    }
    assert missed == {}
